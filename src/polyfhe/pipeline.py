"""End-to-end 1:N identification: compress -> encrypt -> protect -> search.

Synthetic labeled datasets stand in for real face-embedding corpora: per-
identity Gaussian clusters on the unit sphere, with a configurable fraction
of coordinates carrying attribute-aligned mean shifts so attribute
classifiers have something to find.

A gallery record holds its template directly: one packed ciphertext, built
at enrollment by the same encrypted transform that a search applies to the
probe (in the plaintext twin, the k template values as an array).  Because
protection parameters are per-user, a 1:N search protects the probe under
each gallery record's own parameters before scoring.  The work that depends
only on the probe is shared: its windows are encrypted once per search in a
strided layout, and their powers are computed once and reused by every
record with the same (compress_dim, m, overlap), so each record pays only
for its coefficient and placement masks, a short fold and the cosine.  Encrypted
cosine needs the scaled denominator inside the inverse-sqrt fit domain, so
packed templates are normalized by a public, params-derived scale estimate
(the same scale on both sides of a comparison, so scores are unchanged).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .backend import EncryptionContext, decrypt, deserialize_ciphertext, serialize_ciphertext
from .errors import EmptyDataset, EmptyGallery, IntegrityError, MalformedDataset, UnknownParamsId, ZeroPrefix
from .invsqrt import PolyApprox, fit_inv_sqrt
from .polyprotect import (
    PolyProtectParams,
    _params_id,
    encrypt_windows,
    expected_template_norm,
    gen_params,
    output_len,
    pack_template,
    params_from_dict,
    params_to_dict,
    protect_depth,
    protect_encrypted,
    protect_plain,
)
from .similarity import NormalizationPlan, cosine_encrypted, cosine_plain, make_normalization_plan

ATTRIBUTE_CLASSES = {
    "gender": ("female", "male"),
    "age_band": ("0-22", "23-40", "41-59", "60+"),
    "ethnicity": ("hispanic", "white", "black", "asian"),
}


@dataclass(frozen=True)
class Embedding:
    """A labeled embedding vector."""

    values: np.ndarray
    subject_id: str
    attributes: dict

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic labeled dataset (deterministic per seed)."""

    num_ids: int
    samples_per_id: int
    dim: int = 512
    class_separation: float = 30.0
    attribute_correlation: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.num_ids < 2:
            raise ValueError("num_ids must be >= 2")
        if self.samples_per_id < 1:
            raise ValueError("samples_per_id must be >= 1")
        if self.class_separation <= 0:
            raise ValueError("class_separation must be positive")
        if not 0.0 <= self.attribute_correlation <= 1.0:
            raise ValueError("attribute_correlation must be in [0, 1]")


@dataclass
class GalleryRecord:
    """One enrolled subject: its template plus the ids to resolve it.

    template is the packed SlotVector holding scale * p_j in slot j, or the
    plaintext twin's (k,) ndarray of p_j.
    """

    subject_id: str
    template: object
    params_id: str
    compress_dim: int
    blob: bytes = field(default=None, repr=False, compare=False)  # the template as saved or loaded


_ATTR_SHIFT = 2.5


def gen_synthetic_dataset(spec: SyntheticSpec) -> list:
    """Per-identity Gaussian clusters on the unit sphere with attribute shifts.

    A fraction `attribute_correlation` of coordinates is partitioned among the
    three attributes; each attribute class adds a fixed pattern on its block
    to the identity center, so classifiers can recover labels across
    identities.  attribute_correlation = 0 leaves labels independent of the
    embedding.
    """
    rng = np.random.default_rng(spec.seed)
    dim = spec.dim
    n_attr = int(round(spec.attribute_correlation * dim))
    coords = rng.permutation(dim)[:n_attr]
    blocks = {}
    start = 0
    for i, attr in enumerate(ATTRIBUTE_CLASSES):
        size = n_attr // 3 + (1 if i < n_attr % 3 else 0)
        blocks[attr] = coords[start : start + size]
        start += size
    patterns = {
        attr: {cls: rng.normal(0.0, 1.0, len(blocks[attr])) for cls in classes}
        for attr, classes in ATTRIBUTE_CLASSES.items()
    }

    out = []
    for i in range(spec.num_ids):
        labels = {attr: classes[rng.integers(len(classes))] for attr, classes in ATTRIBUTE_CLASSES.items()}
        center = rng.normal(0.0, 1.0, dim)
        for attr, block in blocks.items():
            if len(block):
                center[block] += _ATTR_SHIFT * patterns[attr][labels[attr]]
        center /= np.linalg.norm(center)
        sid = f"id{i:04d}"
        for _ in range(spec.samples_per_id):
            x = spec.class_separation * center + rng.normal(0.0, 1.0, dim)
            x /= np.linalg.norm(x)
            out.append(Embedding(x, sid, dict(labels)))
    return out


def compress_prefix(e: Embedding, d: int) -> np.ndarray:
    """The first d coordinates of e, renormalized to unit length.

    Assumes nested-prefix embeddings; training such embeddings is upstream of
    this library.
    """
    if not 1 <= d <= len(e.values):
        raise ValueError(f"compress dim {d} outside 1..{len(e.values)}")
    prefix = e.values[:d]
    norm = np.linalg.norm(prefix)
    if norm == 0.0:
        raise ZeroPrefix("prefix is the zero vector; cannot renormalize")
    return prefix / norm


def enroll(e: Embedding, params: PolyProtectParams, ctx: EncryptionContext, d: int) -> GalleryRecord:
    """compress -> encrypt -> protect -> pack, scaled as identify scales a
    probe; returns the persistable record."""
    windows = encrypt_windows(compress_prefix(e, d), params, ctx)
    template = pack_template(protect_encrypted(windows, params), 1.0 / expected_template_norm(params, d))
    return GalleryRecord(e.subject_id, template, params.params_id, d)


def enroll_plain(e: Embedding, params: PolyProtectParams, d: int) -> GalleryRecord:
    """Plaintext twin of enroll (the parity oracle's gallery)."""
    return GalleryRecord(e.subject_id, protect_plain(compress_prefix(e, d), params), params.params_id, d)


def identify(
    probe: Embedding,
    gallery: list,
    params_store: dict,
    ctx: EncryptionContext,
    plan: NormalizationPlan,
    approx: PolyApprox,
) -> list:
    """Encrypted 1:N search: (subject_id, score) sorted by descending score.

    The probe is protected under each record's own parameters and scored
    against the record's stored ciphertext.  Its windows are encrypted once
    per (compress_dim, m, overlap) in the strided layout and their power
    chains are shared across records.  Scores are decrypted with the user
    context before ranking.  Ties break by subject_id for a stable order.
    """
    if not gallery:
        raise ValueError("identify needs a nonempty gallery")
    probe_windows = {}
    scores = []
    for rec in gallery:
        params = params_store.get(rec.params_id)
        if params is None:
            raise UnknownParamsId(f"no parameters stored for params_id {rec.params_id}")
        layout = (rec.compress_dim, params.m, params.overlap)
        windows = probe_windows.get(layout)
        if windows is None:
            windows = probe_windows[layout] = encrypt_windows(compress_prefix(probe, rec.compress_dim), params, ctx)
        scale = 1.0 / expected_template_norm(params, rec.compress_dim)
        packed_probe = pack_template(protect_encrypted(windows, params), scale)
        ct = cosine_encrypted(rec.template, packed_probe, windows.k, plan, approx, ctx)
        scores.append((rec.subject_id, float(decrypt(ct, ctx).values[0])))
    return sorted(scores, key=lambda t: (-t[1], t[0]))


def identify_plain(probe: Embedding, gallery: list, params_store: dict) -> list:
    """Plaintext twin of identify over plaintext-protected records."""
    if not gallery:
        raise ValueError("identify needs a nonempty gallery")
    scores = []
    for rec in gallery:
        params = params_store.get(rec.params_id)
        if params is None:
            raise UnknownParamsId(f"no parameters stored for params_id {rec.params_id}")
        probe_t = protect_plain(compress_prefix(probe, rec.compress_dim), params)
        scores.append((rec.subject_id, cosine_plain(probe_t, rec.template)))
    return sorted(scores, key=lambda t: (-t[1], t[0]))


# --- pipeline object ----------------------------------------------------------


@dataclass(frozen=True)
class PipelineConfig:
    """Everything that determines a run; (config, seed) fixes all outputs."""

    compress_dim: int = 64
    m: int = 5
    overlap: int = 4
    c_range: int = 50
    slot_capacity: int = 128
    depth_budget: int = 32
    approx_degree: int = 16
    domain_ratio: float = 8.0
    noise_stddev: float = 0.0
    encrypted: bool = True
    seed: int = 0


class Pipeline:
    """Holds one run's context, normalization plan, fit, and params store.

    The plan and fit domain are sized from the config's (compress_dim, m,
    overlap), so every gallery record scored by this pipeline must share
    those; per-user variation lives in the coefficients and exponents.
    """

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self.ctx = EncryptionContext(
            cfg.slot_capacity,
            cfg.depth_budget,
            key_id=f"pipeline-{cfg.seed}",
            noise_stddev=cfg.noise_stddev,
            nonce_seed=cfg.seed,
        )
        self.k = output_len(cfg.compress_dim, cfg.m, cfg.overlap)
        # After the per-record scale normalization, packed templates sit near
        # unit norm; bound 4/sqrt(k) per element keeps the scaled numerator
        # inside [-1, 1] with slack, and centers the scaled denominator at
        # 1/d_bound where the inverse-sqrt fit is anchored.
        self.plan = make_normalization_plan(4.0 / math.sqrt(self.k), self.k)
        x0 = 1.0 / self.plan.d_bound
        lo = x0 / cfg.domain_ratio
        hi = min(1.0, x0 * cfg.domain_ratio)
        self.approx = fit_inv_sqrt(cfg.approx_degree, (lo, hi))
        self.params_store: dict = {}

    def gen_user_params(self, index: int) -> PolyProtectParams:
        params = gen_params(self.cfg.m, self.cfg.overlap, self.cfg.c_range, seed=[self.cfg.seed, index])
        self.params_store[params.params_id] = params
        return params

    def enroll(self, e: Embedding, params: PolyProtectParams) -> GalleryRecord:
        if self.cfg.encrypted:
            return enroll(e, params, self.ctx, self.cfg.compress_dim)
        return enroll_plain(e, params, self.cfg.compress_dim)

    def identify(self, probe: Embedding, gallery: list) -> list:
        if self.cfg.encrypted:
            return identify(probe, gallery, self.params_store, self.ctx, self.plan, self.approx)
        return identify_plain(probe, gallery, self.params_store)


def enroll_split(dataset: list) -> tuple:
    """One enrolled sample per identity (the first), the rest are probes."""
    seen = set()
    enrollees, probes = [], []
    for e in dataset:
        if e.subject_id in seen:
            probes.append(e)
        else:
            seen.add(e.subject_id)
            enrollees.append(e)
    return enrollees, probes


def build_gallery(dataset: list, pipeline: Pipeline) -> tuple:
    """Enroll the per-identity split; returns (gallery, probes)."""
    enrollees, probes = enroll_split(dataset)
    gallery = []
    for i, e in enumerate(enrollees):
        params = pipeline.gen_user_params(i)
        gallery.append(pipeline.enroll(e, params))
    return gallery, probes


def rank1_accuracy(dataset: list, cfg: PipelineConfig) -> float:
    """Fraction of probes whose top-scored gallery identity is correct."""
    pipeline = Pipeline(cfg)
    gallery, probes = build_gallery(dataset, pipeline)
    if not probes:
        raise ValueError("dataset leaves no probes after the enroll split")
    hits = 0
    for probe in probes:
        ranked = pipeline.identify(probe, gallery)
        hits += ranked[0][0] == probe.subject_id
    return hits / len(probes)


# --- dataset persistence --------------------------------------------------------


def save_dataset(dataset: list, path):
    """CSV with columns id,gender,age_band,ethnicity,v0..v{dim-1}."""
    dim = len(dataset[0].values)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["id", "gender", "age_band", "ethnicity"] + [f"v{i}" for i in range(dim)])
        for e in dataset:
            w.writerow(
                [e.subject_id, e.attributes["gender"], e.attributes["age_band"], e.attributes["ethnicity"]]
                + [repr(float(v)) for v in e.values]
            )


def load_dataset(path) -> list:
    """Read a CSV written by save_dataset.

    A file with no samples raises EmptyDataset; a row whose field count
    differs from the header's, or whose values are not finite numbers,
    raises MalformedDataset naming the file and line.
    """
    out = []
    with open(path, newline="") as f:
        r = csv.reader(f)
        width = len(next(r, []))
        for row in r:
            if width < 5:
                raise MalformedDataset(f"{path}, line 1: header has {width} fields; needs id, 3 attributes, values")
            if len(row) != width:
                raise MalformedDataset(f"{path}, line {r.line_num}: {len(row)} fields, header has {width}")
            try:
                values = np.array([float(x) for x in row[4:]])
            except ValueError as exc:
                raise MalformedDataset(f"{path}, line {r.line_num}: {exc}") from None
            if not np.isfinite(values).all():
                raise MalformedDataset(f"{path}, line {r.line_num}: value is not finite")
            attrs = {"gender": row[1], "age_band": row[2], "ethnicity": row[3]}
            out.append(Embedding(values, row[0], attrs))
    if not out:
        raise EmptyDataset(f"dataset {path} has no samples")
    return out


# --- gallery persistence ---------------------------------------------------------


GALLERY_VERSION = 2


def save_gallery(gallery: list, ctx: EncryptionContext, params_store: dict, out_dir):
    """Write manifest.json, per-params JSON, and one ciphertext blob per record.

    Records loaded from disk keep their original blob bytes, so a
    save -> load -> save round trip is bit-identical (re-serializing would
    draw fresh nonces).
    """
    out = Path(out_dir)
    (out / "blobs").mkdir(parents=True, exist_ok=True)
    (out / "params").mkdir(exist_ok=True)
    records_meta = []
    for i, rec in enumerate(gallery):
        if rec.blob is None:
            rec.blob = serialize_ciphertext(rec.template, ctx)
        rel = f"blobs/{i}.ct"
        (out / rel).write_bytes(rec.blob)
        records_meta.append(
            {
                "subject_id": rec.subject_id,
                "params_id": rec.params_id,
                "compress_dim": rec.compress_dim,
                "blob_path": rel,
            }
        )
    for pid, params in params_store.items():
        with open(out / "params" / f"{pid}.json", "w") as f:
            json.dump(params_to_dict(params), f, indent=2)
    manifest = {
        "version": GALLERY_VERSION,
        "ctx": {
            "slot_capacity": ctx.slot_capacity,
            "depth_budget": ctx.depth_budget,
            "key_id": ctx.key_id.hex(),
        },
        "records": records_meta,
    }
    with open(out / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2)


def _check_shape(src: Path, obj, keys: dict, where: str):
    if not isinstance(obj, dict):
        raise IntegrityError(f"gallery {src}: {where} is not a JSON object")
    for key, typ in keys.items():
        if type(obj.get(key)) is not typ:
            raise IntegrityError(f"gallery {src}: {where} needs {key!r} as a JSON {typ.__name__}")


def _read_json(src: Path, rel: str):
    try:
        return json.loads((src / rel).read_bytes())
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise IntegrityError(f"gallery {src}: {rel} is not valid JSON ({exc})") from None


def _read_manifest(src: Path) -> dict:
    """manifest.json of a version-2 gallery, its shape checked."""
    manifest = _read_json(src, "manifest.json")
    _check_shape(src, manifest, {"version": int}, "manifest")
    if manifest["version"] != GALLERY_VERSION:
        hint = " (one blob per window); re-enroll it" if manifest["version"] == 1 else ""
        raise IntegrityError(f"gallery {src} has format version {manifest['version']}, not {GALLERY_VERSION}{hint}")
    _check_shape(src, manifest, {"ctx": dict, "records": list}, "manifest")
    _check_shape(src, manifest["ctx"], {"slot_capacity": int, "depth_budget": int, "key_id": str}, "manifest ctx")
    for i, rec_meta in enumerate(manifest["records"]):
        _check_shape(
            src, rec_meta, {"subject_id": str, "params_id": str, "compress_dim": int, "blob_path": str}, f"record {i}"
        )
    return manifest


def _read_params(src: Path, rel: str) -> PolyProtectParams:
    """params/<params_id>.json, its shape, its id and its values checked."""
    d = _read_json(src, rel)
    keys = {"m": int, "overlap": int, "c_range": int, "coeffs": list, "exps": list, "params_id": str}
    _check_shape(src, d, keys, rel)
    if any(type(x) is not int for x in d["coeffs"] + d["exps"]):
        raise IntegrityError(f"gallery {src}: {rel} needs 'coeffs' and 'exps' as lists of JSON ints")
    pid = _params_id(d["m"], d["overlap"], d["c_range"], d["coeffs"], d["exps"])
    if d["params_id"] != Path(rel).stem or d["params_id"] != pid:
        raise IntegrityError(
            f"gallery {src}: {rel} holds params_id {d['params_id']!r}; it must equal the file name"
            f" and the hash of its values, {pid!r}"
        )
    try:
        return params_from_dict(d)
    except ValueError as exc:
        raise IntegrityError(f"gallery {src}: {rel} holds invalid parameters ({exc})") from None


def load_gallery(in_dir, ctx: EncryptionContext = None) -> tuple:
    """Read a saved gallery; returns (gallery, params_store, ctx).

    Blob bytes are kept on each record so a subsequent save is bit-identical.
    Ciphertext depth is not on the wire; it is restored from the protection
    parameters that produced each template.  A manifest that is not valid
    JSON, lacks a key, holds a value of the wrong type, or has a format
    version other than 2 raises IntegrityError; one with no records raises
    EmptyGallery.  A params file that is not valid JSON, lacks a key, holds a
    value of the wrong type, has a params_id other than its file name or the
    hash of its values, or holds parameters that PolyProtectParams rejects
    also raises IntegrityError.
    """
    src = Path(in_dir)
    manifest = _read_manifest(src)
    if not manifest["records"]:
        raise EmptyGallery(f"gallery {in_dir} lists no records")
    meta = manifest["ctx"]
    if ctx is None:
        try:
            key_id = bytes.fromhex(meta["key_id"])
            ctx = EncryptionContext(meta["slot_capacity"], meta["depth_budget"], key_id=key_id)
        except ValueError as exc:
            raise IntegrityError(f"gallery {in_dir}: manifest ctx is invalid ({exc})") from None
    elif ctx.key_id.hex() != meta["key_id"]:
        raise ValueError("context key does not match the saved gallery")
    params_store = {}
    for pfile in sorted((src / "params").glob("*.json")):
        params = _read_params(src, f"params/{pfile.name}")
        params_store[params.params_id] = params
    gallery = []
    for rec_meta in manifest["records"]:
        params = params_store.get(rec_meta["params_id"])
        if params is None:
            raise UnknownParamsId(f"gallery references unknown params_id {rec_meta['params_id']}")
        blob = (src / rec_meta["blob_path"]).read_bytes()
        sv = deserialize_ciphertext(blob, ctx)
        sv.depth_used = protect_depth(params)
        gallery.append(GalleryRecord(rec_meta["subject_id"], sv, rec_meta["params_id"], rec_meta["compress_dim"], blob))
    return gallery, params_store, ctx
