"""End-to-end 1:N identification: compress -> encrypt -> protect -> search.

Synthetic labeled datasets stand in for real face-embedding corpora: per-
identity Gaussian clusters on the unit sphere, with a configurable fraction
of coordinates carrying attribute-aligned mean shifts so attribute
classifiers have something to find.

A gallery record holds its template directly: one packed ciphertext, built
at enrollment by the same encrypted transform that a search applies to the
probe (in the plaintext twin, the k template values as an array).  The key
holder scales each packed template, in the clear, by 1/||p|| for its exact
plaintext template p, so every stored or searched template has unit norm and
a comparison's cosine is one product folded into slot 0 (Boddeti, BTAS
2018): ceil(log2 k) rotations, one ciphertext mult, no inverse square root.
The scale is a plaintext per template, folded into the coefficient mults, so
nothing new leaves the key holder and the stored ciphertext does not carry
its template's norm.

Protection parameters are per user, so a 1:N search protects the probe under
each record's own parameters.  The work that depends only on the probe is
shared by every record with the same (compress_dim, m, overlap): its windows
are encrypted once as m column ciphertexts, each column's powers are built
once and shared (polyprotect), and their plaintext powers give every
record's template norm at once.  Each record then pays m plaintext scalar
mults for its template, one product and one fold.  The template depth is
protect_depth; the comparison adds one level (protect_depth + 1 = 5 at the
default config).

Gallery format version 3: manifest.json, one masked ciphertext blob per
record, and one params file per parameter set the records use.  Each record
in the manifest carries an HMAC-SHA256 tag, keyed from the context's masking
seed, over its ids and its blob (header and payload); a load that finds a
record whose tag does not match raises IntegrityError.
"""

from __future__ import annotations

import csv
import hashlib
import hmac
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .backend import EncryptionContext, decrypt, deserialize_ciphertext, serialize_ciphertext
from .errors import (
    EmptyDataset,
    EmptyGallery,
    IntegrityError,
    MalformedDataset,
    UnknownParamsId,
    ZeroPrefix,
    ZeroVector,
    check_json_object,
)
from .invsqrt import fit_inv_sqrt
from .polyprotect import (
    PolyProtectParams,
    encrypt_windows,
    gen_params,
    load_params,
    output_len,
    protect_depth,
    protect_encrypted,
    protect_plain,
    save_params,
    template_norms,
)
from .similarity import cosine_plain, cosine_unit_encrypted, make_normalization_plan

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

    template is the packed SlotVector holding p_j / ||p|| in slot j, or the
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


def _unit_scales(norms):
    """1 / norm for one template norm or an array of them."""
    if not np.all(np.asarray(norms) > 0.0):
        raise ZeroVector("protected template is the zero vector; its cosine is undefined")
    return 1.0 / norms


def enroll(e: Embedding, params: PolyProtectParams, ctx: EncryptionContext, d: int) -> GalleryRecord:
    """compress -> encrypt -> protect -> pack, scaled to unit norm by the
    exact template norm; returns the persistable record."""
    x = compress_prefix(e, d)
    scale = _unit_scales(np.linalg.norm(protect_plain(x, params)))
    template = protect_encrypted(encrypt_windows(x, params, ctx), params, scale)
    return GalleryRecord(e.subject_id, template, params.params_id, d)


def enroll_plain(e: Embedding, params: PolyProtectParams, d: int) -> GalleryRecord:
    """Plaintext twin of enroll (the parity oracle's gallery)."""
    return GalleryRecord(e.subject_id, protect_plain(compress_prefix(e, d), params), params.params_id, d)


# How far an exact-mode cosine of two unit-norm templates may stray past
# [-1, 1] by rounding alone.
_SCORE_ROUNDING = 1e-9


def identify(probe: Embedding, gallery: list, params_store: dict, ctx: EncryptionContext) -> list:
    """Encrypted 1:N search: (subject_id, score) sorted by descending score.

    The probe is protected under each record's own parameters, scaled to
    unit norm, and scored against the record's stored unit-norm ciphertext
    by one product and one fold.  Per (compress_dim, m, overlap) its windows
    are encrypted once, share their column powers, and give every record's
    template norm from one table of plaintext powers.  Scores are decrypted
    with the user context before ranking; ties break by subject_id for a
    stable order.  A decrypted score that is not finite raises
    IntegrityError, and so, in exact mode (ctx.noise_stddev == 0), does one
    outside [-1, 1] by more than rounding: both templates have unit norm, so
    such a score means a record's ciphertext is not what enrollment stored.
    """
    if not gallery:
        raise ValueError("identify needs a nonempty gallery")
    layouts = {}
    for i, rec in enumerate(gallery):
        params = params_store.get(rec.params_id)
        if params is None:
            raise UnknownParamsId(f"no parameters stored for params_id {rec.params_id}")
        layouts.setdefault((rec.compress_dim, params.m, params.overlap), []).append((i, params))
    scores = [None] * len(gallery)
    for (d, _, _), members in layouts.items():
        v = compress_prefix(probe, d)
        windows = encrypt_windows(v, members[0][1], ctx)
        scales = _unit_scales(template_norms(v, [params for _, params in members]))
        for (i, params), scale in zip(members, scales):
            rec = gallery[i]
            ct = cosine_unit_encrypted(rec.template, protect_encrypted(windows, params, scale), windows.k)
            score = float(decrypt(ct, ctx)[0])
            if not math.isfinite(score) or (ctx.noise_stddev == 0.0 and abs(score) > 1.0 + _SCORE_ROUNDING):
                raise IntegrityError(
                    f"record {i} (subject {rec.subject_id}) scores {score}, not the cosine of two unit-norm templates"
                )
            scores[i] = (rec.subject_id, score)
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


# Degree of Pipeline.approx and the ratio by which its fit domain extends
# either side of the plan's anchor 1/d_bound.
_APPROX_DEGREE = 16
_DOMAIN_RATIO = 8.0


@dataclass(frozen=True)
class PipelineConfig:
    """Everything that determines a run; (config, seed) fixes all outputs."""

    compress_dim: int = 64
    m: int = 5
    overlap: int = 4
    c_range: int = 50
    slot_capacity: int = 128
    depth_budget: int = 32
    noise_stddev: float = 0.0
    encrypted: bool = True
    seed: int = 0


class Pipeline:
    """Holds one run's context and params store, plus a normalization plan
    and inverse-sqrt fit.

    The search scores exact unit-norm templates and uses neither plan nor
    fit.  They size similarity.cosine_encrypted for templates scaled by
    polyprotect.expected_template_norm at this config's (compress_dim, m,
    overlap), the domain that perfbench's margin figures are measured
    against.
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
        # Templates scaled by expected_template_norm sit near unit norm; bound
        # 4/sqrt(k) per element keeps the scaled numerator inside [-1, 1]
        # with slack, and centers the scaled denominator at 1/d_bound where
        # the inverse-sqrt fit is anchored.
        self.plan = make_normalization_plan(4.0 / math.sqrt(self.k), self.k)
        x0 = 1.0 / self.plan.d_bound
        lo = x0 / _DOMAIN_RATIO
        hi = min(1.0, x0 * _DOMAIN_RATIO)
        self.approx = fit_inv_sqrt(_APPROX_DEGREE, (lo, hi))
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
            return identify(probe, gallery, self.params_store, self.ctx)
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


GALLERY_VERSION = 3
_OLD_VERSIONS = {
    1: "one blob per window",
    2: "templates scaled by a norm estimate, no integrity tags",
}


def _record_tag(subject_id: str, params_id: str, compress_dim: int, blob: bytes, ctx: EncryptionContext) -> str:
    """Hex HMAC-SHA256, keyed from the context's masking seed, over a
    record's ids and its blob (header and payload), so a blob cannot be
    altered or moved to another subject unnoticed."""
    key = hashlib.sha256(b"polyfhe-gallery-tag:" + ctx.masking_seed).digest()
    ids = json.dumps([subject_id, params_id, compress_dim]).encode()  # JSON escapes newlines
    return hmac.new(key, ids + b"\n" + blob, hashlib.sha256).hexdigest()


def save_gallery(gallery: list, ctx: EncryptionContext, params_store: dict, out_dir):
    """Write manifest.json, one ciphertext blob per record, and the params
    JSON of every parameter set the records use (and no other).  Blobs and
    params files that an earlier save left in out_dir and this manifest does
    not name are removed; nothing else in out_dir is touched.

    Each manifest record carries its blob's tag.  Records loaded from disk
    keep their original blob bytes, so a save -> load -> save round trip is
    bit-identical (re-serializing would draw fresh nonces).  A record whose
    params_id is not in params_store raises UnknownParamsId before anything
    is written, so a failed save leaves a gallery already in out_dir intact.
    """
    used = {}
    for rec in gallery:
        params = params_store.get(rec.params_id)
        if params is None:
            raise UnknownParamsId(f"no parameters stored for params_id {rec.params_id}")
        used[rec.params_id] = params
    out = Path(out_dir)
    (out / "blobs").mkdir(parents=True, exist_ok=True)
    (out / "params").mkdir(exist_ok=True)
    records_meta = []
    named = set()
    for i, rec in enumerate(gallery):
        if rec.blob is None:
            rec.blob = serialize_ciphertext(rec.template, ctx)
        rel = f"blobs/{i}.ct"
        (out / rel).write_bytes(rec.blob)
        named.add(out / rel)
        records_meta.append(
            {
                "subject_id": rec.subject_id,
                "params_id": rec.params_id,
                "compress_dim": rec.compress_dim,
                "blob_path": rel,
                "tag": _record_tag(rec.subject_id, rec.params_id, rec.compress_dim, rec.blob, ctx),
            }
        )
    for pid, params in used.items():
        path = out / "params" / f"{pid}.json"
        named.add(path)
        save_params(params, path)
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
    for path in [*(out / "blobs").glob("*.ct"), *(out / "params").glob("*.json")]:
        if path not in named:
            path.unlink()


def _read_manifest(src: Path) -> dict:
    """manifest.json of a version-3 gallery, its shape checked."""
    try:
        manifest = json.loads((src / "manifest.json").read_bytes())
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise IntegrityError(f"gallery {src}: manifest.json is not valid JSON ({exc})") from None
    check_json_object(manifest, {"version": int}, f"gallery {src}: manifest")
    version = manifest["version"]
    if version != GALLERY_VERSION:
        hint = f" ({_OLD_VERSIONS[version]}); re-enroll it" if version in _OLD_VERSIONS else ""
        raise IntegrityError(f"gallery {src} has format version {version}, not {GALLERY_VERSION}{hint}")
    check_json_object(manifest, {"ctx": dict, "records": list}, f"gallery {src}: manifest")
    check_json_object(
        manifest["ctx"], {"slot_capacity": int, "depth_budget": int, "key_id": str}, f"gallery {src}: manifest ctx"
    )
    for i, rec_meta in enumerate(manifest["records"]):
        check_json_object(
            rec_meta,
            {"subject_id": str, "params_id": str, "compress_dim": int, "blob_path": str, "tag": str},
            f"gallery {src}: record {i}",
        )
    return manifest


def load_gallery(in_dir, ctx: EncryptionContext = None) -> tuple:
    """Read a saved gallery; returns (gallery, params_store, ctx).

    Blob bytes are kept on each record so a subsequent save is bit-identical.
    Ciphertext depth is not on the wire; it is restored from the protection
    parameters that produced each template.  Only the params files the
    manifest's records name are read.  A manifest that is not valid JSON,
    lacks a key, holds a value of the wrong type, or has a format version
    other than 3 raises IntegrityError; one with no records raises
    EmptyGallery.  A blob whose tag does not match raises IntegrityError, as
    does a params file that load_params rejects or whose params_id is not
    its file name.  A record whose params file is missing raises
    UnknownParamsId.
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
    gallery = []
    for i, rec_meta in enumerate(manifest["records"]):
        pid = rec_meta["params_id"]
        params = params_store.get(pid)
        if params is None:
            rel = f"params/{pid}.json"
            if not (src / rel).is_file():
                raise UnknownParamsId(f"gallery references unknown params_id {pid}")
            params = params_store[pid] = load_params(src / rel)
            if params.params_id != pid:
                raise IntegrityError(
                    f"gallery {src}: {rel} holds params_id {params.params_id!r}; it must equal the file name"
                )
        blob = (src / rec_meta["blob_path"]).read_bytes()
        tag = _record_tag(rec_meta["subject_id"], pid, rec_meta["compress_dim"], blob, ctx)
        if not hmac.compare_digest(tag.encode(), rec_meta["tag"].encode()):
            raise IntegrityError(f"gallery {in_dir}: record {i} ({rec_meta['blob_path']}) does not match its tag")
        sv = deserialize_ciphertext(blob, ctx)
        sv.depth_used = protect_depth(params)
        gallery.append(GalleryRecord(rec_meta["subject_id"], sv, pid, rec_meta["compress_dim"], blob))
    return gallery, params_store, ctx
