"""End-to-end 1:N identification: compress -> encrypt -> protect -> search.

Synthetic labeled datasets stand in for real face-embedding corpora: per-
identity Gaussian clusters on the unit sphere, with a configurable fraction
of coordinates carrying attribute-aligned mean shifts so attribute
classifiers have something to find.

A gallery record holds its template directly: one packed ciphertext, built at
enrollment by the same encrypted transform that a search applies to the probe.
The key holder scales each packed template, in the clear, by 1/||p|| for its
exact plaintext template p, from template_norms on both sides, so every stored
or searched template has unit norm, an embedding gets one scale, bit for bit,
as a record and as a probe, and a comparison's cosine is one product folded
into slot 0 (Boddeti, BTAS 2018): ceil(log2 k) rotations, one ciphertext mult,
no inverse square root.  The scale is a plaintext per template, folded into
the coefficient mults, so nothing new leaves the key holder and no ciphertext
carries its template's norm.

Protection parameters are per user, so a 1:N search protects the probe under
each record's own parameters.  Templates are searched packed (HERS,
Engelsma, Jain and Boddeti, T-BIOM 2022): build_gallery and load_gallery put
B = capacity // W consecutive records of each (compress_dim, m, overlap)
group in one ciphertext, W = 2^ceil(log2 k), record b rotated right by b W:
N - packs rotations per build or load, by offsets capacity - b W that a real
backend needs Galois keys for (one more, 64, at the default config, where
B = 2).  A (B, n) batch, build_gallery's up to _PROTECT_ROWS records, one
set per row, and one embedding, enroll's and the leakage suite's, each take
protect_encrypted's one path for their shape; one embedding is padded once,
for its scale and its encrypted columns.  enroll builds its record's pack
of one with TemplatePack; build_gallery and load_gallery lay their records
out in packs once, by layout (_pack_gallery).  Every record is made in its
pack, so the search reads parameters from the packs and takes no params
store.  A pack keeps its records' parameters once, as read-only exponent
and coefficient rows by record (TemplatePack).  The probe's windows are
encrypted once per group as m column ciphertexts copied into every block,
all m^2 column powers 1..m are computed once (m (m - 1) ct mults, whatever
exponents the records use), the template norms of every listed record come
from one call, and the terms and weights of all records, record by record,
from the group's rows at once.  Each pack then pays one plaintext mult per
column of each of its records (m per record: records that share a
(column, exponent) pair are not merged), one product and one fold, so a
search's cost depends only on m and the gallery's shape.  Record b's score
is slot b W, bit-identical to a pack of one's, and a group's scores are read
with one decrypt of its packs' stacked products.  Per comparison at the
default config and N = 200: 3 rotations, 0.6 ct-ct mults, 5 plaintext
mults, 0.025 encryptions (6, 1.1, 5 and 0.025 unpacked).  The comparison
adds one level to protect_depth (5 at the default config).

Gallery format version 3: manifest.json, one masked ciphertext blob per
record (its own template, not its pack), and one params file per parameter
set the records use.  Each record in the manifest carries an HMAC-SHA256
tag, keyed from the context's masking seed, over its ids and its blob
(header and payload); a load that finds a record whose tag does not match
raises IntegrityError.
"""

from __future__ import annotations

import csv
import hashlib
import hmac
import json
import math
import re
import stat
from dataclasses import InitVar, dataclass, field
from pathlib import Path

import numpy as np

from .backend import HEADER_LEN, EncryptionContext, SlotVector, add, decrypt, rotate_left, stack, take
from .backend import deserialize_ciphertext, serialize_ciphertext
from .errors import (
    EmptyDataset,
    EmptyGallery,
    IntegrityError,
    MalformedDataset,
    UnknownParamsId,
    ZeroPrefix,
    ZeroVector,
    check_json_object,
    read_json_object,
)
from .invsqrt import fit_inv_sqrt
from .polyprotect import _columns_and_norm, _encrypt_columns
from .polyprotect import (
    PolyProtectParams,
    encrypt_windows,
    gen_params,
    load_params,
    output_len,
    pack_template,
    protect_depth,
    protect_encrypted,
    protect_plain,
    save_params,
    template_norms,
    window_powers,
)
from .similarity import NormalizationPlan, cosine_plain, cosine_unit_encrypted

ATTRIBUTE_CLASSES = {
    "gender": ("female", "male"),
    "age_band": ("0-22", "23-40", "41-59", "60+"),
    "ethnicity": ("hispanic", "white", "black", "asian"),
}


@dataclass(frozen=True)
class Embedding:
    """A labeled embedding vector, held as a contiguous float64 array."""

    values: np.ndarray
    subject_id: str
    attributes: dict

    def __post_init__(self):
        object.__setattr__(self, "values", np.ascontiguousarray(self.values, dtype=np.float64))


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
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not (math.isfinite(self.class_separation) and self.class_separation > 0):
            raise ValueError(f"class_separation must be positive and finite, got {self.class_separation}")
        if not 0.0 <= self.attribute_correlation <= 1.0:
            raise ValueError("attribute_correlation must be in [0, 1]")


@dataclass(eq=False)
class TemplatePack:
    """The templates of up to capacity // width records of one layout in one
    ciphertext, record b's rotated right by b * width into slots
    [b * width, b * width + k), width = 2^ceil(log2 k).

    Built from the records' templates, compress dim and parameter sets by
    block; the ciphertext and the rows identify reads of the gallery side
    are derived here, once, and kept read-only: exps[b] and coeffs[b] are
    record b's exponents and coefficients, (n, m) for n records.
    """

    templates: InitVar[tuple]  # record b's template at b
    compress_dim: int
    params: tuple  # record b's PolyProtectParams at b
    ciphertext: SlotVector = field(init=False)
    width: int = field(init=False)
    exps: np.ndarray = field(init=False, repr=False)
    coeffs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, templates):
        self.width = width = 1 << (output_len(*self.layout) - 1).bit_length()
        cap = templates[0].ctx.slot_capacity
        self.ciphertext = templates[0]
        for b, template in enumerate(templates[1:], 1):
            self.ciphertext = add(self.ciphertext, rotate_left(template, cap - b * width))
        self.exps = np.array([p.exps for p in self.params], dtype=np.int64)
        self.coeffs = np.array([p.coeffs for p in self.params], dtype=np.float64)
        self.exps.flags.writeable = self.coeffs.flags.writeable = False

    @property
    def layout(self) -> tuple:
        """(compress_dim, m, overlap) of every record in the pack."""
        return self.compress_dim, self.params[0].m, self.params[0].overlap


@dataclass
class GalleryRecord:
    """One enrolled subject: its template, p_j / ||p|| in slot j, and the pack that holds it at block."""

    subject_id: str
    template: SlotVector
    pack: TemplatePack = field(repr=False, compare=False)
    block: int = field(compare=False)
    blob: bytes = field(default=None, repr=False, compare=False)  # the template as saved or loaded

    @property
    def params(self) -> PolyProtectParams:
        return self.pack.params[self.block]

    @property
    def params_id(self) -> str:
        return self.params.params_id

    @property
    def compress_dim(self) -> int:
        return self.pack.compress_dim


_ATTR_SHIFT = 2.5


def gen_synthetic_dataset(spec: SyntheticSpec) -> list:
    """Per-identity Gaussian clusters on the unit sphere with attribute shifts.

    A fraction `attribute_correlation` of coordinates is partitioned among the
    three attributes; each attribute class adds a fixed pattern on its block
    to the identity center, so classifiers can recover labels across
    identities.  attribute_correlation = 0 leaves labels independent of the
    embedding.

    Every seed's corpus, and so every pinned gallery and leakage CSV, rests
    on the draw order: the coordinate permutation and the class patterns,
    then per identity its three labels, its center (`dim` normals) and one
    (samples_per_id, dim) block of noise, which reads the stream as
    samples_per_id draws of `dim` would.  A sample is its noise row plus
    class_separation * center, and its norm is the square root of its row's
    dot product, `np.linalg.norm` of the row bit for bit; every norm comes
    from one stacked product over the corpus, and each identity's unit
    samples are the rows of an array of their own.  A sample whose norm
    overflows or is zero raises ValueError naming the first such sample.
    """
    rng = np.random.default_rng(spec.seed)
    dim, per_id = spec.dim, spec.samples_per_id
    n_attr = int(round(spec.attribute_correlation * dim))
    coords = rng.permutation(dim)[:n_attr]
    blocks = {}
    start = 0
    for i, attr in enumerate(ATTRIBUTE_CLASSES):
        size = n_attr // 3 + (1 if i < n_attr % 3 else 0)
        blocks[attr] = coords[start : start + size]
        start += size
    shifts = {
        attr: {cls: _ATTR_SHIFT * rng.normal(0.0, 1.0, len(blocks[attr])) for cls in classes}
        for attr, classes in ATTRIBUTE_CLASSES.items()
    }

    values = np.empty((spec.num_ids * per_id, dim))
    ids = []
    with np.errstate(over="ignore"):  # a norm that overflows is the error raised below
        for i in range(spec.num_ids):
            labels = {attr: classes[rng.integers(len(classes))] for attr, classes in ATTRIBUTE_CLASSES.items()}
            center = rng.normal(0.0, 1.0, dim)
            for attr, block in blocks.items():
                if len(block):
                    center[block] += shifts[attr][labels[attr]]
            center /= math.sqrt(center.dot(center))  # np.linalg.norm's own formula
            samples = rng.normal(0.0, 1.0, (per_id, dim))
            np.add(samples, spec.class_separation * center, out=values[i * per_id : (i + 1) * per_id])
            ids.append((f"id{i:04d}", labels))
        norms = np.sqrt((values[:, None, :] @ values[:, :, None])[:, 0, 0])
    ok = (norms > 0.0) & (norms < math.inf)
    if not ok.all():
        bad = int(ok.argmin())  # the first failing sample
        raise ValueError(f"sample {bad} has norm {norms[bad]} at class_separation {spec.class_separation}")
    # each identity's unit samples are a block of their own, so a sample
    # that is kept keeps only its identity's block, not the whole corpus
    norms = norms[:, None]
    return [
        Embedding(x, sid, dict(labels))
        for i, (sid, labels) in enumerate(ids)
        for x in values[i * per_id : (i + 1) * per_id] / norms[i * per_id : (i + 1) * per_id]
    ]


def compress_prefix(e: Embedding, d: int) -> np.ndarray:
    """The first d coordinates of e, renormalized to unit length.

    Assumes nested-prefix embeddings; training such embeddings is upstream of
    this library.  A finite, nonzero prefix whose squares underflow or
    overflow is first scaled by its largest magnitude; a NaN or inf
    coordinate raises ValueError and the zero prefix ZeroPrefix.
    """
    if not 1 <= d <= len(e.values):
        raise ValueError(f"compress dim {d} outside 1..{len(e.values)}")
    prefix = e.values[:d]
    # np.linalg.norm's own formula on a contiguous vector, bit for bit; vdot
    # raises no warning when the squares overflow, which is handled here
    norm = math.sqrt(np.vdot(prefix, prefix))
    if (norm == 0.0 or norm == math.inf) and np.isfinite(prefix).all() and prefix.any():
        # finite and nonzero, but its squares underflow or overflow
        prefix = prefix / np.abs(prefix).max()
        norm = math.sqrt(np.vdot(prefix, prefix))
    if not math.isfinite(norm):
        raise ValueError(f"prefix of {d} coordinates has norm {norm}: a coordinate is NaN or inf")
    if norm == 0.0:
        raise ZeroPrefix("prefix is the zero vector; cannot renormalize")
    return prefix / norm


def _unit_scales(norms):
    """1 / norm for an array of template norms; a zero or NaN norm raises ZeroVector."""
    if not norms.min() > 0.0:
        raise ZeroVector("protected template is the zero vector; its cosine is undefined")
    return 1.0 / norms


def _protect(x, params, ctx: EncryptionContext) -> SlotVector:
    # encrypt -> protect x under its set, or each row of a (B, n) batch under
    # its own of B sets, scaled to unit norm as the search scales a probe; one
    # embedding is padded once, for its norm and for its encrypted columns
    if np.ndim(x) != 1:
        exps, coeffs = (np.array([getattr(p, name) for p in params], dtype=np.float64) for name in ("exps", "coeffs"))
        scales = _unit_scales(template_norms(x, params[0].overlap, exps, coeffs))
        return protect_encrypted(encrypt_windows(x, params[0], ctx), params, scales)
    if not isinstance(params, PolyProtectParams):
        raise ValueError("one embedding takes one parameter set")
    columns, norm = _columns_and_norm(x, params)
    scale = _unit_scales(norm)[0]  # a zero template is refused before anything is encrypted
    return protect_encrypted(_encrypt_columns(columns, params, ctx), params, scale)


def enroll(e: Embedding, params: PolyProtectParams, ctx: EncryptionContext, d: int) -> GalleryRecord:
    """compress -> encrypt -> protect -> pack, scaled to unit norm by the
    exact template norm; returns the persistable record, a pack of one."""
    template = _protect(compress_prefix(e, d), params, ctx)
    return GalleryRecord(e.subject_id, template, TemplatePack((template,), d, (params,)), 0)


def _pack_gallery(entries: list, ctx: EncryptionContext) -> list:
    """The GalleryRecords of entries, (subject_id, template, params,
    compress_dim, blob) each, in order: each layout group's records put in
    TemplatePacks, capacity // W consecutive records each, at a cost of
    len(entries) - packs rotations."""
    groups = {}
    for i, (_, _, params, d, _) in enumerate(entries):
        groups.setdefault((d, params.m, params.overlap), []).append(i)
    records = [None] * len(entries)
    for layout, members in groups.items():
        per_pack = ctx.slot_capacity >> (output_len(*layout) - 1).bit_length()
        for start in range(0, len(members), per_pack):
            chunk = members[start : start + per_pack]
            pack = TemplatePack(tuple(entries[i][1] for i in chunk), layout[0], tuple(entries[i][2] for i in chunk))
            for b, i in enumerate(chunk):
                subject_id, template, _, _, blob = entries[i]
                records[i] = GalleryRecord(subject_id, template, pack, b, blob)
    return records


# How far the cosine of two unit-norm templates may stray past [-1, 1] by
# rounding alone.
_SCORE_ROUNDING = 1e-9


# numpy's float warnings are off once per call, not per backend op: the inf
# or NaN a tampered record carries reaches the range check, IntegrityError
@np.errstate(invalid="ignore", over="ignore")
def identify(probe: Embedding, gallery: list, ctx: EncryptionContext) -> list:
    """Encrypted 1:N search: (subject_id, score) sorted by descending score.

    The probe is protected under each record's own parameters, its pack's,
    scaled to unit norm, and scored against the record's unit-norm template,
    per pack (see the module docstring): the probe's templates for all the
    pack's blocks are one weighted sum of its m^2 column powers, built once
    per layout group: the pack's term b * m + i, record b's at column i, is
    column i raised to its exponent, weighted by its coefficient times its
    probe scale over block b's slots and zeros elsewhere, the scale 0 for a
    record gallery does not list.  Each layout group's products are decrypted
    as one stack.  A record listed twice is scored twice.  Ties break by
    subject_id for a stable order.  A decrypted score that is not finite, or
    lies outside [-1, 1] by more than rounding, raises IntegrityError naming
    the first such record: both templates have unit norm, so such a score
    means a record's ciphertext is not what enrollment stored.
    """
    if not gallery:
        raise ValueError("identify needs a nonempty gallery")
    packs = {}  # pack -> the indices of its listed records
    for i, rec in enumerate(gallery):
        packs.setdefault(rec.pack, []).append(i)
    layouts = {}  # layout -> [(pack, its listed records)]
    for pack, pack_listed in packs.items():
        layouts.setdefault(pack.layout, []).append((pack, pack_listed))
    cap = ctx.slot_capacity
    scores = np.empty(len(gallery))
    for (d, m, overlap), group in layouts.items():
        v = compress_prefix(probe, d)
        width = group[0][0].width
        blocks = cap // width
        windows = encrypt_windows(v, group[0][0].params[0], ctx, blocks)
        listed = [i for _, pack_listed in group for i in pack_listed]
        # row r of the group is record r, pack after pack: pack p's records
        # are rows starts[p]:starts[p + 1], its record b row starts[p] + b
        starts = np.cumsum([0] + [len(pack.params) for pack, _ in group])
        listed_rows = np.array([s + gallery[i].block for s, (_, on) in zip(starts.tolist(), group) for i in on])
        row_pack = np.repeat(np.arange(len(group)), np.diff(starts))
        row_block = np.arange(starts[-1]) - starts[row_pack]
        exps = np.concatenate([pack.exps for pack, _ in group])
        coeffs = np.concatenate([pack.coeffs for pack, _ in group])
        scales = np.zeros(len(exps))
        scales[listed_rows] = _unit_scales(template_norms(v, overlap, exps[listed_rows], coeffs[listed_rows]))
        # term r * m + i is record r's at column i: column i ** e_ri, weighted
        # by c_ri times the record's probe scale over its own block's slots
        weights = np.zeros((len(exps), m, blocks, width))
        weights[np.arange(len(exps)), :, row_block] = (coeffs * scales[:, None])[..., None]
        weights = weights.reshape(len(exps) * m, cap)
        # every column's powers 1..m
        powers = [None] * m + window_powers(windows, [(key % m, key // m) for key in range(m, m * m + m)])
        terms = [powers[key] for key in (exps * m + np.arange(m)).ravel().tolist()]
        products = []
        for (pack, _), s, e in zip(group, starts[:-1].tolist(), starts[1:].tolist()):
            probe_ct = pack_template(terms[m * s : m * e], weights[m * s : m * e])
            products.append(cosine_unit_encrypted(pack.ciphertext, probe_ct, windows.k))
        scores[listed] = decrypt(stack(products), ctx)[:, ::width][row_pack, row_block][listed_rows]
    bad = ~(np.abs(scores) <= 1.0 + _SCORE_ROUNDING)  # NaN fails the comparison too
    if bad.any():
        i = int(np.argmax(bad))
        raise IntegrityError(
            f"record {i} (subject {gallery[i].subject_id}) scores {scores[i]}, "
            "not the cosine of two unit-norm templates"
        )
    ranked = sorted(zip((-scores).tolist(), [rec.subject_id for rec in gallery]))
    return [(subject_id, -score) for score, subject_id in ranked]


def identify_plain(probe: Embedding, enrollees: list, params_list: list, d: int) -> list:
    """Plaintext oracle for identify, enrollees[i] enrolled under params_list[i]
    at compress dim d: protect_plain of both sides, scored by cosine_plain."""
    if not enrollees:
        raise ValueError("identify needs a nonempty gallery")
    if len(params_list) != len(enrollees):
        raise ValueError(f"{len(params_list)} parameter sets for {len(enrollees)} enrollees")
    v = compress_prefix(probe, d)
    scores = [
        (e.subject_id, cosine_plain(protect_plain(v, params), protect_plain(compress_prefix(e, d), params)))
        for e, params in zip(enrollees, params_list)
    ]
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
    seed: int = 0


class Pipeline:
    """Holds one run's context, the params store that save_gallery checks
    the records against, and a normalization plan and inverse-sqrt fit.

    The search scores exact unit-norm templates and uses neither plan nor
    fit.  They size similarity.cosine_encrypted for templates scaled by
    polyprotect.expected_template_norm, the domain perfbench's margin
    figures are measured against, and are the same for every config: a
    bound of 4/sqrt(k) per element gives c_bound = k (4/sqrt(k))^2 = 16
    whatever k is, and the degree-16 fit spans 8x either side of 1/d_bound.
    """

    plan = NormalizationPlan(16.0)
    approx = fit_inv_sqrt(16, (1.0 / (8.0 * plan.d_bound), 8.0 / plan.d_bound))

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self.ctx = EncryptionContext(
            cfg.slot_capacity, cfg.depth_budget, key_id=f"pipeline-{cfg.seed}", nonce_seed=cfg.seed
        )
        self.params_store: dict = {}

    def gen_user_params(self, index: int) -> PolyProtectParams:
        params = gen_params(self.cfg.m, self.cfg.overlap, self.cfg.c_range, seed=[self.cfg.seed, index])
        self.params_store[params.params_id] = params
        return params

    def enroll(self, e: Embedding, params: PolyProtectParams) -> GalleryRecord:
        return enroll(e, params, self.ctx, self.cfg.compress_dim)

    def identify(self, probe: Embedding, gallery: list) -> list:
        return identify(probe, gallery, self.ctx)


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


# build_gallery protects its records, and the leakage suite and ablation
# sweep their clear templates, in batches of at most this many rows, which
# bounds a batch's working set (m column batches or power tables, and the
# weighted terms) whatever the number of rows
_PROTECT_ROWS = 256


def build_gallery(dataset: list, pipeline: Pipeline) -> tuple:
    """Enroll the per-identity split; returns (gallery, probes)."""
    enrollees, probes = enroll_split(dataset)
    d, ctx = pipeline.cfg.compress_dim, pipeline.ctx
    params = [pipeline.gen_user_params(i) for i in range(len(enrollees))]
    templates = []
    for i in range(0, len(enrollees), _PROTECT_ROWS):
        x = np.array([compress_prefix(e, d) for e in enrollees[i : i + _PROTECT_ROWS]])
        batch = _protect(x, params[i : i + _PROTECT_ROWS], ctx)
        templates += [take(batch, b) for b in range(len(x))]
    entries = [(e.subject_id, t, p, d, None) for e, t, p in zip(enrollees, templates, params)]
    return _pack_gallery(entries, ctx), probes


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
    """CSV with columns id,gender,age_band,ethnicity,v0..v{dim-1}; an empty
    dataset raises EmptyDataset before the file is opened."""
    if not dataset:
        raise EmptyDataset(f"save_dataset needs at least one sample for {path}")
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
    differs from the header's, whose values are not finite numbers, or that
    the csv module cannot read (a field past its size limit, say, header
    included), raises MalformedDataset naming the file and line.
    """
    out = []
    with open(path, newline="") as f:
        r = csv.reader(f)
        try:
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
        except csv.Error as exc:
            raise MalformedDataset(f"{path}, line {r.line_num}: {exc}") from None
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
    JSON of each record's own parameter set (and no other).  Blobs and
    params files that an earlier save left in out_dir and this manifest does
    not name are removed; nothing else in out_dir is touched.

    Each manifest record carries its blob's tag.  Records loaded from disk
    keep their original blob bytes, so a save -> load -> save round trip is
    bit-identical (re-serializing would draw fresh nonces).  Every record is
    checked and serialized before anything is written: an empty gallery
    raises EmptyGallery, a record whose values params_store does not hold
    under its id UnknownParamsId, one whose template is under another key
    KeyMismatch, and each leaves a gallery already in out_dir intact.
    """
    if not gallery:
        raise EmptyGallery("save_gallery needs a nonempty gallery")
    for rec in gallery:
        if getattr(params_store.get(rec.params_id), "params_id", None) != rec.params_id:  # the seed plays no part
            raise UnknownParamsId(f"no parameters stored for params_id {rec.params_id}, or other ones")
        if rec.blob is None:
            rec.blob = serialize_ciphertext(rec.template, ctx)
    out = Path(out_dir)
    (out / "blobs").mkdir(parents=True, exist_ok=True)
    (out / "params").mkdir(exist_ok=True)
    records_meta = []
    named = set()
    for i, rec in enumerate(gallery):
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
    for pid, params in {rec.params_id: rec.params for rec in gallery}.items():
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
    """manifest.json of a version-3 gallery, its shape and params ids checked."""
    manifest = read_json_object(src / "manifest.json", {"version": int}, f"gallery {src}: manifest")
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
        pid = rec_meta["params_id"]
        if not re.fullmatch("[0-9a-f]{16}", pid):
            raise IntegrityError(f"gallery {src}: record {i} has params_id {pid!r}, not 16 lowercase hex digits")
    return manifest


def load_gallery(in_dir, ctx: EncryptionContext = None) -> tuple:
    """Read a saved gallery; returns (gallery, params_store, ctx).

    Blob bytes are kept on each record so a subsequent save is bit-identical.
    Ciphertext depth is not on the wire; it is restored from the protection
    parameters that produced each template.  Only the params files the
    manifest's records name are read.  A manifest that is not valid JSON,
    lacks a key, holds a value of the wrong type or a params_id that is not
    16 lowercase hex digits, or has a format version other than 3 raises
    IntegrityError before any params file is opened; one with no records
    raises EmptyGallery.  Record i's blob must be blobs/<i>.ct, a regular
    file of exactly HEADER_LEN + 8 x slot_capacity bytes, checked before it
    is opened; anything else raises IntegrityError.  A blob whose tag does
    not match raises IntegrityError, as does a params file that load_params
    rejects or whose params_id is not its file name, or a record whose
    compress_dim is below its m or gives more windows than the slot capacity.
    A record whose params file is missing raises UnknownParamsId.
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
    blob_len = HEADER_LEN + 8 * meta["slot_capacity"]
    params_store = {}
    entries = []
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
        d = rec_meta["compress_dim"]
        if d < params.m or output_len(d, params.m, params.overlap) > ctx.slot_capacity:
            raise IntegrityError(
                f"gallery {in_dir}: record {i} has compress_dim {d}, which needs to be at least m={params.m} "
                f"and give at most {ctx.slot_capacity} windows"
            )
        blob_path = rec_meta["blob_path"]
        if blob_path != f"blobs/{i}.ct":
            raise IntegrityError(f"gallery {in_dir}: record {i} names blob {blob_path!r}; it must be blobs/{i}.ct")
        try:
            info = (src / blob_path).stat()
        except (FileNotFoundError, NotADirectoryError):
            info = None
        if info is None or not stat.S_ISREG(info.st_mode) or info.st_size != blob_len:
            raise IntegrityError(f"gallery {in_dir}: {blob_path} is not a regular file of {blob_len} bytes")
        blob = (src / blob_path).read_bytes()
        tag = _record_tag(rec_meta["subject_id"], pid, d, blob, ctx)
        if not hmac.compare_digest(tag.encode(), rec_meta["tag"].encode()):
            raise IntegrityError(f"gallery {in_dir}: record {i} ({blob_path}) does not match its tag")
        sv = deserialize_ciphertext(blob, ctx, protect_depth(params))
        entries.append((rec_meta["subject_id"], sv, params, d, blob))
    return _pack_gallery(entries, ctx), params_store, ctx
