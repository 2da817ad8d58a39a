"""Polynomial template protection over sliding windows of an embedding.

An n-dimensional embedding is split into m-wide windows with a configurable
overlap; each window maps to one output value p_j = sum_i coeffs[i] *
window[i]**exps[i], with user-specific nonzero distinct integer coefficients
and exponents a permutation of 1..m.  The encrypted path computes the same
values under the slot contract and packs them into one ciphertext, p_j in
slot j, which is the stored template and what the encrypted cosine scores.

The windows are encrypted column by column (SIMD packing after Smart and
Vercauteren): ciphertext i holds element i of window j in slot j, zeros from
slot k on, so m encryptions hold all k windows and no slot ever has to move.
A user's template is then one weighted sum, sum_i c_i * cts[i]^e_i, with no
fold and no rotation.  Powers come from square-and-multiply, sub-powers
memoized within one call (window_powers takes all a search needs), so a
call's cost depends only on its arguments.  Depth is ceil(log2 m) + 1.

B embeddings of one (m, overlap) are protected as one batch, each row under
its own parameter set and scale (each column ciphertext a B-row batch, see
backend); every row pays the ops it would pay alone, and its template, depth
included, is bit-identical to its own.  Each input shape has one encrypted
path, protect_encrypted's, whoever calls it.

Column i of the windows is one strided slice of the zero-padded input,
elements i, i + stride, ... (stride m - overlap): the encrypted path
encrypts each slice, the clear kernels read each, and chunk_embedding
stacks them into the (k, m) view; nothing is cached between calls.  Clear
powers come from one table built by the multiplication chain the encrypted
side runs, never from pow, so a clear power is the decrypted one bit for bit
on any host with IEEE arithmetic.  template_norms, which enrollment and the
search both scale by, is the one template norm (_columns_and_norm gives its
bits for one embedding, padded once for its norm and its columns); each sums
in one fixed order, so a row's bits do not depend on the rows it came with.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import KW_ONLY, dataclass, field

import numpy as np

from .backend import EncryptionContext, SlotVector, add, encrypt, mult, mult_plain, stack, take
from .errors import CapacityExceeded, InfeasibleParams, InputTooShort, IntegrityError, read_json_object


@dataclass(frozen=True)
class PolyProtectParams:
    """User-specific transform parameters: window width m, overlap, C, E.

    params_id is computed from the values (_params_id), so equal values
    have one id and a set cannot carry another's.  The integer fields,
    coefficients and exponents are stored as Python ints: any integer type
    (numpy's too) is taken by operator.index, and a float or other
    non-integer raises ValueError, so 1 and np.int64(1) give one id and 1.0
    none.  c_range bounds the coefficients: it lies in 1..2**53 (float64
    holds every integer up to it exactly) and no coefficient's magnitude
    exceeds it, or ValueError.
    """

    m: int
    overlap: int
    coeffs: tuple
    exps: tuple
    c_range: int
    _: KW_ONLY
    seed: int | None = None
    params_id: str = field(init=False)

    def __post_init__(self):
        try:
            m, overlap, c_range = map(operator.index, (self.m, self.overlap, self.c_range))
            coeffs, exps = tuple(map(operator.index, self.coeffs)), tuple(map(operator.index, self.exps))
        except TypeError as exc:
            raise ValueError(f"m, overlap, c_range, coeffs and exps must be integers ({exc})") from None
        if m < 2:
            raise ValueError("m must be >= 2")
        if not 0 <= overlap <= m - 1:
            raise ValueError("overlap must be in [0, m-1]")
        if len(coeffs) != m or len(exps) != m:
            raise ValueError("coeffs and exps must have length m")
        if 0 in coeffs or len(set(coeffs)) != m:
            raise ValueError("coefficients must be nonzero and pairwise distinct")
        if set(exps) != set(range(1, m + 1)):
            raise ValueError("exponents must be a permutation of 1..m")
        if not 1 <= c_range <= 2**53:
            raise ValueError(f"c_range must be in 1..2**53, got {c_range}")
        if max(map(abs, coeffs)) > c_range:
            raise ValueError(f"every coefficient must lie in [-c_range, c_range], c_range={c_range}")
        params_id = _params_id(m, overlap, c_range, coeffs, exps)
        self.__dict__.update(m=m, overlap=overlap, c_range=c_range, coeffs=coeffs, exps=exps, params_id=params_id)


def _params_id(m, overlap, c_range, coeffs, exps) -> str:
    # the hash of the JSON text [m, overlap, c_range, [coeffs], [exps]], which
    # str() of the same Python ints spells byte for byte
    canon = str([m, overlap, c_range, [*coeffs], [*exps]]).encode()
    return hashlib.sha256(canon).hexdigest()[:16]


def gen_params(m: int, overlap: int, c_range: int, seed) -> PolyProtectParams:
    """Sample per-user parameters deterministically from a seed.

    Coefficients: m distinct nonzero integers in [-c_range, c_range], c_range
    at most 2**53 (float64 holds each exactly), drawn as positions in that
    pool, which is never built.  Exponents: a permutation of {1..m}.  Both
    come from one default_rng(seed) stream, choice then shuffle, so a seed
    gives the set it always gave, the one every saved gallery holds.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if 2 * c_range < m:
        raise InfeasibleParams(
            f"c_range={c_range} offers only {2 * c_range} distinct nonzero coefficients, need {m}"
        )
    if c_range > 2**53:
        raise InfeasibleParams(f"c_range={c_range} exceeds 2**53, past which float64 cannot hold every coefficient")
    rng = np.random.default_rng(seed)
    # position j of the pool -c_range..-1, 1..c_range, skipping 0
    coeffs = [j - c_range + (j >= c_range) for j in rng.choice(2 * c_range, m, replace=False).tolist()]
    exps = list(range(1, m + 1))
    rng.shuffle(exps)  # the draws permutation(m) makes, on a list
    return PolyProtectParams(m, overlap, coeffs, exps, c_range, seed=seed)


def output_len(n: int, m: int, overlap: int) -> int:
    """Number of windows covering an n-vector: ceil((n-m)/(m-overlap)) + 1."""
    if not 0 <= overlap <= m - 1:
        raise ValueError("overlap must be in [0, m-1]")
    if n < m:
        raise InputTooShort(f"embedding length {n} < window width m={m}")
    stride = m - overlap
    return (n - m + stride - 1) // stride + 1


def _padded(v, m: int, overlap: int) -> tuple:
    # v, one embedding or a (B, n) batch of them, zero-padded along its last
    # axis to cover its windows, and the m column slices into it: column i
    # holds element i of every window, i, i + stride, ... (k of them)
    vals = np.asarray(v, dtype=np.float64)
    if vals.ndim not in (1, 2):
        raise ValueError(f"embedding must be a 1-D array or a (B, n) batch, got shape {vals.shape}")
    n = vals.shape[-1]
    stride = m - overlap
    span = (output_len(n, m, overlap) - 1) * stride + 1
    padded = np.zeros(vals.shape[:-1] + (span + m - 1,), dtype=np.float64)
    padded[..., :n] = vals
    return padded, [slice(i, i + span, stride) for i in range(m)]


def chunk_embedding(v, params: PolyProtectParams) -> np.ndarray:
    """An embedding's k m-wide windows, one per row (tail zero-padded), or
    a (B, n) batch's (B, k, m), row b's windows at b.

    Row j holds elements j * (m - overlap) onward of the padded vector, and
    column i is one strided slice of it; the result is read-only.
    """
    padded, columns = _padded(v, params.m, params.overlap)
    windows = np.stack([padded[..., column] for column in columns], axis=-1)
    windows.flags.writeable = False
    return windows


def _row_sets(params, rows, layout=None) -> tuple:
    # one parameter set per row, as a tuple: one embedding (rows None) takes
    # a set, a batch of B rows a sequence of B sets; every set has the
    # (m, overlap) layout, or the first set's when none is given
    if rows is None and not isinstance(params, PolyProtectParams):
        raise ValueError("one embedding takes one parameter set")
    if rows == 0:
        raise ValueError("a batch needs at least one row")
    if rows is not None and (isinstance(params, PolyProtectParams) or len(params) != rows):
        raise ValueError(f"a batch of {rows} rows takes a sequence of {rows} parameter sets, one per row")
    sets = (params,) if rows is None else tuple(params)
    layout = layout or (sets[0].m, sets[0].overlap)
    if any((p.m, p.overlap) != layout for p in sets):
        raise ValueError(f"every parameter set must have window width and overlap {layout}")
    return sets


def _power_table(padded: np.ndarray, m: int) -> np.ndarray:
    # Powers 1..m of padded, power e at [e - 1], by _pow_ct's balanced split,
    # so a clear power is the encrypted one bit for bit.
    table = np.empty((m,) + padded.shape)
    table[0] = padded
    powers = [None, *table]  # power e at e, a view of table
    for e in range(2, m + 1):
        np.multiply(powers[e // 2], powers[e - e // 2], out=powers[e])
    return table


def _templates(v, overlap: int, exps: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    # The (N, k) clear templates of the sets in the rows of exps and coeffs,
    # applied to v, or row r to v[r] of an (N, n) batch, from the padded rows'
    # _power_table (one embedding is one row), terms added in column order.
    padded, columns = _padded(v, exps.shape[-1], overlap)
    if exps.ndim != 2 or exps.shape != coeffs.shape or padded.ndim == 2 and len(padded) != len(exps):
        raise ValueError(f"an embedding, or a batch of N, takes (N, m) exps and coeffs of one shape, "
                         f"not {exps.shape} and {coeffs.shape} for shape {np.shape(v)}")
    m = len(columns)
    table = _power_table(np.atleast_2d(padded), m)  # power e of row r at [e - 1, r]
    at = exps.astype(np.intp) - 1
    row = np.arange(len(exps)) if padded.ndim == 2 else 0
    templates = table[at[:, 0], row, columns[0]] * coeffs[:, :1]
    for i in range(1, m):
        templates += table[at[:, i], row, columns[i]] * coeffs[:, i : i + 1]
    return templates


def protect_plain(v, params) -> np.ndarray:
    """Apply the window polynomial in the clear: the k template values.

    One embedding takes one parameter set.  A (B, n) batch takes a sequence
    of B sets of one (m, overlap), row b's at b, and gives a (B, k) array
    whose row b is bit-identical to protect_plain(v[b], its set).
    """
    rows = len(v) if np.ndim(v) == 2 else None
    sets = _row_sets(params, rows)
    exps, coeffs = (np.array([getattr(p, name) for p in sets], dtype=np.float64) for name in ("exps", "coeffs"))
    return _templates(v, sets[0].overlap, exps, coeffs).reshape(np.shape(v)[:-1] + (-1,))


def template_norms(v, overlap: int, exps: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """||protect_plain(x, p)|| for the N sets p of this overlap in the rows of
    the (N, m) arrays exps and coeffs, x being v, or v[r] of an (N, n) batch.

    Enrollment and the search both scale by it.  Squares are summed in
    numpy's pairwise order over one contiguous row, with no BLAS, so a row's
    norm does not depend on N or on its place in the batch.  A row of exps
    that is not a permutation of 1..m raises ValueError."""
    m = exps.shape[-1]
    if not (np.sort(exps, axis=-1) == np.arange(1, m + 1)).all():
        raise ValueError(f"every row of exps must be a permutation of 1..{m}")
    templates = np.ascontiguousarray(_templates(v, overlap, exps, coeffs))
    return np.sqrt(np.add.reduce(templates * templates, axis=-1))


def _columns_and_norm(x, params: PolyProtectParams) -> tuple:
    # One embedding's m window columns, padded once, and its template_norms
    # under one set, bit for bit, as a one-element array: _templates' power
    # table, products and column order, column i's power read by slicing.
    padded, columns = _padded(x, params.m, params.overlap)
    table = _power_table(padded, params.m)
    template = table[params.exps[0] - 1, columns[0]] * params.coeffs[0]
    for column, e, c in zip(columns[1:], params.exps[1:], params.coeffs[1:]):
        template += table[e - 1, column] * c  # in column order, as _templates adds
    template *= template  # summed as template_norms sums one contiguous row
    return [padded[column] for column in columns], np.sqrt(np.add.reduce(template, keepdims=True))


def _pow_ct(sv: SlotVector, e: int, memo: dict) -> SlotVector:
    # Balanced split keeps depth at exactly ceil(log2 e); memo shares
    # sub-powers across the exponents one call asks of one column ciphertext.
    if e == 1:
        return sv
    got = memo.get(e)
    if got is not None:
        return got
    half = e // 2
    out = mult(_pow_ct(sv, half, memo), _pow_ct(sv, e - half, memo))
    memo[e] = out
    return out


@dataclass(frozen=True)
class EncryptedWindows:
    """An embedding's k windows as m encrypted columns.

    cts[i] holds element i of window j in slot j for j < k and zeros after;
    for a batch of B embeddings it is a B-row batch, row b embedding b's,
    so the row count is the columns' own (cts[0].rows, None for one
    embedding).  The value holds no computed powers: every call on it pays
    for the powers it needs.
    """

    cts: tuple
    k: int
    m: int
    overlap: int

    def __len__(self) -> int:
        return self.k


def encrypt_windows(v, params: PolyProtectParams, ctx: EncryptionContext, copies: int = 1) -> EncryptedWindows:
    """Encrypt the m columns of v's (k, m) window matrix: m encryptions.  A
    (B, n) batch of embeddings gives m B-row batches, m encryptions per
    embedding.

    copies > 1 repeats each column every capacity // copies slots, so every
    power and weighted sum of the columns is computed in each block at once.
    """
    padded, columns = _padded(v, params.m, params.overlap)
    return _encrypt_columns([padded[..., column] for column in columns], params, ctx, copies)


def _encrypt_columns(columns, params: PolyProtectParams, ctx: EncryptionContext, copies: int = 1) -> EncryptedWindows:
    # encrypt_windows of the m window columns, (k,) each or (B, k) for a batch
    k = columns[0].shape[-1]
    cap = ctx.slot_capacity
    if k > cap // copies:
        raise CapacityExceeded(f"{k} windows do not fit slot capacity {cap}" + (f" {copies} times" if copies > 1 else ""))
    if copies > 1:  # each column again every capacity // copies slots
        blocks = np.zeros((params.m,) + columns[0].shape[:-1] + (copies, cap // copies), dtype=np.float64)
        for block, column in zip(blocks, columns):
            block[..., :k] = column[..., None, :]
        columns = blocks.reshape(blocks.shape[:-2] + (-1,))
    cts = tuple([encrypt(column, ctx) for column in columns])  # encrypt zero-pads to capacity
    return EncryptedWindows(cts, k, params.m, params.overlap)


def window_powers(windows: EncryptedWindows, pairs) -> list:
    """cts[i]^e for each (column i, exponent e) in pairs; the pairs on one
    column share their sub-powers, memoized for this call only."""
    memos = [{} for _ in windows.cts]
    return [_pow_ct(windows.cts[i], e, memos[i]) for i, e in pairs]


def pack_template(terms, weights) -> SlotVector:
    """The weighted sum sum_i mult_plain(terms[i], weights[i]): one
    plaintext mult per term.  A weight is a scalar or a plaintext of a shape
    mult_plain takes (for a batch, a (B, 1) column gives each row its own);
    a caller that scales the sum folds its scale into the weights."""
    acc = None
    for term, weight in zip(terms, weights):
        weighted = mult_plain(term, weight)
        acc = weighted if acc is None else add(acc, weighted)
    return acc


def _column_power(ct: SlotVector, exps: tuple) -> SlotVector:
    # Row b of the batch ct raised to exps[b]; rows that share an exponent
    # share one _pow_ct chain, so each row pays the mults of its own chain.
    groups = {}
    for b, e in enumerate(exps):
        groups.setdefault(e, []).append(b)
    powered = stack([_pow_ct(take(ct, rows), e, {}) for e, rows in groups.items()])
    return take(powered, np.argsort(np.concatenate(list(groups.values()))))


def protect_encrypted(windows: EncryptedWindows, params, scale=1.0) -> SlotVector:
    """Apply the window polynomial to encrypted window columns.

    Returns the packed template: scale * p_j in slot j for j < k, zeros from
    slot k on, at depth protect_depth(params) above the windows.  It builds
    the powers cts[i]^exps[i] it needs and keeps none, so its cost depends
    only on its arguments.

    The windows of one embedding take one parameter set and one scale: one
    power chain per column, weighted by c_i * scale, no batch bookkeeping.
    The windows of a batch of B embeddings take B sets, row b's at b, and a
    scalar or B scales, and give a B-row batch of templates, each row
    bit-identical to its own call, depth and cost included.
    """
    rows = windows.cts[0].rows
    layout = (windows.m, windows.overlap)
    if rows is None and isinstance(params, PolyProtectParams) and (params.m, params.overlap) == layout:
        powers = [_pow_ct(ct, e, {}) for ct, e in zip(windows.cts, params.exps)]
        return pack_template(powers, [c * scale for c in params.coeffs])
    sets = _row_sets(params, rows, layout)  # refuses one embedding that the branch above did not take
    terms = [_column_power(ct, exps) for ct, exps in zip(windows.cts, zip(*(p.exps for p in sets)))]
    # row b's weights, its coefficients times its scale: a (B, 1) column per term
    scales = np.asarray(scale, dtype=np.float64).reshape(-1, 1)
    weights = np.array([p.coeffs for p in sets], dtype=np.float64) * scales
    return pack_template(terms, weights.T[:, :, None])


def protect_depth(params: PolyProtectParams) -> int:
    """Depth of protect_encrypted's template on top of its windows' depth:
    power chain to exponent m, coefficient; ceil(log2 m) + 1."""
    return (params.m - 1).bit_length() + 1


def template_correlation(a, b) -> float:
    """Pearson correlation between two plaintext templates (unlinkability probe)."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if len(x) != len(y):
        raise ValueError("templates must have equal length to correlate")
    return float(np.corrcoef(x, y)[0, 1])


# --- statistics used for public scale calibration ----------------------------


def _sphere_even_moment(power: int, dim: int) -> float:
    # E[v_i^{2r}] for v uniform on the unit sphere: prod_{t<r} (2t+1)/(dim+2t).
    r = power // 2
    out = 1.0
    for t in range(r):
        out *= (2 * t + 1) / (dim + 2 * t)
    return out


def expected_template_norm(params: PolyProtectParams, n: int) -> float:
    """Estimate ||p|| for unit-norm inputs of length n, from public data only.

    Treats coordinates as approximately independent sphere coordinates.  The
    search no longer uses it (templates carry their exact norm, see
    template_norms); it sizes the inverse-sqrt fit domain that perfbench's
    domain-margin figures are measured against.
    """
    second = 0.0
    mean = 0.0
    for c, e in zip(params.coeffs, params.exps):
        second += c * c * _sphere_even_moment(2 * e, n)
        if e % 2 == 0:
            mean += c * _sphere_even_moment(e, n)
            second -= (c * _sphere_even_moment(e, n)) ** 2
    second += mean * mean
    k = output_len(n, params.m, params.overlap)
    return math.sqrt(max(k * second, 1e-300))


# --- params persistence -------------------------------------------------------


def save_params(params: PolyProtectParams, path):
    d = {
        "m": params.m,
        "overlap": params.overlap,
        "c_range": params.c_range,
        "coeffs": list(params.coeffs),
        "exps": list(params.exps),
        "params_id": params.params_id,
        "seed": params.seed,
    }
    with open(path, "w") as f:
        json.dump(d, f, indent=2)


_PARAMS_KEYS = {"m": int, "overlap": int, "c_range": int, "coeffs": list, "exps": list, "params_id": str}


def load_params(path) -> PolyProtectParams:
    """Read a params file that save_params wrote.

    A file that is not valid JSON, lacks a key, holds a value of the wrong
    type, has a params_id other than the hash of its values, or holds values
    that PolyProtectParams rejects raises IntegrityError naming the file.
    """
    d = read_json_object(path, _PARAMS_KEYS, f"params file {path}")
    if any(type(x) is not int for x in d["coeffs"] + d["exps"]):
        raise IntegrityError(f"params file {path} needs 'coeffs' and 'exps' as lists of JSON ints")
    try:
        params = PolyProtectParams(
            d["m"], d["overlap"], tuple(d["coeffs"]), tuple(d["exps"]), d["c_range"], seed=d.get("seed")
        )
    except ValueError as exc:
        raise IntegrityError(f"params file {path} holds invalid parameters ({exc})") from None
    if d["params_id"] != params.params_id:
        raise IntegrityError(
            f"params file {path} holds params_id {d['params_id']!r}, not the hash of its values, {params.params_id!r}"
        )
    return params
