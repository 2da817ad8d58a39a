"""Polynomial template protection over sliding windows of an embedding.

An n-dimensional embedding is split into m-wide windows with a configurable
overlap; each window maps to one output value p_j = sum_i coeffs[i] *
window[i]**exps[i], with user-specific nonzero distinct integer coefficients
and distinct positive exponents.  The encrypted path computes the same values
under the slot contract and packs them into one ciphertext, p_j in slot j,
which is the stored template and what the encrypted cosine scores.

The windows are encrypted column by column (SIMD packing after Smart and
Vercauteren): ciphertext i holds element i of window j in slot j, zeros from
slot k on, so m encryptions hold all k windows and no slot ever has to move.
A user's template is then one weighted sum, sum_i c_i * cts[i]^e_i: p_j in
slot j, zeros from slot k on, no fold and no rotation.  Each power comes
from square-and-multiply with sub-powers memoized on the windows, so every
parameter set with the same (m, overlap) shares them.  Depth is
ceil(log2 max_exp) + 1 (power chain, coefficient).

In the clear, an embedding's windows are one gather through a read-only
index built once per (n, m, overlap).  template_norms takes the parameter
sets as stacked (N, m) exponent and coefficient rows, which a search pack
builds once, at pack time (pipeline.TemplatePack), so a search does no
per-parameter-set work in Python.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import KW_ONLY, dataclass, field

import numpy as np

from .backend import EncryptionContext, SlotVector, add, encrypt, mult, mult_plain
from .errors import CapacityExceeded, InfeasibleParams, InputTooShort, IntegrityError, read_json_object


@dataclass(frozen=True)
class PolyProtectParams:
    """User-specific transform parameters: window width m, overlap, C, E.

    params_id is computed from the values (_params_id), so equal values
    have one id and a set cannot carry another's.
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
        if self.m < 2:
            raise ValueError("m must be >= 2")
        if not 0 <= self.overlap <= self.m - 1:
            raise ValueError("overlap must be in [0, m-1]")
        if len(self.coeffs) != self.m or len(self.exps) != self.m:
            raise ValueError("coeffs and exps must have length m")
        if any(c == 0 for c in self.coeffs) or len(set(self.coeffs)) != self.m:
            raise ValueError("coefficients must be nonzero and pairwise distinct")
        if any(e < 1 for e in self.exps) or len(set(self.exps)) != self.m:
            raise ValueError("exponents must be positive and pairwise distinct")
        object.__setattr__(self, "params_id", _params_id(self.m, self.overlap, self.c_range, self.coeffs, self.exps))


def _params_id(m, overlap, c_range, coeffs, exps) -> str:
    canon = json.dumps([m, overlap, c_range, list(coeffs), list(exps)]).encode()
    return hashlib.sha256(canon).hexdigest()[:16]


def gen_params(m: int, overlap: int, c_range: int, seed) -> PolyProtectParams:
    """Sample per-user parameters deterministically from a seed.

    Coefficients: m draws without replacement from the nonzero integers in
    [-c_range, c_range].  Exponents: a random permutation of {1..m}, keeping
    encrypted depth at ceil(log2 m) + 1.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if 2 * c_range < m:
        raise InfeasibleParams(
            f"c_range={c_range} offers only {2 * c_range} distinct nonzero coefficients, need {m}"
        )
    rng = np.random.default_rng(seed)
    pool = np.concatenate([np.arange(-c_range, 0), np.arange(1, c_range + 1)])
    coeffs = tuple(int(c) for c in rng.choice(pool, size=m, replace=False))
    exps = tuple(int(e) for e in rng.permutation(m) + 1)
    return PolyProtectParams(m, overlap, coeffs, exps, c_range, seed=seed)


def output_len(n: int, m: int, overlap: int) -> int:
    """Number of windows covering an n-vector: ceil((n-m)/(m-overlap)) + 1."""
    if n < m:
        raise InputTooShort(f"embedding length {n} < window width m={m}")
    stride = m - overlap
    return (n - m + stride - 1) // stride + 1


@functools.lru_cache(maxsize=64)
def _window_index(n: int, m: int, overlap: int) -> np.ndarray:
    # (k, m) read-only positions into the zero-padded n-vector, row j
    # starting at j * (m - overlap); cached, as a call costs more than the
    # gather it serves
    k = output_len(n, m, overlap)
    index = np.arange(k)[:, None] * (m - overlap) + np.arange(m)
    index.flags.writeable = False
    return index


def _padded(v, m: int, overlap: int) -> tuple:
    # v zero-padded to cover its windows, and the window index into it
    vals = np.asarray(v, dtype=np.float64)
    if vals.ndim != 1:
        raise ValueError(f"embedding must be a 1-D array, got shape {vals.shape}")
    index = _window_index(len(vals), m, overlap)
    padded = np.zeros(index[-1, -1] + 1, dtype=np.float64)
    padded[: len(vals)] = vals
    return padded, index


def chunk_embedding(v, params: PolyProtectParams) -> np.ndarray:
    """An embedding's k m-wide windows, one per row (tail zero-padded).

    Row j holds elements j * (m - overlap) onward of the padded vector; the
    rows are one gather through a read-only index cached per (n, m,
    overlap), and the result is read-only.
    """
    padded, index = _padded(v, params.m, params.overlap)
    windows = padded[index]
    windows.flags.writeable = False
    return windows


def protect_plain(v, params: PolyProtectParams) -> np.ndarray:
    """Apply the window polynomial in the clear: the k template values."""
    coeffs = np.asarray(params.coeffs, dtype=np.float64)
    exps = np.asarray(params.exps, dtype=np.float64)
    return (np.power(chunk_embedding(v, params), exps) * coeffs).sum(axis=1)


def template_norms(v, overlap: int, exps: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """||protect_plain(v, p)|| for each parameter set p of window width m and
    this overlap, whose exponents and coefficients are a row of the (N, m)
    arrays exps and coeffs; one array of N norms.

    A gallery pack stacks its records' rows once, when it is built
    (pipeline.TemplatePack).  Each element of v is raised once to each
    distinct exponent and the powers are cut into windows once, so the cost
    per extra parameter set is a gather and a weighted sum.
    """
    if exps.ndim != 2 or exps.shape != coeffs.shape:
        raise ValueError(
            f"template_norms needs exps and coeffs of one shape (N, m), got {exps.shape} and {coeffs.shape}"
        )
    padded, index = _padded(v, exps.shape[1], overlap)
    k, m = index.shape
    distinct, which = np.unique(exps, return_inverse=True)
    # each element raised once to each distinct exponent, then cut into windows
    powers = (padded ** distinct.astype(np.float64)[:, None])[:, index.T]  # (exponent, offset, window)
    # row r, offset i reads power (which[r, i], i) through one flat index;
    # the weighted terms are added offset by offset, so no temporary
    # exceeds (N, k)
    table = powers.reshape(-1, k)
    flat = which.reshape(exps.shape) * m + np.arange(m)
    templates = table[flat[:, 0]] * coeffs[:, :1]
    for i in range(1, m):
        templates += table[flat[:, i]] * coeffs[:, i : i + 1]
    return np.linalg.norm(templates, axis=1)


def _pow_ct(sv: SlotVector, e: int, memo: dict) -> SlotVector:
    # Balanced split keeps depth at exactly ceil(log2 e); memo shares
    # sub-powers across exponents of one column ciphertext and across every
    # parameter set applied to it.
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
    """An embedding's k windows as m encrypted columns, with their memos.

    cts[i] holds element i of window j in slot j for j < k and zeros after;
    memos[i] caches the powers of cts[i] computed so far, so every parameter
    set with this (m, overlap) shares them.
    """

    cts: tuple
    k: int
    m: int
    overlap: int
    memos: tuple = field(repr=False, compare=False)

    def __len__(self) -> int:
        return self.k


def encrypt_windows(v, params: PolyProtectParams, ctx: EncryptionContext, copies: int = 1) -> EncryptedWindows:
    """Encrypt the m columns of v's (k, m) window matrix: m encryptions.

    copies > 1 repeats each column every capacity // copies slots, so every
    power and weighted sum of the columns is computed in each block at once.
    """
    windows = chunk_embedding(v, params)
    k, m = windows.shape
    cap = ctx.slot_capacity
    if k > cap // copies:
        times = f" {copies} times" if copies > 1 else ""
        raise CapacityExceeded(f"{k} windows do not fit slot capacity {cap}{times}")
    columns = np.zeros((m, cap), dtype=np.float64)
    columns.reshape(m, copies, cap // copies)[:, :, :k] = windows.T[:, None]
    cts = tuple(encrypt(column, ctx) for column in columns)
    return EncryptedWindows(cts, k, m, params.overlap, tuple({} for _ in cts))


def window_powers(windows: EncryptedWindows, pairs) -> list:
    """cts[i]^e for each (column i, exponent e) in pairs, memoized on the windows."""
    return [_pow_ct(windows.cts[i], e, windows.memos[i]) for i, e in pairs]


def pack_template(terms, coeffs, scale=1.0) -> SlotVector:
    """The weighted sum sum_i mult_plain(terms[i], coeffs[i] * scale): one
    plaintext mult per term, which also applies the scale.  A coefficient is
    a scalar or a capacity-length plaintext, and so is the scale: all the
    coefficients times the scale are one product."""
    acc = None
    for term, weight in zip(terms, np.asarray(coeffs, dtype=np.float64) * scale):
        weighted = mult_plain(term, weight)
        acc = weighted if acc is None else add(acc, weighted)
    return acc


def protect_encrypted(windows: EncryptedWindows, params: PolyProtectParams, scale: float = 1.0) -> SlotVector:
    """Apply the window polynomial to encrypted window columns.

    Returns the packed template: scale * p_j in slot j for j < k, zeros from
    slot k on, at depth protect_depth(params) above the windows.  The powers
    cts[i]^exps[i] it needs are memoized on the windows and reused by every
    later parameter set on them.
    """
    if (windows.m, windows.overlap) != (params.m, params.overlap):
        raise ValueError("windows were laid out for a different window width or overlap")
    return pack_template(window_powers(windows, enumerate(params.exps)), params.coeffs, scale)


def protect_depth(params: PolyProtectParams) -> int:
    """Depth of protect_encrypted's template on top of its windows' depth:
    power chain, coefficient."""
    return (max(params.exps) - 1).bit_length() + 1


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
    dim = n
    second = 0.0
    mean = 0.0
    for c, e in zip(params.coeffs, params.exps):
        second += c * c * _sphere_even_moment(2 * e, dim)
        if e % 2 == 0:
            mean += c * _sphere_even_moment(e, dim)
            second -= (c * _sphere_even_moment(e, dim)) ** 2
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
