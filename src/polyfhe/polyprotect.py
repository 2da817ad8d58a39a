"""Polynomial template protection over sliding windows of an embedding.

An n-dimensional embedding is split into m-wide windows with a configurable
overlap; each window maps to one output value p_j = sum_i coeffs[i] *
window[i]**exps[i], with user-specific nonzero distinct integer coefficients
and distinct positive exponents.  The encrypted path computes the same values
under the slot contract and packs them into one ciphertext, p_j in slot j,
which is the stored template and what the encrypted cosine scores.

The windows are encrypted in a strided layout (SIMD packing after Smart and
Vercauteren, masked rotate-and-sum after Halevi and Shoup): window j sits in
slots j..j+m-1 of ciphertext j mod s, s = 2^ceil(log2 m), so min(s, k)
ciphertexts hold all k windows, and their power chains serve every user's
parameters.  Exponents cannot differ per slot within one SIMD op, so each
group ciphertext is decomposed into m branches: raise it to one exponent
(square-and-multiply, shared sub-powers), then a single plaintext mask
applies that branch's coefficient at slot j+i of each window j.  A fold sums
each window into its first slot, and one placement mask per group keeps slot
j and sums the groups.  Depth is ceil(log2 max_exp) + 2 (power chain,
coefficient mask, placement mask).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .backend import EncryptionContext, SlotVector, add, encrypt, mult, mult_plain
from .errors import CapacityExceeded, InfeasibleParams, InputTooShort
from .summation import fold_add_all


@dataclass(frozen=True)
class PolyProtectParams:
    """User-specific transform parameters: window width m, overlap, C, E."""

    m: int
    overlap: int
    coeffs: tuple
    exps: tuple
    c_range: int
    params_id: str
    seed: int | None = None

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


def _params_id(m, overlap, c_range, coeffs, exps) -> str:
    canon = json.dumps([m, overlap, c_range, list(coeffs), list(exps)]).encode()
    return hashlib.sha256(canon).hexdigest()[:16]


def gen_params(m: int, overlap: int, c_range: int, seed) -> PolyProtectParams:
    """Sample per-user parameters deterministically from a seed.

    Coefficients: m draws without replacement from the nonzero integers in
    [-c_range, c_range].  Exponents: a random permutation of {1..m}, keeping
    encrypted depth at ceil(log2 m) + 2.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if not 0 <= overlap <= m - 1:
        raise ValueError("overlap must be in [0, m-1]")
    if 2 * c_range < m:
        raise InfeasibleParams(
            f"c_range={c_range} offers only {2 * c_range} distinct nonzero coefficients, need {m}"
        )
    rng = np.random.default_rng(seed)
    pool = np.concatenate([np.arange(-c_range, 0), np.arange(1, c_range + 1)])
    coeffs = tuple(int(c) for c in rng.choice(pool, size=m, replace=False))
    exps = tuple(int(e) for e in rng.permutation(m) + 1)
    pid = _params_id(m, overlap, c_range, coeffs, exps)
    return PolyProtectParams(m, overlap, coeffs, exps, c_range, pid, seed)


def output_len(n: int, m: int, overlap: int) -> int:
    """Number of windows covering an n-vector: ceil((n-m)/(m-overlap)) + 1."""
    if n < m:
        raise InputTooShort(f"embedding length {n} < window width m={m}")
    stride = m - overlap
    return (n - m + stride - 1) // stride + 1


def chunk_embedding(v, params: PolyProtectParams) -> np.ndarray:
    """An embedding's k m-wide windows, one per row (tail zero-padded).

    The rows are a read-only strided view of the padded vector, row j starting
    at j * (m - overlap).
    """
    vals = np.asarray(v, dtype=np.float64)
    if vals.ndim != 1:
        raise ValueError(f"embedding must be a 1-D array, got shape {vals.shape}")
    k = output_len(len(vals), params.m, params.overlap)
    stride = params.m - params.overlap
    padded = np.zeros((k - 1) * stride + params.m, dtype=np.float64)
    padded[: len(vals)] = vals
    return sliding_window_view(padded, params.m)[::stride]


def protect_plain(v, params: PolyProtectParams) -> np.ndarray:
    """Apply the window polynomial in the clear: the k template values."""
    coeffs = np.asarray(params.coeffs, dtype=np.float64)
    exps = np.asarray(params.exps, dtype=np.float64)
    return (np.power(chunk_embedding(v, params), exps) * coeffs).sum(axis=1)


def _pow_ct(sv: SlotVector, e: int, memo: dict) -> SlotVector:
    # Balanced split keeps depth at exactly ceil(log2 e); memo shares
    # sub-powers across the m exponent branches of one group ciphertext and
    # across every parameter set applied to it.
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
    """An embedding's k windows in the strided layout, with their power memos.

    Window j holds slots j..j+m-1 (mod capacity) of cts[j % s], where
    s = 2^ceil(log2 m); memos[g] caches the powers of cts[g] computed so far,
    so every parameter set with this (m, overlap) shares one power chain.
    """

    cts: tuple
    k: int
    m: int
    overlap: int
    memos: tuple = field(repr=False, compare=False)

    def __len__(self) -> int:
        return self.k


def encrypt_windows(v, params: PolyProtectParams, ctx: EncryptionContext) -> EncryptedWindows:
    """Encrypt v's windows in the strided layout: min(s, k) encryptions."""
    windows = chunk_embedding(v, params)
    k, m = windows.shape
    cap = ctx.slot_capacity
    if max(k, m) > cap:
        raise CapacityExceeded(f"{k} windows of width {m} do not fit slot capacity {cap}")
    s = 1 << (m - 1).bit_length()
    j = np.arange(k)
    slots = np.zeros((min(s, k), cap), dtype=np.float64)
    slots[(j % s)[:, None], (j[:, None] + np.arange(m)) % cap] = windows
    cts = tuple(encrypt(row, ctx) for row in slots)
    return EncryptedWindows(cts, k, m, params.overlap, tuple({} for _ in cts))


@dataclass(frozen=True)
class GroupSums:
    """protect_encrypted's output: p_j in slot j of cts[j % len(cts)].

    The other slots hold fold leftovers; pack_template masks them away.
    """

    cts: tuple
    k: int


def protect_encrypted(windows: EncryptedWindows, params: PolyProtectParams) -> GroupSums:
    """Apply the window polynomial to strided windows under the slot contract.

    Per group, one coefficient mask per branch puts c_i at slot j+i of every
    window j, and the fold leaves p_j in slot j: windows of a group lie at
    least s apart and the fold sums any s consecutive slots.
    """
    if (windows.m, windows.overlap) != (params.m, params.overlap):
        raise ValueError("windows were laid out for a different window width or overlap")
    m, k = params.m, windows.k
    groups = len(windows.cts)  # min(s, k), so j % groups == j % s for every window j < k
    cap = windows.cts[0].slots.shape[0]
    j = np.arange(k)
    coeff_masks = np.zeros((groups, m, cap), dtype=np.float64)
    coeff_masks[(j % groups)[:, None], np.arange(m), (j[:, None] + np.arange(m)) % cap] = params.coeffs
    outs = []
    for g, (ct, memo) in enumerate(zip(windows.cts, windows.memos)):
        combined = None
        for i in range(m):
            branch = mult_plain(_pow_ct(ct, params.exps[i], memo), coeff_masks[g, i])
            combined = branch if combined is None else add(combined, branch)
        outs.append(fold_add_all(combined, m))
    return GroupSums(tuple(outs), k)


def protect_depth(params: PolyProtectParams) -> int:
    """Depth of a packed template, pack_template(protect_encrypted(...)), on
    top of its windows' depth: power chain, coefficient mask, placement mask."""
    return (max(params.exps) - 1).bit_length() + 2


def pack_template(pt: GroupSums, scale: float = 1.0) -> SlotVector:
    """Sum the groups into one ciphertext holding scale * p_j in slot j.

    One placement mask per group keeps that group's slots (and doubles as the
    scaling), so slots from k on are zero; one depth level, no rotations.
    """
    groups = len(pt.cts)
    cap = pt.cts[0].slots.shape[0]
    j = np.arange(pt.k)
    place_masks = np.zeros((groups, cap), dtype=np.float64)
    place_masks[j % groups, j] = scale
    acc = None
    for ct, mask in zip(pt.cts, place_masks):
        placed = mult_plain(ct, mask)
        acc = placed if acc is None else add(acc, placed)
    return acc


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

    Treats coordinates as approximately independent sphere coordinates; used
    to rescale templates so encrypted cosine denominators land inside the
    inverse-sqrt fit domain.  Accuracy within a small factor is enough.
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


def params_to_dict(params: PolyProtectParams) -> dict:
    return {
        "m": params.m,
        "overlap": params.overlap,
        "c_range": params.c_range,
        "coeffs": list(params.coeffs),
        "exps": list(params.exps),
        "params_id": params.params_id,
        "seed": params.seed,
    }


def params_from_dict(d: dict) -> PolyProtectParams:
    return PolyProtectParams(
        d["m"], d["overlap"], tuple(d["coeffs"]), tuple(d["exps"]), d["c_range"], d["params_id"], d.get("seed")
    )


def save_params(params: PolyProtectParams, path):
    with open(path, "w") as f:
        json.dump(params_to_dict(params), f, indent=2)


def load_params(path) -> PolyProtectParams:
    with open(path) as f:
        return params_from_dict(json.load(f))
