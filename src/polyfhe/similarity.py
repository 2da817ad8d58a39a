"""Cosine similarity between ciphertexts, and its plaintext oracle.

When both vectors were scaled to unit norm before encryption (the key
holder knows both in the clear: the embedding at enrollment, the probe at
search), the cosine is their inner product: one slot-wise product folded
into slot 0 (cosine_unit_encrypted).  This is what the 1:N search uses.

For vectors of unknown norm the encrypted path follows the rotate/fold
recipe: slot-wise products folded into slot 0 give the dot product and both
squared norms; the denominator's inverse square root comes from the fitted
polynomial.  Division by data-dependent values is impossible under
encryption, so both numerator and denominator are first scaled into known
ranges by *public* bounds (the normalization plan), and the residual
constant c_bound/sqrt(d_bound) is multiplied back in at the end -- with the
standard plan that constant is exactly 1.

Only slot 0 of a result is meaningful; the other slots hold fold leftovers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .backend import EncryptionContext, SlotVector, decrypt, mult, mult_plain
from .errors import DomainViolation, ZeroVector
from .invsqrt import PolyApprox, eval_poly_encrypted, fit_inv_sqrt
from .summation import fold_add_all


@dataclass(frozen=True)
class NormalizationPlan:
    """Public scale bounds: numerator / c_bound in [-1, 1], denominator /
    d_bound in (0, 1], and the closed-form correction c_bound / sqrt(d_bound)
    that restores the true cosine after the approximate inverse square root.
    """

    c_bound: float
    d_bound: float
    correction: float

    def __post_init__(self):
        if self.c_bound <= 0 or self.d_bound <= 0:
            raise ValueError("bounds must be positive")


def make_normalization_plan(templates_bound: float, n: int) -> NormalizationPlan:
    """Derive a plan from a public per-element magnitude bound B on n-vectors.

    |a.b| <= n B^2 and ||a||^2 ||b||^2 <= (n B^2)^2, so the correction is 1.
    """
    if templates_bound <= 0:
        raise ValueError("templates_bound must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    c_bound = n * templates_bound * templates_bound
    d_bound = c_bound * c_bound
    return NormalizationPlan(c_bound, d_bound, c_bound / math.sqrt(d_bound))


def _plain_pair(a, b) -> tuple:
    """a and b as float arrays: nonempty, 1-D and of one shape."""
    av = np.atleast_1d(np.asarray(a, dtype=np.float64))
    bv = np.atleast_1d(np.asarray(b, dtype=np.float64))
    if av.ndim != 1 or av.shape[0] < 1 or bv.ndim != 1 or bv.shape[0] < 1:
        raise ValueError(f"vectors must be nonempty and 1-D, got shapes {av.shape} and {bv.shape}")
    if av.shape != bv.shape:
        raise ValueError("vectors must have equal length")
    return av, bv


def cosine_plain(a, b) -> float:
    """a.b / (||a|| ||b||); the oracle for the encrypted path."""
    av, bv = _plain_pair(a, b)
    na = float(np.linalg.norm(av))
    nb = float(np.linalg.norm(bv))
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("cosine similarity is undefined for a zero vector")
    return float(av @ bv) / (na * nb)


def cosine_unit_encrypted(c1: SlotVector, c2: SlotVector, n: int) -> SlotVector:
    """Cosine of two encrypted unit-norm n-vectors (zeros after slot n); result in slot 0.

    One ciphertext product and ceil(log2 n) rotations; no inverse square
    root, so the score is exact up to rounding.
    """
    return fold_add_all(mult(c1, c2), n)


def cosine_encrypted(
    c1: SlotVector,
    c2: SlotVector,
    n: int,
    plan: NormalizationPlan,
    approx: PolyApprox,
    ctx: EncryptionContext,
) -> SlotVector:
    """Cosine similarity of two encrypted n-vectors; result in slot 0.

    Numerator and squared norms are folded sums of slot-wise products; the
    scaled denominator goes through the polynomial inverse square root.  The
    caller is responsible (via precheck_denominator, on plaintext at
    enrollment) for the scaled denominator landing inside approx's domain --
    the encrypted path cannot branch on values.
    """
    num = fold_add_all(mult(c1, c2), n)
    d1 = fold_add_all(mult(c1, c1), n)
    d2 = fold_add_all(mult(c2, c2), n)
    den = mult(d1, d2)
    num = mult_plain(num, 1.0 / plan.c_bound)
    den = mult_plain(den, 1.0 / plan.d_bound)
    den = eval_poly_encrypted(den, approx, ctx)
    out = mult(num, den)
    return mult_plain(out, plan.correction)


def cosine_encrypted_score(c1, c2, n, plan, approx, ctx) -> float:
    """Decrypt-slot-0 convenience wrapper around cosine_encrypted."""
    return float(decrypt(cosine_encrypted(c1, c2, n, plan, approx, ctx), ctx)[0])


def precheck_denominator(a, b, plan: NormalizationPlan, approx: PolyApprox) -> float:
    """Plaintext guard: the scaled denominator for (a, b) must be in-domain.

    Returns the scaled value; raises DomainViolation when it falls outside
    [domain.lo, domain.hi] (near-zero vectors fall below lo).
    """
    av, bv = _plain_pair(a, b)
    scaled = float(np.dot(av, av) * np.dot(bv, bv)) / plan.d_bound
    lo, hi = approx.domain
    if scaled < lo:
        raise DomainViolation(f"scaled denominator {scaled:.3e} below fit domain lo={lo:.3e}")
    if scaled > hi:
        raise DomainViolation(f"scaled denominator {scaled:.3e} above fit domain hi={hi:.3e}")
    return scaled


def unit_cosine_setup(n: int, degree: int = 8, domain_ratio: float = 2.0):
    """(plan, approx) tuned for unit-norm n-vectors.

    With exactly unit norms the scaled denominator is the single point
    1/d_bound, so a narrow fit domain around it makes the polynomial's
    relative error (and hence the score tolerance) tiny.
    """
    plan = make_normalization_plan(1.0, n)
    x0 = 1.0 / plan.d_bound
    lo, hi = x0 / domain_ratio, min(1.0, x0 * domain_ratio)
    return plan, fit_inv_sqrt(degree, (lo, hi))
