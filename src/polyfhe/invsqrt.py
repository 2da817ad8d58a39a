"""Polynomial approximation of 1/sqrt(x) on a sub-unit interval.

Fits minimize *relative* error -- the metric the evaluation protocol uses --
as a weighted least squares on Chebyshev nodes with weight sqrt(x), since
|p(x) - 1/sqrt(x)| * sqrt(x) is exactly the relative error against 1/sqrt(x).
Coefficients are stored in ascending powers of raw x; evaluation is Horner,
in the clear and under the slot contract (where each step is one ciphertext
mult plus a free plaintext add, consuming exactly len(coeffs) - 1 levels).

Near-zero domains are hopeless for fixed-degree polynomials, so the default
domain starts at 1e-3 rather than 0; narrow domains centered on a known
denominator scale give far tighter fits and are what the encrypted cosine
path uses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .backend import SlotVector, add_plain, mult, mult_plain
from .errors import IllConditioned


@dataclass(frozen=True)
class FitReport:
    """Relative-error summary over seeded uniform samples of the domain."""

    max_rel_err: float
    mean_rel_err: float
    n_samples: int
    seed: int


@dataclass(frozen=True)
class PolyApprox:
    """A fitted polynomial of degree len(coeffs) - 1, its domain and error report.

    Evaluating outside [domain[0], domain[1]] is a contract violation the
    evaluator does not detect; use precheck helpers upstream.
    """

    coeffs: np.ndarray  # ascending powers
    domain: tuple
    fit_report: FitReport

    def __post_init__(self):
        lo, hi = self.domain
        if not (0.0 < lo <= hi <= 1.0):
            raise ValueError("domain must satisfy 0 < lo <= hi <= 1")
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=np.float64))


def eval_poly_plain(x, approx: PolyApprox):
    """Horner evaluation; scalar in, scalar out (arrays broadcast)."""
    c = approx.coeffs
    acc = np.full_like(np.asarray(x, dtype=np.float64), c[-1])
    for j in range(len(c) - 2, -1, -1):
        acc = acc * x + c[j]
    return float(acc) if np.ndim(x) == 0 else acc


def _rel_error(xs, px):
    """|p(x) - 1/sqrt(x)| * sqrt(x): p's error relative to 1/sqrt(x)."""
    return np.abs(px - 1.0 / np.sqrt(xs)) * np.sqrt(xs)


def rel_error_report(approx: PolyApprox, n_samples: int, seed: int = 0) -> FitReport:
    """Sample the domain uniformly and report max/mean relative error."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    lo, hi = approx.domain
    xs = np.random.default_rng(seed).uniform(lo, hi, n_samples)
    rel = _rel_error(xs, eval_poly_plain(xs, approx))
    return FitReport(float(rel.max()), float(rel.mean()), n_samples, seed)


def fit_inv_sqrt(
    degree: int,
    domain=(1e-3, 1.0),
    n_nodes: int = 256,
    report_samples: int = 2000,
    report_seed: int = 0,
) -> PolyApprox:
    """Fit 1/sqrt(x) on [lo, hi] by relative-error-weighted least squares.

    Nodes are Chebyshev points of the domain; the design matrix is column-
    equilibrated before the solve so narrow domains far below 1 stay well
    conditioned.  Deterministic.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if not (0.0 < lo <= hi <= 1.0):
        raise ValueError("domain must satisfy 0 < lo <= hi <= 1")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if n_nodes < degree + 1:
        raise ValueError("n_nodes must be >= degree + 1")

    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    theta = (2.0 * np.arange(n_nodes) + 1.0) * np.pi / (2.0 * n_nodes)
    xs = mid + half * np.cos(theta)
    w = np.sqrt(xs)
    powers = np.vander(xs, degree + 1, increasing=True)
    a = powers * w[:, None]
    b = np.ones(n_nodes)  # w * 1/sqrt(x) = 1

    col_scale = np.linalg.norm(a, axis=0)
    col_scale[col_scale == 0.0] = 1.0
    sol, _, rank, _ = np.linalg.lstsq(a / col_scale, b, rcond=None)
    if rank < degree + 1:
        raise IllConditioned(f"degree-{degree} fit on [{lo}, {hi}] is rank deficient ({rank})")
    coeffs = sol / col_scale

    approx = PolyApprox(coeffs, (lo, hi), FitReport(0.0, 0.0, 0, 0))
    report = rel_error_report(approx, report_samples, report_seed)
    return PolyApprox(coeffs, (lo, hi), report)


def eval_poly_encrypted(sv: SlotVector, approx: PolyApprox) -> SlotVector:
    """Slot-wise Horner under the slot contract.

    Consumes exactly d = len(coeffs) - 1 depth levels above the input (one
    plaintext mult for the leading step, d-1 ciphertext mults after);
    coefficient additions are plaintext adds and cost nothing.
    """
    c = approx.coeffs
    d = len(c) - 1
    if d == 0:
        return add_plain(mult_plain(sv, 0.0), float(c[0]))
    acc = mult_plain(sv, float(c[d]))
    acc = add_plain(acc, float(c[d - 1]))
    for j in range(d - 2, -1, -1):
        acc = mult(acc, sv)
        acc = add_plain(acc, float(c[j]))
    return acc


def rel_error_curve(approx: PolyApprox, n_points: int = 200):
    """(x, p(x), rel_err) triples across the domain, for plotting/CSV."""
    lo, hi = approx.domain
    xs = np.linspace(lo, hi, n_points)
    px = eval_poly_plain(xs, approx)
    return xs, px, _rel_error(xs, px)


def save_approx(approx: PolyApprox, path):
    """Write the fit as JSON: degree, domain, coefficients and error report."""
    r = approx.fit_report
    d = {
        "degree": len(approx.coeffs) - 1,
        "domain": [approx.domain[0], approx.domain[1]],
        "coeffs": [float(c) for c in approx.coeffs],
        "max_rel_err": r.max_rel_err,
        "mean_rel_err": r.mean_rel_err,
        "n_samples": r.n_samples,
        "seed": r.seed,
    }
    with open(path, "w") as f:
        json.dump(d, f, indent=2)
