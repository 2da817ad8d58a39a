"""Expected scores and output checks computed apart from polyfhe, in numpy.

Nothing here imports polyfhe.  Templates follow the method as described: take
the first compress_dim coordinates and renormalise, cut zero-padded m-wide
windows at stride m - overlap, and map each window w to sum_i c_i * w_i**e_i.
Scores are the plain cosine of two such templates.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


def protect(embedding, coeffs, exps, m: int, overlap: int, compress_dim: int) -> np.ndarray:
    """Reference template of one embedding (or a stack of them, one per row)."""
    x = np.atleast_2d(np.asarray(embedding, dtype=np.float64))[:, :compress_dim]
    x = x / np.linalg.norm(x, axis=1, keepdims=True)
    stride = m - overlap
    k = -(-(compress_dim - m) // stride) + 1
    padded = np.zeros((x.shape[0], (k - 1) * stride + m))
    padded[:, :compress_dim] = x
    windows = np.stack([padded[:, j * stride : j * stride + m] for j in range(k)], axis=1)
    out = (windows ** np.asarray(exps, dtype=np.float64) * np.asarray(coeffs, dtype=np.float64)).sum(axis=2)
    return out[0] if np.ndim(embedding) == 1 else out


def cosine(a, b) -> np.ndarray:
    """Plain cosine of two vectors, or row-wise of two stacks."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return (a * b).sum(axis=-1) / (np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1))


def edge_margin_log2(scaled_den, domain) -> np.ndarray:
    """log2 distance from a scaled denominator to the nearer edge of the fit
    domain: positive inside, negative outside."""
    lo, hi = domain
    x = np.log2(np.asarray(scaled_den, dtype=np.float64))
    return np.minimum(x - math.log2(lo), math.log2(hi) - x)


def read_gallery_params(gallery_dir) -> dict:
    """subject_id -> (coeffs, exps, m, overlap, compress_dim) from a saved
    gallery's manifest.json and params/<params_id>.json files."""
    root = Path(gallery_dir)
    manifest = json.loads((root / "manifest.json").read_text())
    out = {}
    for rec in manifest["records"]:
        p = json.loads((root / "params" / f"{rec['params_id']}.json").read_text())
        out[rec["subject_id"]] = (p["coeffs"], p["exps"], p["m"], p["overlap"], rec["compress_dim"])
    return out


def ranking_ok(ranked, subject_ids) -> bool:
    """Each subject exactly once, by descending score, ties by subject_id.

    Non-finite scores have no order; they fail as comparisons instead.
    """
    ids = [sid for sid, _ in ranked]
    if len(ids) != len(subject_ids) or set(ids) != set(subject_ids):
        return False
    keys = [(-score, sid) for sid, score in ranked if math.isfinite(score)]
    return all(keys[i] <= keys[i + 1] for i in range(len(keys) - 1))


def failed_comparisons(ranked, expected: dict, tau: float) -> int:
    """How many of a probe's comparisons fail.

    expected maps every gallery subject_id to its reference score.  A
    comparison fails when its score is not finite or is further than tau from
    the reference; when the returned list is not a valid ranking of the whole
    gallery, every comparison of the probe fails.
    """
    if not ranking_ok(ranked, list(expected)):
        return len(expected)
    return sum(1 for sid, score in ranked if not (math.isfinite(score) and abs(score - expected[sid]) <= tau))
