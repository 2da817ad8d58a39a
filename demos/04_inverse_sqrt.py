#!/usr/bin/env python3
"""Polynomial approximation of 1/sqrt(x): the only nonlinearity the encrypted
cosine needs, and the depth/accuracy tradeoff of choosing its degree."""
import numpy as np

from polyfhe.backend import EncryptionContext, decrypt, encrypt
from polyfhe.invsqrt import eval_poly_encrypted, eval_poly_plain, fit_inv_sqrt

print("fits on [1e-3, 1], relative error over 2000 seeded points:")
for degree in (2, 4, 6, 8):
    approx = fit_inv_sqrt(degree, (1e-3, 1.0))
    r = approx.fit_report
    print(f"  degree {degree}: max_rel_err={r.max_rel_err:.4f} mean_rel_err={r.mean_rel_err:.4f}")

print("\nthe full sub-unit domain is hostile near zero; a narrow domain around")
print("a known denominator scale is the regime the encrypted cosine uses:")
narrow = fit_inv_sqrt(8, (1e-4, 4e-4))
print(f"  degree 8 on [1e-4, 4e-4]: max_rel_err={narrow.fit_report.max_rel_err:.2e}")

x = 2.5e-4
print(f"  p({x}) = {eval_poly_plain(x, narrow):.4f} vs exact {1/np.sqrt(x):.4f}")

ctx = EncryptionContext(16, 16, key_id="inv")
xs = np.random.default_rng(1).uniform(1e-4, 4e-4, 16)
out = eval_poly_encrypted(encrypt(xs, ctx), narrow)
err = np.max(np.abs(decrypt(out, ctx) - eval_poly_plain(xs, narrow)))
print(f"\nencrypted Horner: per-slot match {err:.1e}, depth consumed {out.depth_used} (= degree)")
