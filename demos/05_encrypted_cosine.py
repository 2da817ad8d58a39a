#!/usr/bin/env python3
"""Cosine similarity between two ciphertexts nobody decrypted in between.

When the key holder can scale both vectors to unit norm before encrypting
them -- as in 1:N search, where the embedding at enrollment and the probe at
search time are both in the clear -- the cosine is one slot-wise product
folded into slot 0: exact up to rounding, ceil(log2 n) rotations, one
ciphertext mult.

For vectors of unknown norm, slot products + fold-and-add give the dot
product and both squared norms; public scale bounds push the denominator
into the inverse-sqrt fit domain, and a polynomial supplies 1/sqrt under
encryption, at the price of its fit error and more depth.
"""
import numpy as np

from polyfhe.backend import EncryptionContext, decrypt, encrypt
from polyfhe.similarity import (
    cosine_encrypted_score,
    cosine_plain,
    cosine_unit_encrypted,
    precheck_denominator,
    unit_cosine_setup,
)

dim = 64
ctx = EncryptionContext(128, 16, key_id="match")
rng = np.random.default_rng(3)


def unit(v):
    return v / np.linalg.norm(v)


print("scaled to unit norm in the clear: one product, one fold")
worst = 0.0
for trial in range(5):
    a, b = rng.normal(size=dim), rng.normal(size=dim)
    ca, cb = encrypt(unit(a), ctx), encrypt(unit(b), ctx)
    before = ctx.ops.copy()
    ct = cosine_unit_encrypted(ca, cb, dim)
    ops = ctx.ops - before
    enc, ref = float(decrypt(ct, ctx)[0]), cosine_plain(a, b)
    worst = max(worst, abs(enc - ref))
    print(f"pair {trial}: encrypted {enc:+.6f} vs plaintext {ref:+.6f} (|err| {abs(enc - ref):.1e})")
print(f"worst error: {worst:.1e}; {ops['rotations']} rotations, {ops['ct_mults']} mult, depth {ct.depth_used}\n")

plan, approx = unit_cosine_setup(dim, degree=8)
tau = 2 * approx.fit_report.max_rel_err + 1e-6
print("norms not known to the key holder: polynomial inverse square root")
print(f"plan: c_bound={plan.c_bound:.0f} d_bound={plan.d_bound:.0f}")
print(f"inverse-sqrt fit: degree 8 on [{approx.domain[0]:.2e}, {approx.domain[1]:.2e}], "
      f"max_rel_err={approx.fit_report.max_rel_err:.2e}")
print(f"score tolerance tau = {tau:.2e}")
worst = 0.0
for trial in range(5):
    a, b = unit(rng.normal(size=dim)), unit(rng.normal(size=dim))
    precheck_denominator(a, b, plan, approx)  # enrollment-time plaintext guard
    enc = cosine_encrypted_score(encrypt(a, ctx), encrypt(b, ctx), dim, plan, approx, ctx)
    ref = cosine_plain(a, b)
    worst = max(worst, abs(enc - ref))
    print(f"pair {trial}: encrypted {enc:+.6f} vs plaintext {ref:+.6f} (|err| {abs(enc - ref):.1e})")

v = unit(rng.normal(size=dim))
self_score = cosine_encrypted_score(encrypt(v, ctx), encrypt(v, ctx), dim, plan, approx, ctx)
print(f"self-similarity: {self_score:.6f} (exact answer 1)")
print(f"worst error over the pairs: {worst:.2e} <= tau")
