#!/usr/bin/env python3
"""The window polynomial transform, in the clear and under encryption.

Each user gets private coefficients C and exponents E; m-wide windows of the
embedding collapse to single protected values p_j = sum c_i * v_i^e_i.  The
encrypted path computes the same numbers without ever decrypting and packs
them into one ciphertext, p_j in slot j: the template a gallery stores.  The
windows are encrypted as m columns (element i of every window in one
ciphertext, window j in slot j), so each term c_i * v_i^e_i is a power of
column i times a coefficient, with no rotation; no user's parameters change
the columns, so a second user's template reuses the first one's powers.
"""
import numpy as np

from polyfhe.backend import EncryptionContext, decrypt
from polyfhe.polyprotect import (
    encrypt_windows,
    gen_params,
    protect_depth,
    protect_encrypted,
    protect_plain,
    template_correlation,
)

rng = np.random.default_rng(0)
embedding = rng.normal(size=16)
embedding /= np.linalg.norm(embedding)

params = gen_params(m=5, overlap=2, c_range=50, seed=42)
print(f"user params: coeffs={params.coeffs} exps={params.exps} (id {params.params_id})")

plain = protect_plain(embedding, params)
print(f"\n16-dim embedding -> {len(plain)} protected values (dimensionality reduction)")
print("plaintext  :", np.round(plain, 6))

ctx = EncryptionContext(8, 16, key_id="user-0")
windows = encrypt_windows(embedding, params, ctx)  # element i of window j in slot j of ciphertext i
template = protect_encrypted(windows, params)
decrypted = decrypt(template, ctx)
print(f"{len(windows)} windows in {len(windows.cts)} encryptions, packed into one {ctx.slot_capacity}-slot ciphertext")
print(f"powers above 1 built per column: {[sorted(memo) for memo in windows.memos]}")
print("encrypted  :", np.round(decrypted[: len(plain)], 6))
print(f"max |diff| : {np.max(np.abs(decrypted[: len(plain)] - plain)):.2e}")
print(f"depth used : {template.depth_used} (protect_depth: ceil(log2 max exp) + 1 = {protect_depth(params)})")
print("slots after the template:", decrypted[len(plain) :])

other = gen_params(m=5, overlap=2, c_range=50, seed=43)
before = ctx.ops["ct_mults"]
second = decrypt(protect_encrypted(windows, other), ctx)
print(f"a second user's template on the same windows took {ctx.ops['ct_mults'] - before} new ciphertext mults; "
      f"max |diff| vs plain: {np.max(np.abs(second[: len(plain)] - protect_plain(embedding, other))):.2e}")

# unlinkability precursor: the same face under different users' params does
# not correlate on average (individual draws scatter widely, so use a longer
# embedding and several draws to see the trend)
wide = rng.normal(size=64)
wide /= np.linalg.norm(wide)
base = protect_plain(wide, params)
cors = [
    abs(template_correlation(base, protect_plain(wide, gen_params(5, 2, 50, seed=1000 + i))))
    for i in range(20)
]
print(f"\nsame 64-dim embedding under 20 independent parameter draws:")
print(f"mean |correlation| with the original template: {np.mean(cors):.3f}")
