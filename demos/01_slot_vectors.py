#!/usr/bin/env python3
"""Tour of the simulated SIMD-slot ciphertext: encrypt, slot ops, rotations,
depth budget, and keyed serialization."""
from polyfhe.backend import (
    EncryptionContext,
    add,
    decrypt,
    deserialize_ciphertext,
    encrypt,
    mult,
    mult_plain,
    rotate_left,
    serialize_ciphertext,
)
from polyfhe.errors import DepthExceeded, KeyMismatch

ctx = EncryptionContext(slot_capacity=8, depth_budget=4, key_id="alice")
print(f"context: capacity={ctx.slot_capacity}, depth budget={ctx.depth_budget}")

x = encrypt([1.0, 2.0, 3.0], ctx)
y = encrypt([10.0, 20.0, 30.0], ctx)
# decrypt returns every slot, as CKKS decoding does; the data is in the first 3
print("decrypt(x)          ->", decrypt(x, ctx))
print("decrypt(x)[:3]      ->", decrypt(x, ctx)[:3])
print("decrypt(x + y)[:3]  ->", decrypt(add(x, y), ctx)[:3])
print("decrypt(x * y)[:3]  ->", decrypt(mult(x, y), ctx)[:3])
print("decrypt(2 * x)[:3]  ->", decrypt(mult_plain(x, 2.0), ctx)[:3])

# rotations are cyclic over the FULL capacity, so zero padding matters
# every context keeps a ledger of the ops performed under it
before = ctx.ops.copy()
r = rotate_left(encrypt([1, 2, 3, 4, 5, 6, 7, 8], ctx), 3)
print("rotate_left by 3    ->", decrypt(r, ctx), f"(ledger: {dict(ctx.ops - before)})")

# every ciphertext-ciphertext product consumes one depth level
acc = x
while True:
    try:
        acc = mult(acc, x)
    except DepthExceeded as exc:
        print(f"depth budget enforce-> {exc}")
        break
print(f"deepest ciphertext  -> depth_used={acc.depth_used}")

# decryption needs the right key; serialization is masked per-call
mallory = EncryptionContext(8, 4, key_id="mallory")
try:
    decrypt(x, mallory)
except KeyMismatch as exc:
    print("foreign decrypt     ->", exc)

blob1 = serialize_ciphertext(x, ctx)
blob2 = serialize_ciphertext(x, ctx)
print(f"two dumps of x differ: {blob1 != blob2} (fresh nonce each time)")
back = deserialize_ciphertext(blob1, ctx, x.depth_used)  # depth is not on the wire
print("masked round trip   ->", decrypt(back, ctx)[:3])
