"""Simulated SIMD-slot homomorphic vector engine.

Models a CKKS-style batched ciphertext as a fixed-capacity array of float
slots with the operational contract of the real thing: slot-wise add/mult,
cyclic rotations over the full capacity, no individual-element access, a
multiplicative depth budget, and keyed masked serialization.  No lattice
cryptography is involved; the point is that every algorithm built on top is
expressed purely in terms of these operations, so its op counts, depth
consumption, and numerical behaviour are faithful even though the "encryption"
is a simulation.

Plaintexts are numpy arrays.  A ciphertext is its slots and its depth, as in
CKKS (Cheon-Kim-Kim-Song, ASIACRYPT 2017): it does not know how many of its
slots hold data, and decrypt returns every slot.  Values are immutable:
every operation returns a new SlotVector.  Arithmetic is exact: the
simulator adds no approximation error of its own.  The seeded-nonce stream
and the op ledger are ordered state on the context, so seeded dumps and op
counts depend on the order of calls.

Op accounting: each context keeps one ledger, ctx.ops, a Counter to which
rotate_left, mult, mult_plain and encrypt each add 1 under "rotations",
"ct_mults", "pt_mults" and "encryptions"; no other op counts.  It counts the
ops performed, so a value that feeds both sides of an op counts once, and a
computation's cost is the ledger difference around it.  Depth stays on each
SlotVector: it belongs to a ciphertext, not to a tally.

Capacity invariant: every SlotVector made under a context holds exactly
ctx.slot_capacity slots -- encrypt pads to it, deserialize_ciphertext checks
it, and every op keeps its input's length.  So add and mult check keys and
capacities only for operands of two different context objects.  A rotation
is a fixed slot permutation (the Galois automorphism of CKKS); up to
_GATHER_MAX_CAPACITY slots the simulator applies it as one gather through a
precomputed read-only index table, above that as two slice copies.
"""

from __future__ import annotations

import hashlib
import secrets
import struct
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityExceeded, DepthExceeded, IntegrityError, KeyMismatch

_KEY_LEN = 16
_NONCE_LEN = 16
HEADER_LEN = _KEY_LEN + _NONCE_LEN + 4  # key, nonce, capacity; the slot payload follows

# Largest capacity rotated by one gather.  Measured per rotation (timeit,
# 2 vCPUs, numpy on Python 3.11): the gather takes 0.5-0.8 us at 128 slots
# and 0.9 us at 512, where two slice copies take 1.2-2.7 and 1.2-2.1 us; the
# two tie near 1024 (1.4-1.5 vs 1.2-1.6 us), and from 2048 slots on (2.5-3.5
# vs 1.6-2.6 us at 2048) the slice copies win.
_GATHER_MAX_CAPACITY = 512


def _doubled_range(cap: int) -> np.ndarray:
    idx = np.tile(np.arange(cap), 2)
    idx.flags.writeable = False
    return idx


# Per power-of-two capacity c up to the limit, arange(c) twice and read-only:
# a left rotation by k gathers slots _ROTATION_INDEX[c][k : k + c].
_ROTATION_INDEX = {1 << i: _doubled_range(1 << i) for i in range(_GATHER_MAX_CAPACITY.bit_length())}


def _as_key_bytes(key_id) -> bytes:
    if key_id is None:
        return secrets.token_bytes(_KEY_LEN)
    if isinstance(key_id, bytes):
        if len(key_id) != _KEY_LEN:
            raise ValueError(f"key_id bytes must be length {_KEY_LEN}, got {len(key_id)}")
        return key_id
    if isinstance(key_id, str):
        return hashlib.sha256(b"polyfhe-key:" + key_id.encode()).digest()[:_KEY_LEN]
    raise TypeError("key_id must be str, bytes, or None")


@dataclass(frozen=True)
class EncryptionContext:
    """Key material and limits for one simulated keypair.

    slot_capacity must be a power of two.  masking_seed is derived from the
    key and drives the serialization keystream.  nonce_seed, when given,
    makes the serialization nonce stream reproducible -- every call still
    draws a fresh nonce, but two runs with the same seed produce
    byte-identical dumps, which reproducible experiment outputs depend on.
    ops is the context's op ledger (see the module docstring).
    """

    slot_capacity: int
    depth_budget: int = 16
    key_id: bytes = None  # str/bytes/None accepted; normalized to 16 bytes
    nonce_seed: int = None
    masking_seed: bytes = field(init=False, repr=False, compare=False)
    _nonce_rng: np.random.Generator = field(init=False, repr=False, compare=False)
    ops: Counter = field(default_factory=Counter, init=False, repr=False, compare=False)

    def __post_init__(self):
        cap = self.slot_capacity
        if cap < 1 or cap & (cap - 1):
            raise ValueError(f"slot_capacity must be a power of two, got {cap}")
        if self.depth_budget < 1:
            raise ValueError("depth_budget must be >= 1")
        key = _as_key_bytes(self.key_id)
        object.__setattr__(self, "key_id", key)
        seed = hashlib.sha256(b"polyfhe-mask:" + key).digest()
        object.__setattr__(self, "masking_seed", seed)
        nonce_rng = None if self.nonce_seed is None else np.random.default_rng(self.nonce_seed)
        object.__setattr__(self, "_nonce_rng", nonce_rng)

    def _fresh_nonce(self) -> bytes:
        if self._nonce_rng is None:
            return secrets.token_bytes(_NONCE_LEN)
        return self._nonce_rng.bytes(_NONCE_LEN)


class SlotVector:
    """A simulated ciphertext: capacity-length slot array plus its depth.

    Treat instances as immutable; all operations below return new values.
    Do not read .slots in application code -- that is the simulator's
    backstage, not part of the encrypted-domain contract.
    """

    __slots__ = ("slots", "depth_used", "ctx")

    def __init__(self, slots, depth_used, ctx):
        self.slots = slots
        self.depth_used = depth_used
        self.ctx = ctx

    def __repr__(self):
        return f"SlotVector(capacity={self.slots.shape[0]}, depth={self.depth_used})"


def encrypt(values, ctx: EncryptionContext) -> SlotVector:
    """Encrypt a nonempty 1-D array-like: values in the leading slots, zeros after."""
    vals = np.atleast_1d(np.asarray(values, dtype=np.float64))
    if vals.ndim != 1 or vals.shape[0] < 1:
        raise ValueError(f"encrypt needs a nonempty 1-D array, got shape {vals.shape}")
    n = vals.shape[0]
    if n > ctx.slot_capacity:
        raise CapacityExceeded(f"plaintext length {n} > slot capacity {ctx.slot_capacity}")
    slots = np.zeros(ctx.slot_capacity, dtype=np.float64)
    slots[:n] = vals
    ctx.ops["encryptions"] += 1
    return SlotVector(slots, 0, ctx)


def decrypt(sv: SlotVector, ctx: EncryptionContext) -> np.ndarray:
    """A copy of all capacity slots; requires the producing key."""
    if sv.ctx.key_id != ctx.key_id:
        raise KeyMismatch("decrypt with a foreign context (missing secret key)")
    return sv.slots.copy()


def _check_pair(a: SlotVector, b: SlotVector):
    if a.ctx.key_id != b.ctx.key_id:
        raise KeyMismatch("binary op across ciphertexts under different keys")
    if a.slots.shape[0] != b.slots.shape[0]:
        raise ValueError("binary op across ciphertexts of different capacities")


def add(a: SlotVector, b: SlotVector) -> SlotVector:
    """Slot-wise sum.  Depth is max of the inputs."""
    if a.ctx is not b.ctx:
        _check_pair(a, b)
    return SlotVector(a.slots + b.slots, a.depth_used if a.depth_used >= b.depth_used else b.depth_used, a.ctx)


def mult(a: SlotVector, b: SlotVector) -> SlotVector:
    """Slot-wise ciphertext-ciphertext product; consumes one depth level."""
    if a.ctx is not b.ctx:
        _check_pair(a, b)
    depth = (a.depth_used if a.depth_used >= b.depth_used else b.depth_used) + 1
    ctx = a.ctx
    if depth > ctx.depth_budget:
        raise DepthExceeded(f"mult would reach depth {depth} > budget {ctx.depth_budget}")
    ctx.ops["ct_mults"] += 1
    return SlotVector(a.slots * b.slots, depth, ctx)


def _coerce_scalars(scalars, capacity: int):
    """A scalar, 0-d or length-1 operand as a float, a capacity-length 1-D
    one as a float64 array; anything else raises ValueError.  A float64
    array of shape (capacity,), as the search's masks are, is checked first."""
    if type(scalars) is np.ndarray and scalars.shape == (capacity,) and scalars.dtype == np.float64:
        return scalars
    if isinstance(scalars, (int, float)):
        return float(scalars)
    vals = np.asarray(scalars, dtype=np.float64)
    if vals.shape in ((), (1,)):
        return float(vals.reshape(-1)[0])
    if vals.shape != (capacity,):
        raise ValueError(
            f"plaintext operand must be a scalar or a 1-D array of length 1 or {capacity}, got shape {vals.shape}"
        )
    return vals


def mult_plain(a: SlotVector, scalars) -> SlotVector:
    """Slot-wise product with a plaintext scalar or capacity-length vector.

    Consumes one depth level (conservative CKKS-style rescale accounting).
    """
    ctx = a.ctx
    depth = a.depth_used + 1
    if depth > ctx.depth_budget:
        raise DepthExceeded(f"mult_plain would reach depth {depth} > budget {ctx.depth_budget}")
    vals = _coerce_scalars(scalars, a.slots.shape[0])
    ctx.ops["pt_mults"] += 1
    return SlotVector(a.slots * vals, depth, ctx)


def add_plain(a: SlotVector, scalars) -> SlotVector:
    """Slot-wise sum with a plaintext scalar or capacity-length vector.

    Free of depth cost (plaintext additions do not consume a level).
    """
    vals = _coerce_scalars(scalars, a.slots.shape[0])
    return SlotVector(a.slots + vals, a.depth_used, a.ctx)


def rotate_left(a: SlotVector, k: int) -> SlotVector:
    """Cyclic left rotation over the full capacity (k reduced mod capacity).

    Counts as one rotation even when the reduced offset is zero -- a real
    scheme still performs the Galois automorphism.
    """
    if k < 0:
        raise ValueError("rotation offset must be >= 0")
    s = a.slots
    cap = s.shape[0]
    k &= cap - 1  # capacity is a power of two
    if cap <= _GATHER_MAX_CAPACITY:
        out = s[_ROTATION_INDEX[cap][k : k + cap]]
    elif k:
        out = np.empty_like(s)
        out[: cap - k] = s[k:]
        out[cap - k :] = s[:k]
    else:
        out = s.copy()
    a.ctx.ops["rotations"] += 1
    return SlotVector(out, a.depth_used, a.ctx)


# --- keyed serialization -----------------------------------------------------
#
# Byte layout: [key_id: 16][nonce: 16][capacity: 4 LE][masked slots: cap x 8 LE].
# Slots are XOR-masked (on their IEEE-754 byte image) with a SHAKE-256
# keystream, the first cap x 8 output bytes for input masking_seed + nonce,
# so the payload of any two plaintexts is byte-indistinguishable without the
# seed, and unmasking is exact.


def _xor_keystream(payload: bytes, ctx: EncryptionContext, nonce: bytes) -> bytes:
    """payload XOR the first len(payload) keystream bytes for ctx and nonce;
    its own inverse."""
    ks = hashlib.shake_256(ctx.masking_seed + nonce).digest(len(payload))
    return (np.frombuffer(payload, dtype=np.uint8) ^ np.frombuffer(ks, dtype=np.uint8)).tobytes()


def serialize_ciphertext(sv: SlotVector, ctx: EncryptionContext) -> bytes:
    """Encode a ciphertext with a fresh nonce and a keyed XOR keystream.

    ctx must hold sv's key, as for decrypt (KeyMismatch otherwise): the
    keystream comes from ctx, so another key's blob could not be read back.
    """
    if sv.ctx.key_id != ctx.key_id:
        raise KeyMismatch("serialize with a foreign context (missing secret key)")
    nonce = ctx._fresh_nonce()
    payload = _xor_keystream(sv.slots.astype("<f8").tobytes(), ctx, nonce)
    return ctx.key_id + nonce + struct.pack("<I", sv.slots.shape[0]) + payload


def deserialize_ciphertext(blob: bytes, ctx: EncryptionContext) -> SlotVector:
    """Reverse serialize_ciphertext under the producing context.

    Depth is not part of the wire format, so the result carries depth 0;
    callers that track depth across persistence restore it from what they
    know produced the value.  Every slot is on the wire, so decrypt gives the
    same array before serialization and after.
    A blob whose header or payload has the wrong length raises IntegrityError.
    """
    if len(blob) < HEADER_LEN:
        raise IntegrityError(f"ciphertext blob of {len(blob)} bytes is shorter than its {HEADER_LEN}-byte header")
    key = blob[:_KEY_LEN]
    if key != ctx.key_id:
        raise KeyMismatch("serialized ciphertext belongs to a different key")
    nonce = blob[_KEY_LEN : _KEY_LEN + _NONCE_LEN]
    (cap,) = struct.unpack("<I", blob[_KEY_LEN + _NONCE_LEN : HEADER_LEN])
    if cap != ctx.slot_capacity:
        raise ValueError(f"blob capacity {cap} != context capacity {ctx.slot_capacity}")
    payload = blob[HEADER_LEN:]
    if len(payload) != cap * 8:
        raise IntegrityError(f"ciphertext payload is {len(payload)} bytes, expected {cap * 8}")
    slots = np.frombuffer(_xor_keystream(payload, ctx, nonce), dtype="<f8").astype(np.float64)
    return SlotVector(slots, 0, ctx)
