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

Batches: a SlotVector may hold B ciphertexts at once, a (B, capacity) slot
array, as SIMD evaluation over many ciphertexts does (Smart-Vercauteren,
DCC 2014).  encrypt makes one from a (B, n) matrix and decrypt returns
(B, capacity).  Every op acts row by row, rotations on the last axis;
binary ops need one row count, and a single ciphertext is no one-row batch.
A batch keeps one depth, the greatest of its rows'.  It is B >= 1
ciphertexts: take reads rows and stack joins ciphertexts, at no HE cost,
and neither makes a zero-row batch; serialize_ciphertext takes one at a
time, so a batch is serialized row by row and draws its rows' nonces.

Op accounting: each context keeps one ledger, ctx.ops, a Counter to which
rotate_left, mult, mult_plain and encrypt each add 1 per ciphertext (rows
or 1: one per row of a batch) under "rotations", "ct_mults", "pt_mults" and
"encryptions"; no other op counts.  It counts the ops performed, so a value
that feeds both sides of an op counts once, and a computation's cost is the
ledger difference around it, whether it ran row by row or as one batch.
Depth stays on each SlotVector: it belongs to a ciphertext, not to a tally.

Capacity invariant: every SlotVector made under a context holds exactly
ctx.slot_capacity slots per row -- encrypt pads to it, deserialize_ciphertext
checks it, and every op keeps its input's shape and rows (see SlotVector).
So add and mult check keys, capacities and shapes only for operands of two
context objects or two row counts.  A rotation is a fixed slot permutation
(the Galois automorphism of CKKS): a single ciphertext of up to
_GATHER_MAX_CAPACITY slots is one gather through a read-only index view
precomputed per (capacity, offset); a batch, and a ciphertext of more
slots, joins its two slices.
"""

from __future__ import annotations

import hashlib
import secrets
import struct
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CapacityExceeded, DepthExceeded, IntegrityError, KeyMismatch

_FLOAT64 = np.dtype(np.float64)
_KEY_LEN = 16
_NONCE_LEN = 16
HEADER_LEN = _KEY_LEN + _NONCE_LEN + 4  # key, nonce, capacity; the slot payload follows

# Largest capacity at which a single ciphertext is rotated by one gather.
# Measured per rotation (timeit, 2 vCPUs, numpy on Python 3.11): the gather
# takes 0.5-0.8 us at 128 slots and 0.9 us at 512, where two slice copies
# take 1.2-2.7 and 1.2-2.1 us; the two tie near 1024 (1.4-1.5 vs 1.2-1.6 us),
# and from 2048 slots on (2.5-3.5 vs 1.6-2.6 us at 2048) the slice copies
# win.  A batch gathers more slowly than it joins its two slices at every
# capacity: 2.33 vs 1.20 us at 128 slots with 2 rows, 2.46 vs 1.52 with 10,
# and 5.99 vs 2.35 us at 512 slots with 10 rows.
_GATHER_MAX_CAPACITY = 512

# Per power-of-two capacity c up to the limit, the c read-only windows of
# arange(c) twice: a left rotation by k < c gathers window k, [k, k + c).
_ROTATION_VIEWS = {
    c: tuple(sliding_window_view(np.tile(np.arange(c), 2), c)[:c])
    for c in (1 << i for i in range(_GATHER_MAX_CAPACITY.bit_length()))
}


class _Ledger(Counter):
    # dict's item assignment: Counter's Python __delitem__ adds ~80 ns per op
    __setitem__ = dict.__setitem__
    __delitem__ = dict.__delitem__


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

    slot_capacity must be a power of two of at most 2^16 slots, checked
    before anything is allocated.  masking_seed is derived from the
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
    ops: Counter = field(default_factory=_Ledger, init=False, repr=False, compare=False)

    def __post_init__(self):
        cap = self.slot_capacity
        # a CKKS ring of degree N gives N / 2 slots: none in the HE Standard's
        # tables (N <= 2^15) or in common libraries (N <= 2^17) gives more than 2^16
        if cap < 1 or cap & (cap - 1) or cap > 65536:
            raise ValueError(f"slot_capacity must be a power of two up to 65536, got {cap}")
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
    """A simulated ciphertext: capacity-length slot array plus its depth, or
    a batch of B ciphertexts: a (B, capacity) array and one depth.

    rows is None for one ciphertext and B for a batch, set by the op that
    makes the value.  Treat instances as immutable; all operations below
    return new values.  Do not read .slots in application code -- that is
    the simulator's backstage, not part of the encrypted-domain contract.
    """

    __slots__ = ("slots", "depth_used", "ctx", "rows")

    def __init__(self, slots, depth_used, ctx, rows):
        self.slots = slots
        self.depth_used = depth_used
        self.ctx = ctx
        self.rows = rows

    def __repr__(self):
        batch = "" if self.rows is None else f"rows={self.rows}, "
        return f"SlotVector({batch}capacity={self.slots.shape[-1]}, depth={self.depth_used})"


def encrypt(values, ctx: EncryptionContext) -> SlotVector:
    """Encrypt a nonempty 1-D array-like: values in the leading slots, zeros
    after.  A nonempty (B, n) matrix is encrypted row by row as a batch of B
    ciphertexts, B encryptions."""
    vals = np.asarray(values, dtype=np.float64)
    vals = vals.reshape(1) if vals.ndim == 0 else vals  # np.atleast_1d costs 0.3 us a call
    if vals.ndim > 2 or vals.size == 0:
        raise ValueError(f"encrypt needs a nonempty 1-D array or (B, n) matrix, got shape {vals.shape}")
    n = vals.shape[-1]
    if n > ctx.slot_capacity:
        raise CapacityExceeded(f"plaintext length {n} > slot capacity {ctx.slot_capacity}")
    slots = np.zeros(vals.shape[:-1] + (ctx.slot_capacity,), dtype=np.float64)
    if vals.ndim == 1:
        slots[:n], rows = vals, None
    else:
        slots[:, :n], rows = vals, len(vals)
    ctx.ops["encryptions"] += rows or 1
    return SlotVector(slots, 0, ctx, rows)


def decrypt(sv: SlotVector, ctx: EncryptionContext) -> np.ndarray:
    """A copy of all capacity slots, (B, capacity) for a batch; requires the producing key."""
    if sv.ctx.key_id != ctx.key_id:
        raise KeyMismatch("decrypt with a foreign context (missing secret key)")
    return sv.slots.copy()


def _check_pair(a: SlotVector, b: SlotVector):
    if a.ctx.key_id != b.ctx.key_id:
        raise KeyMismatch("binary op across ciphertexts under different keys")
    if a.slots.shape[-1] != b.slots.shape[-1]:
        raise ValueError("binary op across ciphertexts of different capacities")
    if a.slots.shape != b.slots.shape:  # a single ciphertext is not a one-row batch
        raise ValueError(f"binary op across batches of different shapes, {a.slots.shape} and {b.slots.shape}")


def add(a: SlotVector, b: SlotVector) -> SlotVector:
    """Slot-wise sum.  Depth is max of the inputs."""
    if a.ctx is not b.ctx or a.rows != b.rows:
        _check_pair(a, b)
    return SlotVector(a.slots + b.slots, a.depth_used if a.depth_used >= b.depth_used else b.depth_used, a.ctx, a.rows)


def mult(a: SlotVector, b: SlotVector) -> SlotVector:
    """Slot-wise ciphertext-ciphertext product; consumes one depth level."""
    if a.ctx is not b.ctx or a.rows != b.rows:
        _check_pair(a, b)
    depth = (a.depth_used if a.depth_used >= b.depth_used else b.depth_used) + 1
    ctx = a.ctx
    if depth > ctx.depth_budget:
        raise DepthExceeded(f"mult would reach depth {depth} > budget {ctx.depth_budget}")
    ctx.ops["ct_mults"] += a.rows or 1
    return SlotVector(a.slots * b.slots, depth, ctx, a.rows)


def _coerce_scalars(scalars, shape: tuple):
    """A scalar, 0-d or length-1 operand as a float; a capacity-length 1-D
    one (applied to every row of a batch), or for a B-row batch a
    (B, capacity) one or a (B, 1) column of one scalar per row, as a float64
    array; anything else raises ValueError."""
    if isinstance(scalars, (int, float)):
        return float(scalars)
    vals = np.asarray(scalars, dtype=np.float64)
    if vals.shape in ((), (1,)):
        return float(vals.reshape(-1)[0])
    if vals.shape != shape[-1:] and (len(shape) == 1 or vals.shape not in (shape, (shape[0], 1))):
        batch = f", or of shape {shape} or ({shape[0]}, 1) for this batch" if len(shape) == 2 else ""
        raise ValueError(
            f"plaintext operand must be a scalar or a 1-D array of length 1 or {shape[-1]}{batch}, got shape {vals.shape}"
        )
    return vals


def mult_plain(a: SlotVector, scalars) -> SlotVector:
    """Slot-wise product with a plaintext scalar or capacity-length vector,
    or, for a batch, a (B, capacity) plaintext or a (B, 1) column of
    scalars, row by row.

    Consumes one depth level (conservative CKKS-style rescale accounting).
    """
    ctx = a.ctx
    depth = a.depth_used + 1
    if depth > ctx.depth_budget:
        raise DepthExceeded(f"mult_plain would reach depth {depth} > budget {ctx.depth_budget}")
    s = a.slots
    # a float64 array of the ciphertext's shape (the search's weights) as it is
    if type(scalars) is not np.ndarray or scalars.dtype != _FLOAT64 or scalars.shape != s.shape:
        scalars = _coerce_scalars(scalars, s.shape)
    ctx.ops["pt_mults"] += a.rows or 1
    return SlotVector(s * scalars, depth, ctx, a.rows)


def add_plain(a: SlotVector, scalars) -> SlotVector:
    """Slot-wise sum with a plaintext operand of the kinds mult_plain takes.

    Free of depth cost (plaintext additions do not consume a level).
    """
    vals = _coerce_scalars(scalars, a.slots.shape)
    return SlotVector(a.slots + vals, a.depth_used, a.ctx, a.rows)


def rotate_left(a: SlotVector, k: int) -> SlotVector:
    """Cyclic left rotation over the full capacity (k reduced mod capacity),
    of every row of a batch.

    Counts as one rotation per row even when the reduced offset is zero -- a
    real scheme still performs the Galois automorphism.
    """
    if k < 0:
        raise ValueError("rotation offset must be >= 0")
    s = a.slots
    cap = s.shape[-1]
    k &= cap - 1  # capacity is a power of two
    if a.rows is None and cap <= _GATHER_MAX_CAPACITY:
        out = s[_ROTATION_VIEWS[cap][k]]
    else:
        out = np.concatenate((s[..., k:], s[..., :k]), axis=-1)
    a.ctx.ops["rotations"] += a.rows or 1
    return SlotVector(out, a.depth_used, a.ctx, a.rows)


def take(sv: SlotVector, index) -> SlotVector:
    """Row index of a batch as a single ciphertext, or rows index (a 1-D
    sequence of ints) as a batch in that order, at the batch's depth.  No HE
    op: a batch is its rows."""
    slots = None if sv.rows is None else sv.slots[index]
    if slots is None or slots.ndim > 2 or len(slots) == 0:
        raise ValueError("take reads a row or a nonempty 1-D list of rows of a batch")
    return SlotVector(slots, sv.depth_used, sv.ctx, None if slots.ndim == 1 else len(slots))


def stack(cts) -> SlotVector:
    """One batch of the rows of cts (single ciphertexts or batches, under one
    key and of one capacity), in order, at the greatest of their depths.  No
    HE op: a batch is its rows."""
    if not cts:
        raise ValueError("stack needs at least one ciphertext")
    first = cts[0]
    if any(ct.ctx.key_id != first.ctx.key_id for ct in cts):
        raise KeyMismatch("stack across ciphertexts under different keys")
    slots = np.vstack([ct.slots for ct in cts])  # ValueError across capacities
    return SlotVector(slots, max(ct.depth_used for ct in cts), first.ctx, len(slots))


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
    """Encode one ciphertext (not a batch) with a fresh nonce and a keyed XOR keystream.

    ctx must hold sv's key, as for decrypt (KeyMismatch otherwise): the
    keystream comes from ctx, so another key's blob could not be read back.
    """
    if sv.ctx.key_id != ctx.key_id:
        raise KeyMismatch("serialize with a foreign context (missing secret key)")
    if sv.rows is not None:
        raise ValueError("serialize_ciphertext takes one ciphertext; serialize a batch's rows one at a time")
    nonce = ctx._fresh_nonce()
    payload = _xor_keystream(sv.slots.astype("<f8").tobytes(), ctx, nonce)
    return ctx.key_id + nonce + struct.pack("<I", sv.slots.shape[0]) + payload


def deserialize_ciphertext(blob: bytes, ctx: EncryptionContext, depth: int) -> SlotVector:
    """Reverse serialize_ciphertext under the producing context.

    Depth is not part of the wire format, so the result carries the depth
    the caller passes, which it knows from what produced the value.  Every
    slot is on the wire, so decrypt gives the same array before
    serialization and after.
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
    return SlotVector(slots, depth, ctx, None)
