import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyfhe import backend
from polyfhe.backend import (
    EncryptionContext,
    add,
    add_plain,
    decrypt,
    deserialize_ciphertext,
    encrypt,
    mult,
    mult_plain,
    rotate_left,
    serialize_ciphertext,
)
from polyfhe.errors import CapacityExceeded, DepthExceeded, IntegrityError, KeyMismatch
from polyfhe.summation import dft_sum, fold_add_all, naive_add_all


@pytest.fixture
def ctx():
    return EncryptionContext(8, 16, key_id="alice")


def test_context_validation():
    with pytest.raises(ValueError):
        EncryptionContext(12, 16)  # not a power of two
    with pytest.raises(ValueError):
        EncryptionContext(8, 0)


def test_distinct_keys_distinct_masking_seeds():
    a = EncryptionContext(8, 16, key_id="alice")
    b = EncryptionContext(8, 16, key_id="bob")
    assert a.masking_seed != b.masking_seed
    assert len(a.masking_seed) == 32


def test_encrypt_rejects_empty_or_2d(ctx):
    for values in (np.array([]), np.zeros((2, 3)), np.zeros((1, 0)), [[1.0, 2.0]]):
        with pytest.raises(ValueError):
            encrypt(values, ctx)
    assert ctx.ops["encryptions"] == 0


def test_encrypt_pads_with_zeros(ctx):
    ctx4 = EncryptionContext(4, 16, key_id="alice")
    sv = encrypt([1, 2, 3], ctx4)
    assert sv.slots.tolist() == [1, 2, 3, 0]
    assert sv.depth_used == 0
    assert ctx4.ops == {"encryptions": 1}


def test_encrypt_empty_is_error(ctx):
    with pytest.raises(ValueError):
        encrypt([], ctx)


def test_encrypt_capacity_boundary():
    big = EncryptionContext(2048, 16, key_id="alice")
    with pytest.raises(CapacityExceeded):
        encrypt(np.full(2049, 0.5), big)
    encrypt(np.full(2048, 0.5), big)  # exactly at capacity is fine


def test_decrypt_round_trip(ctx):
    out = decrypt(encrypt([1, 2, 3], ctx), ctx)
    assert isinstance(out, np.ndarray) and out.tolist() == [1, 2, 3, 0, 0, 0, 0, 0]


def test_encrypt_scalar_is_one_slot(ctx):
    assert decrypt(encrypt(2.5, ctx), ctx).tolist() == [2.5, 0, 0, 0, 0, 0, 0, 0]


def test_decrypt_returns_a_copy(ctx):
    sv = encrypt([1, 2, 3], ctx)
    decrypt(sv, ctx)[0] = 99.0
    assert decrypt(sv, ctx)[0] == 1.0


def test_decrypt_foreign_context_is_key_mismatch(ctx):
    other = EncryptionContext(8, 16, key_id="mallory")
    with pytest.raises(KeyMismatch):
        decrypt(encrypt([1.0], ctx), other)


def test_add_homomorphism_example(ctx):
    out = add(encrypt([1, 2], ctx), encrypt([3, 4], ctx))
    assert decrypt(out, ctx).tolist() == [4, 6, 0, 0, 0, 0, 0, 0]


def test_add_zero_identity(ctx):
    a = encrypt([1.5, -2.5, 3.0], ctx)
    z = encrypt([0, 0, 0], ctx)
    assert decrypt(add(a, z), ctx).tolist() == [1.5, -2.5, 3.0, 0, 0, 0, 0, 0]


def test_add_depth_is_max(ctx):
    # build operands at depths 2 and 3 through mult chains
    a = encrypt([1.0], ctx)
    two = mult(mult(a, a), a)  # depth 2
    three = mult(two, a)  # depth 3
    assert two.depth_used == 2 and three.depth_used == 3
    assert add(two, three).depth_used == 3


def test_mult_example(ctx):
    out = mult(encrypt([2, 3], ctx), encrypt([4, 5], ctx))
    assert decrypt(out, ctx).tolist() == [8, 15, 0, 0, 0, 0, 0, 0]
    assert out.depth_used == 1


def test_mult_chain_hits_depth_budget():
    small = EncryptionContext(4, 3, key_id="alice")
    acc = encrypt([1.0], small)
    base = encrypt([1.0], small)
    for _ in range(small.depth_budget):
        acc = mult(acc, base)
    assert acc.depth_used == small.depth_budget
    assert acc.ctx is base.ctx  # the same-context path, which skips the pair check, still checks depth
    with pytest.raises(DepthExceeded):
        mult(acc, base)


def test_mult_exact_mode_100_random_pairs(ctx):
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.uniform(-2, 2, 8)
        y = rng.uniform(-2, 2, 8)
        got_mul = decrypt(mult(encrypt(x, ctx), encrypt(y, ctx)), ctx)
        got_add = decrypt(add(encrypt(x, ctx), encrypt(y, ctx)), ctx)
        assert np.max(np.abs(got_mul - x * y)) < 1e-12
        assert np.max(np.abs(got_add - (x + y))) < 1e-12


def test_mult_plain_examples(ctx):
    sv = encrypt([1, 2, 3], ctx)
    assert decrypt(mult_plain(sv, 2.0), ctx).tolist() == [2, 4, 6, 0, 0, 0, 0, 0]
    by_one = mult_plain(sv, 1.0)
    assert decrypt(by_one, ctx).tolist() == [1, 2, 3, 0, 0, 0, 0, 0]
    assert by_one.depth_used == sv.depth_used + 1  # identity value, non-identity depth


def test_mult_plain_mask(ctx):
    ctx4 = EncryptionContext(4, 16, key_id="alice")
    sv = encrypt([5, 6, 7, 8], ctx4)
    masked = mult_plain(sv, np.array([1.0, 0.0, 1.0, 0.0]))
    assert masked.slots.tolist() == [5, 0, 7, 0]


def test_mult_plain_rejects_bad_length(ctx):
    sv = encrypt([1, 2, 3], ctx)
    with pytest.raises(ValueError):
        mult_plain(sv, np.array([1.0, 2.0, 3.0]))  # neither 1 nor capacity


@pytest.mark.parametrize("op", [mult_plain, add_plain])
@pytest.mark.parametrize("operand", [
    np.ones((8, 1)),  # float64 of capacity length, but 2-D: the fast path must not take it
    np.ones((1, 8)),
    np.ones((1, 1)),
    np.ones((2, 4)),
    [[1.0]] * 8,
    np.ones(0),
])
def test_plain_ops_reject_operands_other_than_scalars_and_1d_arrays(ctx, op, operand):
    sv = encrypt([1, 2, 3], ctx)
    with pytest.raises(ValueError, match="scalar or a 1-D array"):
        op(sv, operand)


@pytest.mark.parametrize("op", [mult_plain, add_plain])
@pytest.mark.parametrize("operand", [
    2,
    2.0,
    np.float64(2.0),
    np.array(2.0),
    np.array([2.0]),
    [2],
    [2] * 8,
    np.full(8, 2.0),
    np.full(16, 2.0)[::2],  # a strided float64 view of capacity length
    np.full(8, 2, dtype=np.int64),
])
def test_plain_ops_accept_scalars_and_1d_arrays(ctx, op, operand):
    sv = encrypt([1, 2, 3], ctx)
    out = decrypt(op(sv, operand), ctx)
    assert out.shape == (8,)
    want = [2, 4, 6, 0, 0, 0, 0, 0] if op is mult_plain else [3, 4, 5, 2, 2, 2, 2, 2]
    assert out.tolist() == want


def test_add_plain_costs_no_depth(ctx):
    sv = encrypt([1, 2, 3], ctx)
    out = add_plain(sv, 0.5)
    assert out.depth_used == sv.depth_used
    assert decrypt(out, ctx).tolist() == [1.5, 2.5, 3.5, 0.5, 0.5, 0.5, 0.5, 0.5]  # the padding too


def test_rotate_example(ctx):
    ctx4 = EncryptionContext(4, 16, key_id="alice")
    sv = encrypt([1, 2, 3, 4], ctx4)
    assert rotate_left(sv, 1).slots.tolist() == [2, 3, 4, 1]


def test_rotate_full_cycle_counts(ctx):
    sv = encrypt([1, 2, 3], ctx)
    before = ctx.ops["rotations"]
    back = rotate_left(sv, 8)
    assert back.slots.tolist() == sv.slots.tolist()
    assert ctx.ops["rotations"] == before + 1


def test_ledger_counts_each_op_once_under_its_own_kind(ctx):
    x = encrypt([1.0, 2.0], ctx)
    r = rotate_left(x, 1)
    assert ctx.ops == {"encryptions": 1, "rotations": 1}
    # a value that feeds both sides of an op still counts once
    add(r, r)
    assert ctx.ops == {"encryptions": 1, "rotations": 1}
    mult(r, r)
    assert ctx.ops == {"encryptions": 1, "rotations": 1, "ct_mults": 1}
    mult_plain(r, 2.0)
    assert ctx.ops == {"encryptions": 1, "rotations": 1, "ct_mults": 1, "pt_mults": 1}


def test_ledger_ignores_additions_decryption_and_serialization(ctx):
    x = encrypt([1.0, 2.0], ctx)
    before = ctx.ops.copy()
    add(x, x)
    add_plain(x, 1.0)
    decrypt(x, ctx)
    deserialize_ciphertext(serialize_ciphertext(x, ctx), ctx)
    assert ctx.ops == before == {"encryptions": 1}


def test_ledger_is_per_context():
    a = EncryptionContext(8, 16, key_id="alice")
    b = EncryptionContext(8, 16, key_id="alice")
    rotate_left(encrypt([1.0], a), 1)
    assert a.ops == {"encryptions": 1, "rotations": 1}
    assert b.ops == {}
    assert a == b  # the ledger is not part of a context's identity


def test_rotate_negative_rejected(ctx):
    with pytest.raises(ValueError):
        rotate_left(encrypt([1.0], ctx), -1)


@settings(max_examples=50, deadline=None)
@given(a=st.integers(min_value=0, max_value=64), b=st.integers(min_value=0, max_value=64))
def test_rotation_group_law(a, b):
    ctx = EncryptionContext(16, 16, key_id="rot")
    sv = encrypt(np.arange(16.0), ctx)
    composed = rotate_left(rotate_left(sv, a), b)
    assert ctx.ops["rotations"] == 2
    assert composed.slots.tolist() == rotate_left(sv, a + b).slots.tolist()


# Capacities on both sides of the gather limit: 1, 2 and 128 gather, 1024 and up copy two slices.
ROTATION_CAPACITIES = [1, 2, 128, 1024, 2048, 4096]


@settings(max_examples=60, deadline=None)
@given(cap=st.sampled_from(ROTATION_CAPACITIES), data=st.data())
def test_rotate_left_is_a_cyclic_shift_into_a_fresh_array(cap, data):
    assert 128 <= backend._GATHER_MAX_CAPACITY < 1024
    k = data.draw(st.integers(min_value=0, max_value=3 * cap), label="k")
    ctx = EncryptionContext(cap, 16, key_id="rot")
    slots = np.random.default_rng(cap).normal(size=cap)
    sv = encrypt(slots, ctx)
    out = rotate_left(sv, k)
    assert ctx.ops == {"encryptions": 1, "rotations": 1}
    assert out.slots.tolist() == np.roll(slots, -k).tolist()
    out.slots[:] = np.nan  # the result is the caller's own: the input and the index tables keep their values
    assert sv.slots.tolist() == slots.tolist()
    assert sorted(backend._ROTATION_INDEX) == [1 << i for i in range(backend._GATHER_MAX_CAPACITY.bit_length())]
    for c, idx in backend._ROTATION_INDEX.items():
        assert not idx.flags.writeable
        assert idx.tolist() == list(range(c)) * 2


@settings(max_examples=30, deadline=None)
@given(log_cap=st.integers(min_value=0, max_value=8), key=st.text(max_size=8), k=st.integers(min_value=0, max_value=300))
def test_every_op_carries_its_input_context(log_cap, key, k):
    ctx = EncryptionContext(1 << log_cap, 16, key_id=key)
    a = encrypt([0.5], ctx)
    b = encrypt([2.0], ctx)
    results = [
        a,
        add(a, b),
        mult(a, b),
        mult_plain(a, 3.0),
        add_plain(a, 1.0),
        rotate_left(a, k),
        deserialize_ciphertext(serialize_ciphertext(a, ctx), ctx),
        naive_add_all(a, 1 << log_cap),
        fold_add_all(a, 1 << log_cap),
        dft_sum(a, 1 << log_cap),
    ]
    assert all(r.ctx is ctx for r in results)


def test_depth_monotone_along_chains(ctx):
    sv = encrypt(np.ones(8) * 0.5, ctx)
    depth = 0
    for i in range(5):
        sv = mult(sv, sv) if i % 2 else add(sv, sv)
        assert sv.depth_used >= depth
        depth = sv.depth_used


def test_mult_chain_depth_equals_length(ctx):
    base = encrypt(np.ones(8), ctx)
    acc = base
    for length in range(1, 8):
        acc = mult(acc, base)
        assert acc.depth_used == length


def test_key_isolation_binary_ops(ctx):
    other = EncryptionContext(8, 16, key_id="eve")
    a = encrypt([1.0], ctx)
    b = encrypt([1.0], other)
    for op in (add, mult):
        with pytest.raises(KeyMismatch):
            op(a, b)


def test_pair_check_across_contexts_of_one_key():
    small = EncryptionContext(4, 16, key_id="alice")
    large = EncryptionContext(8, 16, key_id="alice")
    twin = EncryptionContext(4, 16, key_id="alice")
    a = encrypt([1.0, 2.0], small)
    for op in (add, mult):
        with pytest.raises(ValueError, match="different capacities"):
            op(a, encrypt([1.0], large))
    # an equal context that is another object passes the full check
    b = encrypt([3.0], twin)
    assert decrypt(add(a, b), small).tolist() == [4.0, 2.0, 0.0, 0.0]
    assert decrypt(mult(a, b), small).tolist() == [3.0, 0.0, 0.0, 0.0]


def test_serialize_round_trip_exact(ctx):
    rng = np.random.default_rng(5)
    sv = encrypt(rng.normal(size=8), ctx)
    back = deserialize_ciphertext(serialize_ciphertext(sv, ctx), ctx)
    assert np.max(np.abs(back.slots - sv.slots)) < 1e-12


def test_decrypt_is_the_same_before_and_after_serialization(ctx):
    sv = encrypt([1, 2, 3], ctx)
    back = deserialize_ciphertext(serialize_ciphertext(sv, ctx), ctx)
    assert np.array_equal(decrypt(back, ctx), decrypt(sv, ctx))
    assert decrypt(back, ctx).shape == (ctx.slot_capacity,)


def test_serialize_fresh_nonce(ctx):
    sv = encrypt([1, 2, 3], ctx)
    assert serialize_ciphertext(sv, ctx) != serialize_ciphertext(sv, ctx)


def test_serialize_seeded_nonce_stream_is_reproducible():
    # fresh nonce per call, but the stream replays across same-seed contexts
    a = EncryptionContext(8, 16, key_id="alice", nonce_seed=5)
    b = EncryptionContext(8, 16, key_id="alice", nonce_seed=5)
    sva = encrypt([1, 2, 3], a)
    svb = encrypt([1, 2, 3], b)
    first_a, second_a = serialize_ciphertext(sva, a), serialize_ciphertext(sva, a)
    first_b, second_b = serialize_ciphertext(svb, b), serialize_ciphertext(svb, b)
    assert first_a != second_a
    assert first_a == first_b and second_a == second_b


def test_serialize_layout(ctx):
    sv = encrypt([1, 2, 3], ctx)
    blob = serialize_ciphertext(sv, ctx)
    assert len(blob) == 16 + 16 + 4 + 8 * ctx.slot_capacity
    assert blob[:16] == ctx.key_id
    assert int.from_bytes(blob[32:36], "little") == ctx.slot_capacity


def test_deserialize_foreign_key_rejected(ctx):
    other = EncryptionContext(8, 16, key_id="eve")
    blob = serialize_ciphertext(encrypt([1.0], ctx), ctx)
    with pytest.raises(KeyMismatch):
        deserialize_ciphertext(blob, other)


def test_serialize_under_a_foreign_context_rejected(ctx):
    # the header would name the vector's key and the mask come from the
    # other context, so no context could read the blob back
    other = EncryptionContext(8, 16, key_id="eve")
    sv = encrypt([1.0, 2.0, 3.0], ctx)
    with pytest.raises(KeyMismatch):
        serialize_ciphertext(sv, other)
    assert decrypt(deserialize_ciphertext(serialize_ciphertext(sv, ctx), ctx), ctx)[:3].tolist() == [1, 2, 3]


@pytest.mark.parametrize("size", [0, 20, 34, 35, 36, 37, 99, 101])
def test_deserialize_wrong_length_is_integrity_error(ctx, size):
    blob = serialize_ciphertext(encrypt([1.0, 2.0], ctx), ctx)  # 100 bytes at capacity 8
    blob = (blob + b"\0")[:size]
    with pytest.raises(IntegrityError):
        deserialize_ciphertext(blob, ctx)
    with pytest.raises(ValueError):  # IntegrityError is also a ValueError
        deserialize_ciphertext(blob, ctx)


def test_serialization_byte_frequency_indistinguishable():
    # chi-square over payload byte histograms of two fixed plaintexts;
    # under H0 the statistic is ~ chi2(255): mean 255, sd sqrt(510).
    # seeded nonce stream keeps the draw (and hence the verdict) fixed
    ctx = EncryptionContext(8, 16, key_id="alice", nonce_seed=99)
    a = encrypt([1, 2, 3, 4, 5, 6, 7, 8], ctx)
    b = encrypt([-0.3, 0.9, 100.0, 0.0, 3.14, -8.0, 0.5, 2.0], ctx)
    hists = []
    for sv in (a, b):
        payload = b"".join(serialize_ciphertext(sv, ctx)[36:] for _ in range(1000))
        hists.append(np.bincount(np.frombuffer(payload, dtype=np.uint8), minlength=256).astype(float))
    o1, o2 = hists
    stat = float((((o1 - o2) ** 2) / (o1 + o2 + 1e-12)).sum())
    df = 255
    assert stat < df + 3 * np.sqrt(2 * df)
