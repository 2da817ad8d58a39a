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
    stack,
    take,
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


def test_encrypt_rejects_empty_or_3d(ctx):
    for values in (np.array([]), np.zeros((1, 0)), np.zeros((0, 3)), np.zeros((2, 2, 2)), [[[1.0]]]):
        with pytest.raises(ValueError):
            encrypt(values, ctx)
    assert ctx.ops["encryptions"] == 0


def test_encrypt_takes_a_matrix_as_a_batch(ctx):
    # a (B, n) matrix is B ciphertexts, each padded as a row of its own
    for values in (np.arange(6.0).reshape(2, 3), [[1.0, 2.0]]):
        plain = np.asarray(values, dtype=np.float64)
        before = ctx.ops["encryptions"]
        batch = encrypt(values, ctx)
        assert ctx.ops["encryptions"] - before == len(plain)
        assert batch.depth_used == 0
        assert decrypt(batch, ctx).shape == (len(plain), ctx.slot_capacity)
        assert decrypt(batch, ctx).tolist() == [decrypt(encrypt(row, ctx), ctx).tolist() for row in plain]
    with pytest.raises(CapacityExceeded):
        encrypt(np.zeros((2, 9)), ctx)


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
    deserialize_ciphertext(serialize_ciphertext(x, ctx), ctx, 0)
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


# Capacities on both sides of the gather limit: a single ciphertext of 1, 2
# or 128 slots is gathered, one of 1024 and up and every batch join two slices.
ROTATION_CAPACITIES = [1, 2, 128, 1024, 2048, 4096]


@settings(max_examples=60, deadline=None)
@given(cap=st.sampled_from(ROTATION_CAPACITIES), rows=st.sampled_from([None, 2, 3]), data=st.data())
def test_rotate_left_is_a_cyclic_shift_into_a_fresh_array(cap, rows, data):
    assert 128 <= backend._GATHER_MAX_CAPACITY < 1024
    k = data.draw(st.integers(min_value=0, max_value=3 * cap), label="k")
    ctx = EncryptionContext(cap, 16, key_id="rot")
    slots = np.random.default_rng(cap).normal(size=(cap,) if rows is None else (rows, cap))
    sv = encrypt(slots, ctx)
    out = rotate_left(sv, k)
    assert ctx.ops == {"encryptions": rows or 1, "rotations": rows or 1}
    assert out.rows == rows
    assert out.slots.tolist() == np.roll(slots, -k, axis=-1).tolist()
    out.slots[:] = np.nan  # the result is the caller's own: the input and the index views keep their values
    assert sv.slots.tolist() == slots.tolist()
    assert sorted(backend._ROTATION_VIEWS) == [1 << i for i in range(backend._GATHER_MAX_CAPACITY.bit_length())]
    for c, views in backend._ROTATION_VIEWS.items():
        assert len(views) == c and not any(view.flags.writeable for view in views)
        assert np.array_equal(views, (np.arange(c)[:, None] + np.arange(c)) % c)  # view k is [k, k + c) mod c


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
        deserialize_ciphertext(serialize_ciphertext(a, ctx), ctx, 0),
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
    back = deserialize_ciphertext(serialize_ciphertext(sv, ctx), ctx, 3)
    assert np.max(np.abs(back.slots - sv.slots)) < 1e-12
    assert back.depth_used == 3  # not on the wire: the caller's depth


def test_decrypt_is_the_same_before_and_after_serialization(ctx):
    sv = encrypt([1, 2, 3], ctx)
    back = deserialize_ciphertext(serialize_ciphertext(sv, ctx), ctx, 0)
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
        deserialize_ciphertext(blob, other, 0)


def test_serialize_under_a_foreign_context_rejected(ctx):
    # the header would name the vector's key and the mask come from the
    # other context, so no context could read the blob back
    other = EncryptionContext(8, 16, key_id="eve")
    sv = encrypt([1.0, 2.0, 3.0], ctx)
    with pytest.raises(KeyMismatch):
        serialize_ciphertext(sv, other)
    assert decrypt(deserialize_ciphertext(serialize_ciphertext(sv, ctx), ctx, 0), ctx)[:3].tolist() == [1, 2, 3]


@pytest.mark.parametrize("size", [0, 20, 34, 35, 36, 37, 99, 101])
def test_deserialize_wrong_length_is_integrity_error(ctx, size):
    blob = serialize_ciphertext(encrypt([1.0, 2.0], ctx), ctx)  # 100 bytes at capacity 8
    blob = (blob + b"\0")[:size]
    with pytest.raises(IntegrityError):
        deserialize_ciphertext(blob, ctx, 0)
    with pytest.raises(ValueError):  # IntegrityError is also a ValueError
        deserialize_ciphertext(blob, ctx, 0)


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


# --- batches -------------------------------------------------------------------


def _bits(values) -> bytes:
    return np.ascontiguousarray(values, dtype=np.float64).tobytes()


# A batch joins two slices at every capacity.  At 128 slots its rows are
# checked against single ciphertexts rotated by a gather, at 1024 against
# single ones that join two slices as well.
@pytest.mark.parametrize("cap", [128, 1024])
def test_batch_ops_are_bit_identical_to_the_same_ops_row_by_row(cap):
    assert 128 <= backend._GATHER_MAX_CAPACITY < 1024
    ctx = EncryptionContext(cap, 16, key_id="batch")
    rng = np.random.default_rng(cap)
    x, y = rng.normal(size=(3, cap - 3)), rng.normal(size=(3, cap))
    plain_rows, plain_vec = rng.normal(size=(3, cap)), rng.normal(size=cap)
    a, b = encrypt(x, ctx), encrypt(y, ctx)
    ops = {
        "add": (lambda u, v, i: add(u, v)),
        "mult": (lambda u, v, i: mult(u, v)),
        "mult_plain scalar": (lambda u, v, i: mult_plain(u, -1.5)),
        "mult_plain vector": (lambda u, v, i: mult_plain(u, plain_vec)),
        "mult_plain per row": (lambda u, v, i: mult_plain(u, plain_rows if i is None else plain_rows[i])),
        "mult_plain row scalars": (lambda u, v, i: mult_plain(u, plain_rows[:, :1] if i is None else plain_rows[i, 0])),
        "add_plain per row": (lambda u, v, i: add_plain(u, plain_rows if i is None else plain_rows[i])),
        **{f"rotate {k}": (lambda u, v, i, k=k: rotate_left(u, k)) for k in (0, 1, 5, cap - 1, cap + 3)},
    }
    for name, op in ops.items():
        batched = decrypt(op(a, b, None), ctx)
        assert batched.shape == (3, cap), name
        for i in range(3):
            single = decrypt(op(encrypt(x[i], ctx), encrypt(y[i], ctx), i), ctx)
            assert _bits(batched[i]) == _bits(single), (name, i)


def test_ledger_counts_one_op_per_row():
    ctx = EncryptionContext(8, 16, key_id="batch")
    a = encrypt(np.ones((4, 3)), ctx)
    assert ctx.ops == {"encryptions": 4}
    r = rotate_left(a, 1)
    m = mult(r, a)
    p = mult_plain(m, np.ones((4, 8)))
    assert ctx.ops == {"encryptions": 4, "rotations": 4, "ct_mults": 4, "pt_mults": 4}
    before = ctx.ops.copy()
    add(p, a)
    add_plain(p, 1.0)
    decrypt(p, ctx)
    parts = [take(p, b) for b in range(4)]
    stack(parts)
    take(p, [3, 0])
    assert ctx.ops == before
    assert len(parts) == 4 and all(part.depth_used == p.depth_used == 2 for part in parts)


def test_take_and_stack_split_and_join_a_batch_at_no_cost(ctx):
    values = np.arange(12.0).reshape(3, 4)
    batch = encrypt(values, ctx)
    singles = [encrypt(row, ctx) for row in values]
    before = ctx.ops.copy()
    parts = [take(batch, b) for b in range(3)]
    assert [decrypt(part, ctx).tolist() for part in parts] == [decrypt(s, ctx).tolist() for s in singles]
    assert all(decrypt(part, ctx).shape == (ctx.slot_capacity,) for part in parts)
    picked = take(batch, np.array([2, 0]))
    assert decrypt(picked, ctx).tolist() == [decrypt(singles[2], ctx).tolist(), decrypt(singles[0], ctx).tolist()]
    assert decrypt(stack(parts), ctx).tolist() == decrypt(batch, ctx).tolist()
    assert decrypt(stack(singles), ctx).tolist() == decrypt(batch, ctx).tolist()
    # batches and single ciphertexts join in order, at the greatest depth
    deeper = mult(singles[0], singles[0])
    joined = stack([batch, deeper])
    assert decrypt(joined, ctx).tolist() == decrypt(batch, ctx).tolist() + [decrypt(deeper, ctx).tolist()]
    assert joined.depth_used == 1
    assert ctx.ops - before == {"ct_mults": 1}
    with pytest.raises(ValueError):  # a single ciphertext has no rows
        take(singles[0], 0)
    with pytest.raises(ValueError):  # an index is an int or a 1-D list
        take(batch, [[0, 1]])
    with pytest.raises(KeyMismatch):
        stack([batch, encrypt([1.0], EncryptionContext(8, 16, key_id="eve"))])
    with pytest.raises(ValueError):
        stack([batch, encrypt([1.0], EncryptionContext(4, 16, key_id="alice"))])


def test_take_and_stack_refuse_to_make_a_zero_row_batch(ctx):
    # a zero-row batch would count as one ciphertext on every op (rows or 1)
    batch = encrypt(np.ones((2, 3)), ctx)
    before = ctx.ops.copy()
    for index in ([], np.array([], dtype=np.intp)):
        with pytest.raises(ValueError, match="nonempty 1-D list of rows"):
            take(batch, index)
    with pytest.raises(ValueError, match="at least one ciphertext"):
        stack([])
    assert ctx.ops == before


def test_binary_ops_refuse_batches_of_different_sizes(ctx):
    two, three = encrypt(np.ones((2, 3)), ctx), encrypt(np.ones((3, 3)), ctx)
    one_row, single = encrypt(np.ones((1, 3)), ctx), encrypt(np.ones(3), ctx)
    for op in (add, mult):
        for a, b in ((two, three), (three, two), (two, one_row), (one_row, two), (single, two), (two, single)):
            with pytest.raises(ValueError, match="batches of"):
                op(a, b)


def test_depth_is_one_number_per_batch(ctx):
    a = encrypt(np.ones((2, 3)), ctx)
    assert mult(mult(a, a), a).depth_used == 2
    assert mult_plain(a, np.ones((2, 8))).depth_used == 1


def test_a_batch_takes_plaintexts_of_its_own_shape_or_one_for_every_row(ctx):
    batch = encrypt(np.ones((2, 3)), ctx)
    assert decrypt(mult_plain(batch, np.full((2, 8), 2.0)), ctx)[:, 0].tolist() == [2.0, 2.0]
    assert decrypt(mult_plain(batch, np.full(8, 3.0)), ctx)[:, 0].tolist() == [3.0, 3.0]
    # a (B, 1) column is one scalar per row, over all of that row's slots
    assert decrypt(mult_plain(batch, np.array([[2.0], [5.0]])), ctx)[:, :3].tolist() == [[2.0] * 3, [5.0] * 3]
    for operand in (np.ones((3, 8)), np.ones((3, 1)), np.ones((8, 2)), np.ones((1, 8)), np.ones((2, 4))):
        for op in (mult_plain, add_plain):
            with pytest.raises(ValueError, match="scalar or a 1-D array"):
                op(batch, operand)


def test_serialize_refuses_a_batch_and_takes_its_rows(ctx):
    seeded = EncryptionContext(8, 16, key_id="alice", nonce_seed=3)
    twin = EncryptionContext(8, 16, key_id="alice", nonce_seed=3)
    values = np.arange(6.0).reshape(2, 3)
    batch = encrypt(values, seeded)
    with pytest.raises(ValueError, match="one ciphertext"):
        serialize_ciphertext(batch, seeded)
    # row by row, the blobs and the nonce stream are those of single ciphertexts
    blobs = [serialize_ciphertext(take(batch, b), seeded) for b in range(2)]
    assert blobs == [serialize_ciphertext(encrypt(row, twin), twin) for row in values]
    assert [decrypt(deserialize_ciphertext(blob, seeded, 0), seeded)[:3].tolist() for blob in blobs] == values.tolist()


def test_a_single_ciphertext_and_a_one_row_batch_do_not_mix(ctx):
    # equal slot counts, different shapes: the sum would be a one-row batch
    # that serialize_ciphertext refuses
    single, one_row = encrypt(np.ones(3), ctx), encrypt(np.ones((1, 3)), ctx)
    twin = EncryptionContext(8, 16, key_id="alice")  # another context object of the same key
    for op in (add, mult):
        for a, b in ((single, one_row), (one_row, single), (single, encrypt(np.ones((1, 3)), twin))):
            with pytest.raises(ValueError, match="batches of"):
                op(a, b)
    assert add(one_row, one_row).rows == mult(one_row, one_row).rows == 1


def _rows_of(slots) -> int | None:
    return None if slots.ndim == 1 else len(slots)


@pytest.mark.parametrize("values", [np.arange(3.0), np.arange(6.0).reshape(2, 3), np.ones((1, 3))])
def test_every_op_sets_rows_and_the_ledger_counts_rows_or_one(ctx, values):
    # rows is None for one ciphertext and B for a B-row batch, on every op
    # that makes a SlotVector; a counted op adds rows or 1 to its kind
    made = encrypt(values, ctx)
    assert made.rows == _rows_of(made.slots) == (None if values.ndim == 1 else len(values))
    assert ctx.ops == {"encryptions": made.rows or 1}
    plain = np.full(made.slots.shape, 2.0)
    ops = {
        "add": (lambda: add(made, made), None),
        "mult": (lambda: mult(made, made), "ct_mults"),
        "mult_plain scalar": (lambda: mult_plain(made, 2.0), "pt_mults"),
        "mult_plain own shape": (lambda: mult_plain(made, plain), "pt_mults"),
        "add_plain": (lambda: add_plain(made, plain), None),
        "rotate_left": (lambda: rotate_left(made, 3), "rotations"),
        "encrypt": (lambda: encrypt(values, ctx), "encryptions"),
        "stack": (lambda: stack([made, made]), None),
    }
    if made.rows is None:
        ops["deserialize_ciphertext"] = (lambda: deserialize_ciphertext(serialize_ciphertext(made, ctx), ctx, 0), None)
    else:
        ops["take row"] = (lambda: take(made, 0), None)
        ops["take rows"] = (lambda: take(made, [0] * made.rows), None)
    for name, (op, kind) in ops.items():
        before = ctx.ops.copy()
        out = op()
        assert out.rows == _rows_of(out.slots), name
        assert ctx.ops - before == ({kind: out.rows or 1} if kind else {}), name
    assert stack([made, made]).rows == 2 * (made.rows or 1)
