import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyfhe.backend import EncryptionContext, encrypt
from polyfhe.summation import (
    bench_summation,
    broadcast_slot0,
    dft_sum,
    fold_add_all,
    naive_add_all,
    write_bench_csv,
)


@pytest.fixture
def ctx():
    return EncryptionContext(1024, 16, key_id="sum")


def counted(kernel, sv, n):
    """kernel(sv, n) and the ledger difference around that call."""
    before = sv.ctx.ops.copy()
    out = kernel(sv, n)
    return out, sv.ctx.ops - before


def test_naive_example(ctx):
    ctx8 = EncryptionContext(8, 16, key_id="sum")
    out, ops = counted(naive_add_all, encrypt([1, 2, 3, 4], ctx8), 4)
    assert out.slots[0] == 10  # brute force 1+2+3+4
    assert ops["rotations"] == 3


def test_naive_n1_is_identity(ctx):
    sv = encrypt([7.0, 1.0], ctx)
    out, ops = counted(naive_add_all, sv, 1)
    assert out.slots.tolist() == sv.slots.tolist()
    assert ops["rotations"] == 0


def test_naive_single_nonzero(ctx):
    out, ops = counted(naive_add_all, encrypt([5, 0], ctx), 2)
    assert out.slots[0] == 5
    assert ops["rotations"] == 1


def test_naive_replicates_at_full_capacity():
    # when n == capacity the rotation windows wrap the whole ring, so every
    # slot carries the total
    ctx8 = EncryptionContext(8, 16, key_id="sum")
    data = np.arange(1.0, 9.0)
    out = naive_add_all(encrypt(data, ctx8), 8)
    assert np.allclose(out.slots, data.sum())


def test_fold_example_matches_naive(ctx):
    ctx4 = EncryptionContext(4, 16, key_id="sum")
    sv = encrypt([1, 2, 3, 4], ctx4)
    out, ops = counted(fold_add_all, sv, 4)
    assert out.slots[0] == 10
    assert ops["rotations"] == 2
    assert out.slots[0] == naive_add_all(sv, 4).slots[0]


def test_fold_n1(ctx):
    sv = encrypt([3.0], ctx)
    out, ops = counted(fold_add_all, sv, 1)
    assert out.slots[0] == 3.0
    assert ops["rotations"] == 0


def test_fold_1024_ones(ctx):
    out, ops = counted(fold_add_all, encrypt(np.ones(1024), ctx), 1024)
    assert out.slots[0] == 1024
    assert ops["rotations"] == 10  # versus naive's 1023


def test_fold_incomplete_without_last_step(ctx):
    # the printed loop that stops before the rotate-by-1 step undercounts;
    # emulate it and show the sum is short for n > 2
    from polyfhe.backend import add, rotate_left

    ctx8 = EncryptionContext(8, 16, key_id="sum")
    c = encrypt([1, 2, 3, 4], ctx8)
    k = 2
    acc = c
    for i in range(k - 1, 0, -1):  # stops at i=1, omitting 2^0
        acc = add(acc, rotate_left(acc, 1 << i))
    assert acc.slots[0] != 10
    assert fold_add_all(c, 4).slots[0] == 10


def test_dft_example(ctx):
    ctx4 = EncryptionContext(4, 16, key_id="sum")
    out, ops = counted(dft_sum, encrypt([1, 2, 3, 4], ctx4), 4)
    assert abs(out.slots[0] - 10) < 1e-12
    assert ops["rotations"] == 3 and ops["ct_mults"] + ops["pt_mults"] == 4
    assert out.depth_used == 1


def test_dft_zero_input(ctx):
    out = dft_sum(encrypt(np.zeros(16), ctx), 16)
    assert out.slots[0] == 0.0


def test_dft_matches_naive_random_32(ctx):
    rng = np.random.default_rng(2)
    data = rng.normal(size=32)
    sv = encrypt(data, ctx)
    assert abs(dft_sum(sv, 32).slots[0] - naive_add_all(sv, 32).slots[0]) < 1e-10


@pytest.mark.parametrize("n", sorted(set(list(range(1, 33)) + [100, 255, 256, 511, 1000, 1024])))
def test_kernel_agreement_and_counters(ctx, n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        data = rng.uniform(-1, 1, n)
        sv = encrypt(data, ctx)
        expected = data.sum()
        na, na_ops = counted(naive_add_all, sv, n)
        fo, fo_ops = counted(fold_add_all, sv, n)
        df = dft_sum(sv, n)
        assert abs(na.slots[0] - expected) < 1e-9
        assert abs(fo.slots[0] - expected) < 1e-9
        assert abs(df.slots[0] - expected) < 1e-9
        assert na_ops["rotations"] == n - 1
        assert fo_ops["rotations"] == (n - 1).bit_length()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=200),
    extra=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    start=st.integers(min_value=0, max_value=2**11 - 1),
)
def test_kernels_sum_any_n_in_any_larger_capacity(n, extra, seed, start):
    # capacity: the next power of two at or above n, then up to 8x larger
    cap = 1 << ((n - 1).bit_length() + extra)
    ctx = EncryptionContext(cap, 16, key_id="sum")
    data = np.random.default_rng(seed).uniform(-1, 1, n)
    sv = encrypt(data, ctx)
    expected = data.sum()
    for kernel, rotations in ((fold_add_all, (n - 1).bit_length()), (naive_add_all, n - 1), (dft_sum, n - 1)):
        out, ops = counted(kernel, sv, n)
        assert out.slots[0] == pytest.approx(expected, rel=1e-9, abs=1e-9)
        assert ops["rotations"] == rotations
    # fold is shift-invariant: the same data starting at any slot j (wrapping
    # round the ring) sums into slot j, bit for bit as at slot 0
    j = start % cap
    shifted = fold_add_all(encrypt(np.roll(sv.slots, j), ctx), n)
    assert shifted.slots[j] == fold_add_all(sv, n).slots[0]


def test_kernels_reject_oversize(ctx):
    sv = encrypt([1.0], ctx)
    for kernel in (naive_add_all, fold_add_all, dft_sum):
        with pytest.raises(ValueError):
            kernel(sv, 4096)
        with pytest.raises(ValueError):
            kernel(sv, 0)


def test_broadcast_slot0(ctx):
    ctx8 = EncryptionContext(8, 16, key_id="sum")
    sv = encrypt([42.0, 7.0, 9.0], ctx8)
    out = broadcast_slot0(sv, 5)
    assert out.slots.tolist() == [42.0] * 5 + [0.0] * 3
    assert out.depth_used == sv.depth_used + 1


def test_bench_rows_and_counts(ctx, tmp_path):
    rows = bench_summation([2, 8, 64], ctx, seed=0, repeats=1)
    assert len(rows) == 9
    eight = {r.method: r for r in rows if r.n == 8}
    assert eight["naive"].rotations == 7
    assert eight["fold"].rotations == 3
    assert eight["dft"].mults == 8
    two = {r.method: r for r in rows if r.n == 2}
    assert two["naive"].rotations == 1 and two["fold"].rotations == 1
    path = tmp_path / "bench.csv"
    write_bench_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,method,rotations,mults,wall_ns"
    assert len(lines) == 10


def test_bench_2048_rotation_gap():
    big = EncryptionContext(2048, 16, key_id="sum")
    rows = bench_summation([2048], big, seed=0, repeats=1)
    by = {r.method: r for r in rows}
    assert by["naive"].rotations == 2047
    assert by["fold"].rotations == 11
