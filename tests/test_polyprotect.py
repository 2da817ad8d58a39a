import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyfhe.backend import EncryptionContext, decrypt, encrypt
from polyfhe.errors import CapacityExceeded, InfeasibleParams, InputTooShort, IntegrityError
from polyfhe.polyprotect import (
    PolyProtectParams,
    chunk_embedding,
    encrypt_windows,
    gen_params,
    load_params,
    output_len,
    pack_template,
    params_from_dict,
    params_to_dict,
    protect_depth,
    protect_encrypted,
    protect_plain,
    save_params,
    template_correlation,
    template_norms,
)
from polyfhe.summation import fold_add_all


@pytest.fixture
def ctx():
    return EncryptionContext(8, 16, key_id="pp")


def test_gen_params_deterministic():
    a = gen_params(5, 2, 50, seed=7)
    b = gen_params(5, 2, 50, seed=7)
    assert a == b
    assert a.params_id == b.params_id


def test_gen_params_seeds_differ():
    a = gen_params(5, 2, 50, seed=1)
    b = gen_params(5, 2, 50, seed=2)
    assert a.coeffs != b.coeffs or a.exps != b.exps


def test_gen_params_contents():
    p = gen_params(6, 3, 40, seed=9)
    assert len(set(p.coeffs)) == 6
    assert all(c != 0 and -40 <= c <= 40 for c in p.coeffs)
    assert sorted(p.exps) == [1, 2, 3, 4, 5, 6]


def test_gen_params_overlap_bound():
    with pytest.raises(ValueError):
        gen_params(5, 5, 50, seed=1)
    with pytest.raises(ValueError):
        gen_params(5, -1, 50, seed=1)
    with pytest.raises(ValueError):
        gen_params(1, 0, 50, seed=1)


def test_gen_params_infeasible_range():
    with pytest.raises(InfeasibleParams):
        gen_params(5, 0, 2, seed=1)  # only 4 distinct nonzero values available
    gen_params(5, 0, 3, seed=1)  # 6 available: feasible


def test_params_validation():
    with pytest.raises(ValueError):
        PolyProtectParams(3, 0, (1, 1, 2), (1, 2, 3), 5, "x")  # repeated coeff
    with pytest.raises(ValueError):
        PolyProtectParams(3, 0, (1, -1, 2), (1, 2, 2), 5, "x")  # repeated exp
    with pytest.raises(ValueError):
        PolyProtectParams(3, 0, (0, -1, 2), (1, 2, 3), 5, "x")  # zero coeff


def test_protect_ones_vector_sums_coefficients():
    # ones kill the exponents, so each window value is just sum(C)
    p = gen_params(5, 0, 50, seed=3)
    out = protect_plain(np.ones(5), p)
    assert len(out) == 1
    assert out[0] == pytest.approx(sum(p.coeffs), abs=1e-12)


def test_protect_stride_zero_overlap_matches_eq_layout():
    # v of length 10, m=5, overlap=0: second output uses v6..v10
    p = PolyProtectParams(5, 0, (2, -3, 1, 4, -1), (1, 2, 3, 4, 5), 5, "manual")
    v = np.arange(1.0, 11.0)
    out = protect_plain(v, p)
    assert len(out) == 2
    expected_p2 = sum(c * v[5 + i] ** e for i, (c, e) in enumerate(zip(p.coeffs, p.exps)))
    assert out[1] == pytest.approx(expected_p2, rel=1e-12)


def test_protect_stride_max_overlap_matches_eq_layout():
    # v of length 6, m=5, overlap=4: second output starts at v2
    p = PolyProtectParams(5, 4, (2, -3, 1, 4, -1), (1, 2, 3, 4, 5), 5, "manual")
    v = np.array([0.3, -0.5, 0.2, 0.9, -0.1, 0.4])
    out = protect_plain(v, p)
    assert len(out) == 2
    expected_p2 = sum(c * v[1 + i] ** e for i, (c, e) in enumerate(zip(p.coeffs, p.exps)))
    assert out[1] == pytest.approx(expected_p2, rel=1e-12)


def test_protect_brute_force_oracle():
    p = PolyProtectParams(5, 0, (2, -3, 1, 4, -1), (1, 2, 3, 4, 5), 5, "manual")
    v = np.array([0.5, -0.2, 0.1, 0.3, -0.4])
    expected = 0.0
    for c, e, x in zip(p.coeffs, p.exps, v):
        expected += c * x**e
    out = protect_plain(v, p)
    assert out[0] == pytest.approx(expected, rel=1e-12)


def test_protect_too_short():
    p = gen_params(5, 0, 50, seed=1)
    with pytest.raises(InputTooShort):
        protect_plain(np.ones(4), p)
    with pytest.raises(InputTooShort):
        chunk_embedding(np.ones(4), p)


@pytest.mark.parametrize("v", [np.float64(0.5), np.ones((2, 5))])
def test_chunk_rejects_non_1d_input(v):
    with pytest.raises(ValueError):
        chunk_embedding(v, gen_params(2, 0, 50, seed=1))


def test_chunk_windows_are_a_read_only_view():
    p = gen_params(3, 1, 50, seed=1)
    v = np.arange(1.0, 8.0)
    chunks = chunk_embedding(v, p)
    assert chunks.tolist() == [[1, 2, 3], [3, 4, 5], [5, 6, 7]]
    assert not chunks.flags.writeable


def test_chunk_counts():
    p0 = gen_params(5, 0, 50, seed=1)
    p4 = gen_params(5, 4, 50, seed=1)
    assert len(chunk_embedding(np.ones(10), p0)) == 2
    assert len(chunk_embedding(np.ones(10), p4)) == 6
    assert len(chunk_embedding(np.ones(5), p4)) == 1


def test_chunk_tail_padding_covers_all_elements():
    p = gen_params(5, 0, 50, seed=1)
    v = np.arange(1.0, 13.0)  # length 12 -> 3 windows, last padded
    chunks = chunk_embedding(v, p)
    assert chunks.shape == (3, 5)
    assert chunks[2].tolist() == [11, 12, 0, 0, 0]


def test_chunked_protection_equals_whole():
    p = gen_params(4, 2, 30, seed=5)
    v = np.random.default_rng(0).normal(size=17)
    whole = protect_plain(v, p)
    per_window = [
        sum(c * w[i] ** e for i, (c, e) in enumerate(zip(p.coeffs, p.exps)))
        for w in chunk_embedding(v, p)
    ]
    assert np.allclose(whole, per_window, rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=8),
    data=st.data(),
    n=st.integers(min_value=8, max_value=96),
)
def test_output_len_properties(m, data, n):
    if n < m:
        n = m
    overlap = data.draw(st.integers(min_value=0, max_value=m - 1))
    k = output_len(n, m, overlap)
    assert k < n  # dimensionality reduction always holds
    if overlap == m - 1:
        assert k == n - m + 1
    # windows cover the vector: last window start + m >= n
    stride = m - overlap
    assert (k - 1) * stride + m >= n
    assert (k - 2) * stride + m < n or k == 1


def _protected_slots(v, p, ctx, scale=1.0):
    return decrypt(protect_encrypted(encrypt_windows(v, p, ctx), p, scale), ctx)


def test_protect_encrypted_ones_window_sums_coefficients(ctx):
    p = PolyProtectParams(5, 0, (1, 2, 3, 4, 5), (1, 2, 3, 4, 5), 5, "manual")
    got = _protected_slots(np.ones(5), p, ctx)
    assert got[0] == pytest.approx(15.0, abs=1e-9)  # sum of coeffs
    assert not got[1:].any()


def test_protect_encrypted_matches_plain_oracle():
    ctx = EncryptionContext(16, 16, key_id="pp")  # up to 14 windows
    rng = np.random.default_rng(8)
    for m in (3, 4, 5):
        for overlap in (0, m - 1):
            p = gen_params(m, overlap, 50, seed=[m, overlap])
            v = rng.normal(size=16)
            v /= np.linalg.norm(v)
            plain = protect_plain(v, p)
            got = _protected_slots(v, p, ctx)[: len(plain)]
            assert np.max(np.abs(got - plain)) <= 1e-6


def test_protect_encrypted_depth_budget(ctx):
    p = PolyProtectParams(5, 0, (2, -3, 1, 4, -1), (1, 2, 3, 4, 5), 5, "manual")
    windows = encrypt_windows(np.full(5, 0.5), p, ctx)
    out = protect_encrypted(windows, p)
    assert out.depth_used <= 4  # ceil(log2 5) + 1
    assert protect_depth(p) == 4


def test_protect_encrypted_agrees_with_fold_on_linear_window(ctx):
    # ones input: every branch passes its coefficient through, so the result
    # equals fold_add_all over the coefficient vector
    p = gen_params(5, 0, 20, seed=11)
    enc = protect_encrypted(encrypt_windows(np.ones(5), p, ctx), p)
    folded = fold_add_all(encrypt(np.asarray(p.coeffs, dtype=float), ctx), 5)
    assert decrypt(enc, ctx)[0] == pytest.approx(folded.slots[0], rel=1e-12)


def test_unlinkability_precursor_quick():
    rng = np.random.default_rng(0)
    cors = []
    for trial in range(50):
        v = rng.normal(size=64)
        v /= np.linalg.norm(v)
        t1 = protect_plain(v, gen_params(5, 4, 50, seed=[1, trial]))
        t2 = protect_plain(v, gen_params(5, 4, 50, seed=[2, trial]))
        cors.append(abs(template_correlation(t1, t2)))
    assert np.mean(cors) < 0.5


def test_pack_template_positions_and_scale(ctx):
    p = gen_params(5, 0, 50, seed=3)
    v = np.random.default_rng(1).normal(size=15)
    plain = protect_plain(v, p)
    windows = encrypt_windows(v, p, ctx)
    packed = protect_encrypted(windows, p, scale=0.5)
    got = decrypt(packed, ctx)
    assert np.allclose(got[: len(plain)], 0.5 * plain, atol=1e-9)
    assert not got[len(plain) :].any()
    assert packed.depth_used == windows.cts[0].depth_used + protect_depth(p)


def test_pack_template_capacity_limit(ctx):
    p = gen_params(2, 1, 50, seed=3)  # k = n-1 windows, too many for capacity 8
    v = np.random.default_rng(1).normal(size=16)
    with pytest.raises(CapacityExceeded):
        protect_encrypted(encrypt_windows(v, p, ctx), p)


def _packed_cases(cap=128):
    # every m in 2..7 and overlap in 0..m-1, at one window (k = 1), a mid-size
    # embedding, and the longest embedding that still fits (k = cap, whose
    # last windows wrap round the ring)
    for m in range(2, 8):
        for overlap in range(m):
            for n in (m, 64, (cap - 1) * (m - overlap) + m):
                yield m, overlap, n


@pytest.mark.parametrize("m,overlap,n", list(_packed_cases()))
def test_protect_packed_equals_pack_of_protect_encrypted(m, overlap, n):
    # The packed template holds scale * p_j in slot j and zeros after, at the
    # depth protect_depth states, whatever power memos it reuses.
    ctx = EncryptionContext(128, 16, key_id="packed")
    p = gen_params(m, overlap, 50, seed=[m, overlap, n])
    v = np.random.default_rng(n).normal(size=n)
    windows = encrypt_windows(v, p, ctx)
    k = output_len(n, m, overlap)
    assert len(windows) == windows.k == k
    assert len(windows.cts) == m
    packed = protect_encrypted(windows, p, 0.37)
    assert np.allclose(packed.slots[:k], 0.37 * protect_plain(v, p), rtol=1e-9, atol=1e-12)
    assert not packed.slots[k:].any()
    assert packed.depth_used == protect_depth(p)
    # a second parameter set reuses the same windows and their power memos
    q = gen_params(m, overlap, 50, seed=[m, overlap, n, 1])
    reused = protect_encrypted(windows, q, 0.37)
    fresh = protect_encrypted(encrypt_windows(v, q, ctx), q, 0.37)
    assert np.array_equal(reused.slots, fresh.slots)


@pytest.mark.parametrize("exps", [(1, 3, 7), (7, 1, 3), (2, 5, 4), (9, 1, 16)])
def test_protect_encrypted_any_distinct_exponents(exps):
    # parameters loaded from disk may hold any distinct positive exponents,
    # not only a permutation of 1..m
    ctx = EncryptionContext(64, 16, key_id="exps")
    p = PolyProtectParams(3, 1, (4, -7, 2), exps, 50, "manual")
    v = np.random.default_rng(sum(exps)).normal(size=40)
    v /= np.linalg.norm(v)
    plain = protect_plain(v, p)
    packed = protect_encrypted(encrypt_windows(v, p, ctx), p)
    got = decrypt(packed, ctx)
    assert np.max(np.abs(got[: len(plain)] - plain)) <= 1e-9
    assert not got[len(plain) :].any()
    assert packed.depth_used == protect_depth(p) == (max(exps) - 1).bit_length() + 1


def test_column_power_memos_are_shared_and_lazy(ctx):
    # each column's powers (and their balanced-split sub-powers) are built
    # once and only when a parameter set needs them; a second parameter set
    # reuses them
    p = PolyProtectParams(3, 1, (1, 2, 3), (1, 3, 7), 5, "manual")
    q = PolyProtectParams(3, 1, (5, -1, 4), (7, 3, 1), 5, "manual")
    windows = encrypt_windows(np.linspace(-1.0, 1.0, 9), p, ctx)
    protect_encrypted(windows, p)
    assert [set(memo) for memo in windows.memos] == [set(), {2, 3}, {2, 3, 4, 7}]
    before = [dict(memo) for memo in windows.memos]
    mults = ctx.ops["ct_mults"]
    protect_encrypted(windows, p)
    assert ctx.ops["ct_mults"] == mults
    assert all(memo[e] is old[e] for memo, old in zip(windows.memos, before) for e in old)
    protect_encrypted(windows, q)
    assert [set(memo) for memo in windows.memos] == [{2, 3, 4, 7}, {2, 3}, {2, 3, 4, 7}]
    assert ctx.ops["ct_mults"] == mults + 4  # column 0's chain to 7


def test_pack_template_is_the_weighted_sum(ctx):
    terms = [encrypt([1.0, 2.0], ctx), encrypt([0.5, -1.0], ctx)]
    out = pack_template(terms, (3, -2), 0.5)
    assert decrypt(out, ctx).tolist() == [0.5 * (3 * 1.0 - 2 * 0.5), 0.5 * (3 * 2.0 + 2 * 1.0), 0, 0, 0, 0, 0, 0]
    assert out.depth_used == 1


@pytest.mark.parametrize("m,overlap", [(2, 1), (3, 0), (5, 4), (7, 3)])
def test_template_norms_match_protect_plain(m, overlap):
    v = np.random.default_rng(m).normal(size=64)
    v /= np.linalg.norm(v)
    params = [gen_params(m, overlap, 50, seed=[m, i]) for i in range(6)]
    params.append(PolyProtectParams(m, overlap, tuple(range(1, m + 1)), tuple(3 * e for e in range(1, m + 1)), 50, "x"))
    want = [np.linalg.norm(protect_plain(v, p)) for p in params]
    assert np.allclose(template_norms(v, params), want, rtol=1e-14, atol=0.0)


def test_template_norms_reject_mixed_layouts():
    with pytest.raises(ValueError):
        template_norms(np.ones(16), [gen_params(3, 1, 50, seed=1), gen_params(3, 2, 50, seed=1)])


@pytest.mark.parametrize("m,overlap,n", [(3, 1, 9), (5, 4, 12), (10, 9, 12)])  # (10, 9, 12): m > capacity
def test_encrypt_windows_column_layout(ctx, m, overlap, n):
    # ciphertext i holds element i of window j in slot j and zeros after,
    # over all capacity slots
    p = gen_params(m, overlap, 50, seed=[m, n])
    v = np.random.default_rng(n).normal(size=n)
    windows = encrypt_windows(v, p, ctx)
    columns = np.array([ct.slots for ct in windows.cts])
    assert columns.shape == (m, 8)
    assert np.array_equal(columns[:, : windows.k], chunk_embedding(v, p).T)
    assert not columns[:, windows.k :].any()
    assert all(ct.depth_used == 0 for ct in windows.cts)


def test_encrypt_windows_capacity_limit(ctx):
    p = gen_params(2, 1, 50, seed=3)  # k = 15 windows, too many for capacity 8
    with pytest.raises(CapacityExceeded):
        encrypt_windows(np.ones(16), p, ctx)


def test_protect_encrypted_rejects_other_layout(ctx):
    v = np.random.default_rng(1).normal(size=8)
    windows = encrypt_windows(v, gen_params(3, 2, 50, seed=1), ctx)
    with pytest.raises(ValueError):
        protect_encrypted(windows, gen_params(3, 1, 50, seed=1))
    with pytest.raises(ValueError):
        protect_encrypted(windows, gen_params(4, 2, 50, seed=1))


def test_params_json_round_trip(tmp_path):
    p = gen_params(5, 3, 50, seed=21)
    path = tmp_path / "params.json"
    save_params(p, path)
    assert load_params(path) == p
    with open(path) as f:
        d = json.load(f)
    assert set(d) == {"m", "overlap", "c_range", "coeffs", "exps", "params_id", "seed"}
    assert params_from_dict(params_to_dict(p)) == p


@pytest.mark.parametrize("edit,problem", [
    (lambda d: d | {"coeffs": [d["coeffs"][0] + 1] + d["coeffs"][1:]}, "not the hash of its values"),
    (lambda d: {k: v for k, v in d.items() if k != "coeffs"}, "needs 'coeffs' as a JSON list"),
])
def test_load_params_rejects_forged_or_incomplete_file(tmp_path, edit, problem):
    path = tmp_path / "params.json"
    save_params(gen_params(5, 3, 50, seed=21), path)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(IntegrityError) as exc:
        load_params(path)
    assert str(path) in str(exc.value) and problem in str(exc.value)
