import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyfhe import polyprotect as pp
from polyfhe.backend import EncryptionContext, decrypt, encrypt
from polyfhe.errors import CapacityExceeded, InfeasibleParams, InputTooShort, IntegrityError
from polyfhe.pipeline import Pipeline, PipelineConfig
from polyfhe.polyprotect import (
    EncryptedWindows,
    PolyProtectParams,
    _templates,
    chunk_embedding,
    encrypt_windows,
    gen_params,
    load_params,
    output_len,
    pack_template,
    protect_depth,
    protect_encrypted,
    protect_plain,
    save_params,
    template_correlation,
    template_norms,
    window_powers,
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
    with pytest.raises(InfeasibleParams, match="exceeds 2\\*\\*53"):
        gen_params(5, 0, 2**53 + 1, seed=1)  # a coefficient past 2**53 is not exact in float64
    with pytest.raises(InfeasibleParams):
        gen_params(5, 0, 2**64, seed=1)


@pytest.mark.parametrize("c_range", [3, 50, 10**4])
def test_gen_params_draws_from_the_pool_without_building_it(c_range):
    # the same draws as choosing from the whole nonzero pool, so seeded
    # parameters do not change
    for m, seed in [(5, 7), (6, [3, 1]), (2, 0)]:
        rng = np.random.default_rng(seed)
        pool = np.concatenate([np.arange(-c_range, 0), np.arange(1, c_range + 1)])
        want = rng.choice(pool, size=m, replace=False).tolist(), (rng.permutation(m) + 1).tolist()
        p = gen_params(m, 1, c_range, seed=seed)
        assert (list(p.coeffs), list(p.exps)) == want


def test_gen_params_cost_does_not_grow_with_the_range():
    # the pool of 2 * c_range values is never allocated (30 MiB at 10**6)
    for c_range in (10**6, 10**12, 2**53):
        tracemalloc.start()
        try:
            p = gen_params(5, 4, c_range, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert len(set(p.coeffs)) == 5 and all(c != 0 and -c_range <= c <= c_range for c in p.coeffs)
        assert all(float(c) == c for c in p.coeffs)


def test_params_validation():
    with pytest.raises(ValueError):
        PolyProtectParams(3, 0, (1, 1, 2), (1, 2, 3), 5)  # repeated coeff
    with pytest.raises(ValueError):
        PolyProtectParams(3, 0, (1, -1, 2), (1, 2, 2), 5)  # repeated exp
    with pytest.raises(ValueError):
        PolyProtectParams(3, 0, (0, -1, 2), (1, 2, 3), 5)  # zero coeff


@pytest.mark.parametrize("coeffs,c_range,problem", [
    ((10**20, 3), 5, "coefficient must lie in"),
    ((1, -6), 5, "coefficient must lie in"),
    ((1, 3), -7, "c_range must be in 1..2"),
    ((1, -1), 0, "c_range must be in 1..2"),
    ((1, 2), 2**53 + 1, "c_range must be in 1..2"),
])
def test_params_refuse_a_c_range_that_does_not_bound_the_coefficients(tmp_path, coeffs, c_range, problem):
    # c_range is hashed into params_id, so it is checked too: 1..2**53, the
    # integers float64 holds exactly, and no coefficient beyond it; a params
    # file holding such values under their own hash is refused as well
    with pytest.raises(ValueError, match=problem):
        PolyProtectParams(2, 0, coeffs, (2, 1), c_range)
    path = tmp_path / "params.json"
    d = dict(m=2, overlap=0, c_range=c_range, coeffs=list(coeffs), exps=[2, 1], seed=None)
    path.write_text(json.dumps(d | {"params_id": pp._params_id(2, 0, c_range, coeffs, (2, 1))}))
    with pytest.raises(IntegrityError, match=problem):
        load_params(path)


@pytest.mark.parametrize("exps", [(1, 3, 7), (7, 1, 3), (2, 5, 4), (9, 1, 16)])
def test_params_refuse_exponents_that_are_not_a_permutation(tmp_path, exps):
    # every set of width m has depth ceil(log2 m) + 1 because its exponents
    # are a permutation of 1..m; a set, or a params file, with any other
    # distinct positive exponents is refused
    with pytest.raises(ValueError, match="permutation of 1..m"):
        PolyProtectParams(3, 1, (4, -7, 2), exps, 50)
    path = tmp_path / "params.json"
    save_params(gen_params(3, 1, 50, seed=1), path)
    d = json.loads(path.read_text())
    path.write_text(json.dumps(d | {"exps": list(exps)}))
    with pytest.raises(IntegrityError, match="permutation of 1..m"):
        load_params(path)


def test_params_id_is_computed_from_the_values():
    a = PolyProtectParams(5, 4, (2, -3, 1, 4, -1), (1, 2, 3, 4, 5), 50)
    b = PolyProtectParams(5, 4, (2, -3, 1, 4, -1), (1, 2, 3, 4, 5), 50)
    assert a == b and a.params_id == b.params_id == "9aa6ba58b269f043"
    assert PolyProtectParams(5, 4, (2, -3, 1, 4, -1), (1, 2, 3, 4, 5), 49).params_id != a.params_id
    with pytest.raises(TypeError):
        PolyProtectParams(5, 4, (2, -3, 1, 4, -1), (1, 2, 3, 4, 5), 50, "manual")  # an id, or a seed, by position
    with pytest.raises(TypeError):
        PolyProtectParams(5, 4, (2, -3, 1, 4, -1), (1, 2, 3, 4, 5), 50, params_id="manual")


# (seed, index) of Pipeline(PipelineConfig(seed=seed)).gen_user_params(index),
# then the coefficients, exponents and params_id it draws
PINNED_USER_DRAWS = [
    (0, 0, (12, 1, -24, -20, 32), (5, 4, 2, 3, 1), "fde2fbd57bbd3ed8"),
    (0, 1, (6, 37, 48, 1, -20), (1, 5, 2, 3, 4), "d4aea98fc1ce5aec"),
    (0, 199, (36, -2, -8, -22, 10), (3, 5, 1, 4, 2), "30059da5564564e3"),
    (5, 0, (30, 29, 15, -4, -48), (5, 1, 2, 4, 3), "d2a5350025c09a81"),
    (5, 1, (-38, 26, 27, 38, -4), (1, 2, 3, 5, 4), "cc15d12921c42297"),
    (5, 199, (-37, 44, 2, -48, 47), (1, 5, 4, 2, 3), "ff85113b55af9f28"),
]

# (m, c_range) of gen_params(m, m - 1, c_range, seed=[m, 7]), then the same
PINNED_RANGE_DRAWS = [
    (2, 1, (1, -1), (1, 2), "b06f2406a26c3a6d"),
    (8, 10**12,
     (-739960310165, 845203960219, -540591048845, -523882617612, -671138455813, 916598486919, -241396963247, 46402604391),
     (3, 1, 8, 7, 6, 5, 2, 4), "f2b5277547a65fb4"),
    (5, 2**53,
     (8300598998595702, 224996862677562, 5715682391912984, -3742245342269887, -5382215678764264),
     (5, 4, 1, 3, 2), "59de3244d3a371c3"),
]


@pytest.mark.parametrize("seed,index,coeffs,exps,params_id", PINNED_USER_DRAWS)
def test_gen_params_draws_the_sets_saved_galleries_hold(seed, index, coeffs, exps, params_id):
    # every saved params file and manifest holds sets drawn from these
    # streams; a faster draw must give the same sets and ids
    p = Pipeline(PipelineConfig(seed=seed)).gen_user_params(index)
    assert (p.coeffs, p.exps, p.params_id) == (coeffs, exps, params_id)


@pytest.mark.parametrize("m,c_range,coeffs,exps,params_id", PINNED_RANGE_DRAWS)
def test_gen_params_draws_the_same_sets_at_every_range(m, c_range, coeffs, exps, params_id):
    # from a pool of 2 to one of 2**54, which Generator.choice draws with
    # 32- and 64-bit words
    p = gen_params(m, m - 1, c_range, seed=[m, 7])
    assert (p.coeffs, p.exps, p.params_id) == (coeffs, exps, params_id)


@settings(max_examples=200, deadline=None)
@given(m=st.integers(2, 8), data=st.data())
def test_params_id_hashes_the_json_of_the_values(m, data):
    # the bytes every params file and manifest was written with
    overlap = data.draw(st.integers(0, m - 1), label="overlap")
    magnitude = st.integers(-(2**53), 2**53).filter(bool)
    coeffs = tuple(data.draw(st.lists(magnitude, min_size=m, max_size=m, unique=True), label="coeffs"))
    exps = tuple(data.draw(st.permutations(range(1, m + 1)), label="exps"))
    c_range = data.draw(st.integers(max(map(abs, coeffs)), 2**53), label="c_range")
    canon = json.dumps([m, overlap, c_range, list(coeffs), list(exps)]).encode()
    assert PolyProtectParams(m, overlap, coeffs, exps, c_range).params_id == hashlib.sha256(canon).hexdigest()[:16]


def test_params_report_the_first_rule_a_set_breaks():
    # a zero coefficient and exponents that are not a permutation: the
    # coefficients are checked first
    with pytest.raises(ValueError, match="^coefficients must be nonzero and pairwise distinct$"):
        PolyProtectParams(3, 1, (0, -7, 2), (1, 1, 3), 50)


def test_params_take_any_integer_type_and_refuse_non_integers():
    # numpy integers are stored as ints, with the id of the same ints; a
    # float, even an integral one, is refused rather than given another id
    a = PolyProtectParams(5, 4, (2, -3, 1, 4, -1), (1, 2, 3, 4, 5), 50)
    b = PolyProtectParams(np.int64(5), np.int32(4), tuple(np.array([2, -3, 1, 4, -1])), np.arange(1, 6), np.int64(50))
    assert a == b and b.params_id == a.params_id == "9aa6ba58b269f043"
    assert all(type(x) is int for x in (b.m, b.overlap, b.c_range, *b.coeffs, *b.exps))
    assert type(b.coeffs) is tuple and type(b.exps) is tuple
    good = dict(m=5, overlap=4, coeffs=(2, -3, 1, 4, -1), exps=(1, 2, 3, 4, 5), c_range=50)
    for bad in (
        {"coeffs": (2.0, -3.0, 1.0, 4.0, -1.0)},
        {"exps": (1.0, 2, 3, 4, 5)},
        {"exps": np.arange(1.0, 6.0)},
        {"coeffs": (2, -3, 1, 4, "-1")},
        {"m": 5.0},
        {"c_range": 50.0},
    ):
        with pytest.raises(ValueError, match="must be integers"):
            PolyProtectParams(**(good | bad))


def test_protect_ones_vector_sums_coefficients():
    # ones kill the exponents, so each window value is just sum(C)
    p = gen_params(5, 0, 50, seed=3)
    out = protect_plain(np.ones(5), p)
    assert len(out) == 1
    assert out[0] == pytest.approx(sum(p.coeffs), abs=1e-12)


def test_protect_stride_zero_overlap_matches_eq_layout():
    # v of length 10, m=5, overlap=0: second output uses v6..v10
    p = PolyProtectParams(5, 0, (2, -3, 1, 4, -1), (1, 2, 3, 4, 5), 5)
    v = np.arange(1.0, 11.0)
    out = protect_plain(v, p)
    assert len(out) == 2
    expected_p2 = sum(c * v[5 + i] ** e for i, (c, e) in enumerate(zip(p.coeffs, p.exps)))
    assert out[1] == pytest.approx(expected_p2, rel=1e-12)


def test_protect_stride_max_overlap_matches_eq_layout():
    # v of length 6, m=5, overlap=4: second output starts at v2
    p = PolyProtectParams(5, 4, (2, -3, 1, 4, -1), (1, 2, 3, 4, 5), 5)
    v = np.array([0.3, -0.5, 0.2, 0.9, -0.1, 0.4])
    out = protect_plain(v, p)
    assert len(out) == 2
    expected_p2 = sum(c * v[1 + i] ** e for i, (c, e) in enumerate(zip(p.coeffs, p.exps)))
    assert out[1] == pytest.approx(expected_p2, rel=1e-12)


def test_protect_brute_force_oracle():
    p = PolyProtectParams(5, 0, (2, -3, 1, 4, -1), (1, 2, 3, 4, 5), 5)
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


@pytest.mark.parametrize("v", [np.float64(0.5), np.ones((2, 2, 5))])
def test_chunk_rejects_non_1d_input(v):
    # one embedding or a (B, n) batch of them, nothing else
    with pytest.raises(ValueError):
        chunk_embedding(v, gen_params(2, 0, 50, seed=1))


def test_chunk_cuts_each_row_of_a_batch():
    p = gen_params(3, 1, 50, seed=1)
    x = np.arange(1.0, 15.0).reshape(2, 7)
    chunks = chunk_embedding(x, p)
    assert chunks.shape == (2, 3, 3) and not chunks.flags.writeable
    for b in range(2):
        assert chunks[b].tobytes() == chunk_embedding(x[b], p).tobytes()


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
    p = PolyProtectParams(5, 0, (1, 2, 3, 4, 5), (1, 2, 3, 4, 5), 5)
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
    p = PolyProtectParams(5, 0, (2, -3, 1, 4, -1), (1, 2, 3, 4, 5), 5)
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


@pytest.mark.parametrize("a,b", [
    ([2.0, 2.0, 2.0], [1.0, 0.5, -3.0]),
    ([1.0, 0.5, -3.0], [0.0, 0.0, 0.0]),
    ([1.0], [2.0]),
])
def test_template_correlation_of_a_constant_template_is_undefined(a, b):
    # np.corrcoef gave NaN, with two RuntimeWarnings, for a zero variance
    with pytest.raises(ValueError, match="undefined for a constant template"):
        template_correlation(a, b)


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
    # depth protect_depth states.
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
    # a second parameter set on the same windows gives its own template
    q = gen_params(m, overlap, 50, seed=[m, overlap, n, 1])
    reused = protect_encrypted(windows, q, 0.37)
    fresh = protect_encrypted(encrypt_windows(v, q, ctx), q, 0.37)
    assert np.array_equal(reused.slots, fresh.slots)


def _batch_cases():
    # layouts, and parameter sets that share or differ in their exponents
    yield 5, 4, [gen_params(5, 4, 50, seed=[3, b]) for b in range(7)]
    yield 3, 1, [gen_params(3, 1, 50, seed=[4, b]) for b in range(4)]
    yield 3, 2, [PolyProtectParams(3, 2, (1, 2, 3), (3, 1, 2), 5)] * 3
    yield 2, 0, [gen_params(2, 0, 50, seed=[5, b]) for b in range(5)]


@pytest.mark.parametrize("m,overlap,sets", list(_batch_cases()))
def test_protect_batch_rows_equal_each_row_protected_alone(m, overlap, sets):
    # bit for bit, in the clear and encrypted, at each row's own cost
    ctx = EncryptionContext(128, 16, key_id="batch")
    x = np.random.default_rng(m + overlap).normal(size=(len(sets), 40))
    scales = np.linspace(0.5, 2.0, len(sets))
    plain = protect_plain(x, sets)
    before = ctx.ops.copy()
    batch = protect_encrypted(encrypt_windows(x, sets[0], ctx), sets, scales)
    batch_ops = ctx.ops - before
    got = decrypt(batch, ctx)
    assert got.shape == (len(sets), 128)
    before = ctx.ops.copy()
    for b, p in enumerate(sets):
        assert plain[b].tobytes() == protect_plain(x[b], p).tobytes()
        alone = protect_encrypted(encrypt_windows(x[b], p, ctx), p, scales[b])
        assert got[b].tobytes() == decrypt(alone, ctx).tobytes() and alone.depth_used == batch.depth_used
    assert batch_ops == ctx.ops - before


@pytest.mark.parametrize("rows", [None, 2])
def test_a_calls_cost_depends_only_on_its_arguments(ctx, rows):
    # the windows keep no powers, so a repeated call pays what the first did;
    # within one window_powers call, pairs on one column share sub-powers
    p = PolyProtectParams(3, 1, (1, 2, 3), (1, 2, 3), 5)
    x = np.linspace(-1.0, 1.0, 18).reshape(2, 9)
    windows = encrypt_windows(x if rows else x[0], p, ctx)
    sets = [p] * rows if rows else p
    pairs = [(0, 3), (1, 2), (2, 3), (2, 2)]
    costs = []
    for call in [lambda: protect_encrypted(windows, sets)] * 2 + [lambda: window_powers(windows, pairs)] * 2:
        before = ctx.ops.copy()
        call()
        costs.append(ctx.ops - before)
    per_row = rows or 1
    assert costs[0] == costs[1] == {"ct_mults": 3 * per_row, "pt_mults": 3 * per_row}
    assert costs[2] == costs[3] == {"ct_mults": 5 * per_row}


def test_protect_batch_needs_one_layout():
    ctx = EncryptionContext(128, 16, key_id="batch")
    x = np.ones((2, 40))
    sets = [gen_params(3, 1, 50, seed=1), gen_params(3, 2, 50, seed=2)]
    with pytest.raises(ValueError):
        protect_plain(x, sets)
    with pytest.raises(ValueError):
        protect_encrypted(encrypt_windows(x, sets[0], ctx), sets)


@pytest.mark.parametrize("overlap", [5, 3, -2])
def test_output_len_refuses_an_overlap_outside_0_to_m_minus_1(overlap):
    # 5 gave -1 windows, 3 a zero stride, -2 a stride of 5 that skips coordinates
    with pytest.raises(ValueError, match=r"overlap must be in \[0, m-1\]"):
        output_len(10, 3, overlap)


def test_protect_plain_refuses_a_zero_row_batch():
    with pytest.raises(ValueError, match="a batch needs at least one row"):
        protect_plain(np.zeros((0, 64)), [])


def test_protect_batch_needs_one_set_per_row():
    # fewer sets than rows would drop rows; a batch row has its own set, so
    # one set does not serve a whole batch, and one embedding takes one set
    ctx = EncryptionContext(128, 16, key_id="batch")
    x = np.linspace(-1.0, 1.0, 120).reshape(3, 40)
    windows = encrypt_windows(x, gen_params(3, 1, 50, seed=1), ctx)
    sets = [gen_params(3, 1, 50, seed=[6, b]) for b in range(4)]
    for wrong in (sets[:2], sets, sets[0]):
        with pytest.raises(ValueError, match="a batch of 3 rows takes a sequence of 3 parameter sets"):
            protect_encrypted(windows, wrong)
        with pytest.raises(ValueError, match="a batch of 3 rows takes a sequence of 3 parameter sets"):
            protect_plain(x, wrong)
    with pytest.raises(ValueError, match="one embedding takes one parameter set"):
        protect_encrypted(encrypt_windows(x[0], sets[0], ctx), sets[:1])
    with pytest.raises(ValueError, match="one embedding takes one parameter set"):
        protect_plain(x[0], sets[:1])
    assert decrypt(protect_encrypted(windows, sets[:3]), ctx).shape == (3, 128)


def test_template_norms_take_one_set_per_batch_row():
    exps, coeffs = np.array([[1, 2, 3]] * 3), np.array([[1.0, 2.0, 3.0]] * 3)
    for rows in (1, 2, 4):
        with pytest.raises(ValueError, match=r"a batch of N, takes \(N, m\) exps and coeffs of one shape"):
            template_norms(np.ones((rows, 16)), 1, exps, coeffs)
    assert template_norms(np.ones((3, 16)), 1, exps, coeffs).shape == (3,)


@pytest.mark.parametrize("n,m,overlap", [(64, 5, 4), (64, 2, 0), (5, 5, 4), (6, 5, 0), (64, 10, 9), (300, 7, 2)])
def test_a_rows_template_and_norm_do_not_depend_on_its_batch(n, m, overlap):
    # bit for bit, each row of a (B, n) batch and each set applied to one
    # embedding give what the row or set gives alone, whatever the layout
    # (one window, m = 2, m >= 8) and the row's place
    rng = np.random.default_rng(n + m)
    x = rng.normal(size=(40, n))
    sets = [gen_params(m, overlap, 50, seed=[n, m, b]) for b in range(40)]
    exps, coeffs = np.array([p.exps for p in sets]), np.array([p.coeffs for p in sets], dtype=np.float64)
    batch, shared = template_norms(x, overlap, exps, coeffs), template_norms(x[0], overlap, exps, coeffs)
    plain = protect_plain(x, sets)
    for b, p in enumerate(sets):
        alone = (exps[b : b + 1], coeffs[b : b + 1])
        assert batch[b] == template_norms(x[b], overlap, *alone)[0]
        assert shared[b] == template_norms(x[0], overlap, *alone)[0]
        template = protect_plain(x[b], p)
        assert plain[b].tobytes() == template.tobytes()
        assert batch[b] == np.sqrt(np.add.reduce(template * template))


def test_protect_plain_adds_its_terms_in_column_order():
    # at m = 10 numpy's own sum over the terms would go pairwise; each power
    # is _pow_ct's balanced split, power e the product of powers e // 2 and
    # e - e // 2
    p = gen_params(10, 9, 50, seed=4)
    v = np.random.default_rng(4).normal(size=64)
    windows = chunk_embedding(v, p)
    powers = [None, windows]
    for e in range(2, 11):
        powers.append(powers[e // 2] * powers[e - e // 2])
    terms = np.stack([powers[e][:, i] for i, e in enumerate(p.exps)], axis=1) * np.array(p.coeffs)
    want = terms[:, 0].copy()
    for i in range(1, 10):
        want += terms[:, i]
    assert protect_plain(v, p).tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [5, 10])
def test_a_clear_power_is_the_decrypted_encrypted_power(m):
    # one row per (column i, exponent e): coefficient 1 at i, 0 elsewhere, so
    # the clear template is power e of column i, for one embedding under many
    # sets and for a batch of one row per set
    ctx = EncryptionContext(128, 16, key_id="powers")
    p = gen_params(m, m - 1, 50, seed=m)
    v = np.random.default_rng(m).normal(size=64)
    pairs = [(i, e) for i in range(m) for e in range(1, m + 1)]
    exps = np.array([[e if j == i else 1 for j in range(m)] for i, e in pairs], dtype=np.float64)
    coeffs = np.array([[float(j == i) for j in range(m)] for i, _ in pairs])
    k = output_len(64, m, m - 1)
    want = np.array([decrypt(ct, ctx)[:k] for ct in window_powers(encrypt_windows(v, p, ctx), pairs)])
    assert np.array_equal(_templates(v, m - 1, exps, coeffs), want)
    assert np.array_equal(_templates(np.tile(v, (len(pairs), 1)), m - 1, exps, coeffs), want)


@pytest.mark.parametrize("row", [[0, 2, 3, 4, 5], [1.5, 2, 3, 4, 5], [9, 2, 3, 4, 5], [1, 1, 3, 4, 5]])
def test_template_norms_refuse_exponent_rows_that_are_not_permutations(row):
    # a bad row among good ones, for one embedding and for a batch: none is
    # read as some other exponent
    exps = np.array([[1, 2, 3, 4, 5], row], dtype=np.float64)
    coeffs = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]] * 2)
    for v in (np.linspace(-1.0, 1.0, 64), np.ones((2, 64))):
        with pytest.raises(ValueError, match=r"every row of exps must be a permutation of 1\.\.5"):
            template_norms(v, 4, exps, coeffs)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), m=st.integers(2, 10), sets=st.integers(1, 8))
def test_window_columns_are_one_slice_path_for_every_shape(data, m, sets):
    # bit for bit: one embedding under N sets is the tiled (N, n) batch and
    # each set's own one-row call, and encrypted column i is column i of
    # chunk_embedding followed by zeros, once or repeated per block
    overlap = data.draw(st.integers(0, m - 1), label="overlap")
    n = data.draw(st.integers(m, 130), label="n")
    v = np.random.default_rng([m, overlap, n]).normal(size=n)
    params = [gen_params(m, overlap, 50, seed=[m, overlap, n, b]) for b in range(sets)]
    exps, coeffs = np.array([p.exps for p in params]), np.array([p.coeffs for p in params], dtype=np.float64)
    tiled = np.tile(v, (sets, 1))
    shared = _templates(v, overlap, exps, coeffs)
    assert shared.tobytes() == protect_plain(tiled, params).tobytes()
    norms = template_norms(v, overlap, exps, coeffs)
    assert norms.tobytes() == template_norms(tiled, overlap, exps, coeffs).tobytes()
    for b, p in enumerate(params):
        assert shared[b].tobytes() == protect_plain(v, p).tobytes()
        assert norms[b] == template_norms(v, overlap, exps[b : b + 1], coeffs[b : b + 1])[0]
    ctx = EncryptionContext(512, 16, key_id="slices")
    windows = chunk_embedding(v, params[0])
    k = len(windows)
    copies = data.draw(st.integers(1, min(4, 512 // k)), label="copies")
    block = 512 // copies
    for x, sign in ((v, 1.0), (np.stack([v, -v]), np.array([[1.0], [-1.0]]))):
        cts = encrypt_windows(x, params[0], ctx, copies).cts
        for i, ct in enumerate(cts):
            column = np.zeros(512)  # the copies, then zeros past copies * block
            column[: copies * block] = np.tile(np.concatenate([windows[:, i], np.zeros(block - k)]), copies)
            assert decrypt(ct, ctx).tobytes() == (sign * column + 0.0).tobytes()


def test_a_windows_row_count_is_its_columns():
    # the columns of a 2-row batch make a 2-row windows value, whatever one
    # builds around them: one set for the batch is refused
    ctx = EncryptionContext(128, 16, key_id="rows")
    sets = [gen_params(5, 4, 50, seed=[8, b]) for b in range(2)]
    w = encrypt_windows(np.linspace(-1.0, 1.0, 128).reshape(2, 64), sets[0], ctx)
    rebuilt = EncryptedWindows(w.cts, w.k, w.m, w.overlap)
    with pytest.raises(ValueError, match="a batch of 2 rows takes a sequence of 2 parameter sets"):
        protect_encrypted(rebuilt, sets[0])
    assert protect_encrypted(rebuilt, sets).rows == 2


def test_pack_template_is_the_weighted_sum(ctx):
    terms = [encrypt([1.0, 2.0], ctx), encrypt([0.5, -1.0], ctx)]
    out = pack_template(terms, 0.5 * np.array([3, -2]))
    assert decrypt(out, ctx).tolist() == [0.5 * (3 * 1.0 - 2 * 0.5), 0.5 * (3 * 2.0 + 2 * 1.0), 0, 0, 0, 0, 0, 0]
    assert out.depth_used == 1


def test_pack_template_takes_plaintext_vectors_as_coefficients(ctx):
    terms = [encrypt([1.0, 2.0], ctx), encrypt([0.5, -1.0], ctx)]
    masks = np.zeros((2, 8))
    masks[:, 0] = 3, -2
    out = pack_template(terms, masks)
    assert decrypt(out, ctx).tolist() == [3 * 1.0 - 2 * 0.5] + [0.0] * 7


def test_encrypt_windows_copies_repeat_each_column_per_block(ctx):
    p = gen_params(2, 0, 50, seed=3)
    v = np.arange(1.0, 7.0)  # k = 3 windows: blocks of 4 slots hold two copies
    one, two = encrypt_windows(v, p, ctx), encrypt_windows(v, p, ctx, copies=2)
    for i, column in enumerate(([1.0, 3.0, 5.0], [2.0, 4.0, 6.0])):
        assert decrypt(one.cts[i], ctx).tolist() == column + [0.0] * 5
        assert decrypt(two.cts[i], ctx).tolist() == 2 * (column + [0.0])
    with pytest.raises(CapacityExceeded, match="3 windows do not fit slot capacity 8 4 times"):
        encrypt_windows(v, p, ctx, copies=4)


@pytest.mark.parametrize("m,overlap", [(2, 1), (3, 0), (5, 4), (7, 3)])
def test_template_norms_match_protect_plain(m, overlap):
    v = np.random.default_rng(m).normal(size=64)
    v /= np.linalg.norm(v)
    params = [gen_params(m, overlap, 50, seed=[m, i]) for i in range(6)]
    params.append(PolyProtectParams(m, overlap, tuple(range(1, m + 1)), tuple(range(m, 0, -1)), 50))
    want = [np.linalg.norm(protect_plain(v, p)) for p in params]
    exps = np.array([p.exps for p in params])
    coeffs = np.array([p.coeffs for p in params], dtype=np.float64)
    got = template_norms(v, overlap, exps, coeffs)
    assert np.allclose(got, want, rtol=1e-14, atol=0.0)
    # the same arithmetic one parameter set at a time: each offset's powers
    # times its coefficient, added offset by offset, and the root of the
    # summed squares
    windows = chunk_embedding(v, params[0])
    loop = []
    for p in params:
        template = windows[:, 0] ** np.array([float(p.exps[0])]) * float(p.coeffs[0])
        for i in range(1, m):
            template += windows[:, i] ** np.array([float(p.exps[i])]) * float(p.coeffs[i])
        loop.append(float(np.sqrt((template * template).sum())))
    assert got.tolist() == loop


def test_template_norms_reject_mixed_layouts():
    # rows of parameter sets of two window widths cannot be stacked as one (N, m) pair
    with pytest.raises(ValueError, match="one shape"):
        template_norms(np.ones(16), 1, np.array([[1, 2, 3]]), np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError, match="one shape"):
        template_norms(np.ones(16), 1, np.array([1, 2, 3]), np.array([1.0, 2.0, 3.0]))


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
