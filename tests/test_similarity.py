import numpy as np
import pytest

from polyfhe.backend import EncryptionContext, decrypt, encrypt
from polyfhe.errors import DomainViolation, ZeroVector
from polyfhe.similarity import (
    NormalizationPlan,
    cosine_encrypted,
    cosine_encrypted_score,
    cosine_plain,
    cosine_unit_encrypted,
    make_normalization_plan,
    precheck_denominator,
    unit_cosine_setup,
)


def unit(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def test_cosine_plain_self_is_one():
    v = np.array([0.3, -0.4, 0.5])
    assert cosine_plain(v, v) == pytest.approx(1.0, abs=1e-12)


def test_cosine_plain_orthogonal():
    assert cosine_plain([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_cosine_plain_matches_scalar_computation():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.normal(size=16)
        b = rng.normal(size=16)
        num = sum(float(x) * float(y) for x, y in zip(a, b))
        den = np.sqrt(sum(float(x) ** 2 for x in a)) * np.sqrt(sum(float(y) ** 2 for y in b))
        assert cosine_plain(a, b) == pytest.approx(num / den, abs=1e-12)


def test_cosine_plain_zero_vector():
    with pytest.raises(ZeroVector):
        cosine_plain([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        cosine_plain([1.0], [1.0, 2.0])


@pytest.mark.parametrize("a,b", [
    (np.ones((2, 3)), np.ones((2, 3))),
    ([[1.0, 2.0]], [1.0, 2.0]),
    ([], []),
    (np.zeros((1, 0)), np.zeros((1, 0))),
])
def test_cosine_plain_rejects_empty_or_2d(a, b):
    with pytest.raises(ValueError):
        cosine_plain(a, b)


def test_precheck_denominator_rejects_bad_shapes():
    plan, approx = unit_cosine_setup(4, degree=2)
    for a, b in [(np.ones((2, 2)), np.ones((2, 2))), ([], []), ([1.0], [1.0, 0.0])]:
        with pytest.raises(ValueError):
            precheck_denominator(a, b, plan, approx)


def test_plan_algebra():
    plan = make_normalization_plan(1.0, 64)
    assert plan.c_bound == 64
    assert plan.d_bound == 4096
    assert make_normalization_plan(10.0, 64).c_bound == pytest.approx(6400.0)
    with pytest.raises(ValueError):
        make_normalization_plan(0.0, 64)
    with pytest.raises(ValueError):
        NormalizationPlan(-1.0)
    assert NormalizationPlan(64.0).d_bound == 4096.0  # computed, not passed in
    with pytest.raises(TypeError):
        NormalizationPlan(64.0, 4096.0, 2.0)


def test_plan_bounds_hold_on_sampled_inputs():
    rng = np.random.default_rng(4)
    plan = make_normalization_plan(1.0, 32)
    for _ in range(1000):
        a = rng.uniform(-1.0, 1.0, 32)
        b = rng.uniform(-1.0, 1.0, 32)
        num = float(a @ b) / plan.c_bound
        den = float((a @ a) * (b @ b)) / plan.d_bound
        assert -1.0 <= num <= 1.0
        assert 0.0 <= den <= 1.0


def test_identical_vectors_score_one():
    ctx = EncryptionContext(128, 16, key_id="cos")
    plan, approx = unit_cosine_setup(64, degree=8)
    tau = 2 * approx.fit_report.max_rel_err + 1e-6
    v = unit(np.random.default_rng(1), 64)
    score = cosine_encrypted_score(encrypt(v, ctx), encrypt(v, ctx), 64, plan, approx, ctx)
    assert abs(score - 1.0) <= tau


def test_orthogonal_vectors_score_zero():
    ctx = EncryptionContext(128, 16, key_id="cos")
    plan, approx = unit_cosine_setup(64, degree=8)
    tau = 2 * approx.fit_report.max_rel_err + 1e-6
    a = np.zeros(64)
    a[0] = 1.0
    b = np.zeros(64)
    b[1] = 1.0
    score = cosine_encrypted_score(encrypt(a, ctx), encrypt(b, ctx), 64, plan, approx, ctx)
    assert abs(score) <= tau


def test_random_pairs_within_tau():
    ctx = EncryptionContext(128, 16, key_id="cos")
    plan, approx = unit_cosine_setup(64, degree=8)
    tau = 2 * approx.fit_report.max_rel_err + 1e-6
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        a, b = unit(rng, 64), unit(rng, 64)
        score = cosine_encrypted_score(encrypt(a, ctx), encrypt(b, ctx), 64, plan, approx, ctx)
        worst = max(worst, abs(score - cosine_plain(a, b)))
    assert worst <= tau


@pytest.mark.parametrize("dim", (16, 64))
@pytest.mark.parametrize("degree", (6, 8))
def test_oracle_agreement_grid(dim, degree):
    ctx = EncryptionContext(128, 16, key_id="cos-grid")
    plan, approx = unit_cosine_setup(dim, degree=degree)
    tau = 2 * approx.fit_report.max_rel_err + 1e-6
    rng = np.random.default_rng(dim * 10 + degree)
    worst = 0.0
    for _ in range(25):
        a, b = unit(rng, dim), unit(rng, dim)
        score = cosine_encrypted_score(encrypt(a, ctx), encrypt(b, ctx), dim, plan, approx, ctx)
        worst = max(worst, abs(score - cosine_plain(a, b)))
    assert worst <= tau


def test_symmetry():
    ctx = EncryptionContext(128, 16, key_id="cos")
    plan, approx = unit_cosine_setup(64, degree=8)
    rng = np.random.default_rng(9)
    a, b = unit(rng, 64), unit(rng, 64)
    s_ab = cosine_encrypted_score(encrypt(a, ctx), encrypt(b, ctx), 64, plan, approx, ctx)
    s_ba = cosine_encrypted_score(encrypt(b, ctx), encrypt(a, ctx), 64, plan, approx, ctx)
    assert abs(s_ab - s_ba) <= 1e-9


def test_argmax_ranking_preserved():
    ctx = EncryptionContext(128, 16, key_id="cos")
    plan, approx = unit_cosine_setup(16, degree=8)
    tau = 2 * approx.fit_report.max_rel_err + 1e-6
    rng = np.random.default_rng(11)
    probe = unit(rng, 16)
    gallery = [unit(rng, 16) for _ in range(10)]
    plain_scores = np.array([cosine_plain(probe, g) for g in gallery])
    top2 = np.sort(plain_scores)[-2:]
    if top2[1] - top2[0] <= 2 * tau:
        pytest.skip("sampled gallery lacks the required top-two margin")
    enc_scores = [
        cosine_encrypted_score(encrypt(probe, ctx), encrypt(g, ctx), 16, plan, approx, ctx) for g in gallery
    ]
    assert int(np.argmax(enc_scores)) == int(np.argmax(plain_scores))


def test_depth_consumption_matches_contract():
    # degree + 4 levels from fresh ciphertexts
    degree = 8
    ctx = EncryptionContext(128, degree + 4, key_id="cos")
    plan, approx = unit_cosine_setup(64, degree=degree)
    rng = np.random.default_rng(13)
    out = cosine_encrypted(encrypt(unit(rng, 64), ctx), encrypt(unit(rng, 64), ctx), 64, plan, approx)
    assert out.depth_used == degree + 4


def test_precheck_denominator():
    plan, approx = unit_cosine_setup(64, degree=8)
    rng = np.random.default_rng(15)
    v = unit(rng, 64)
    scaled = precheck_denominator(v, v, plan, approx)
    assert approx.domain[0] <= scaled <= approx.domain[1]
    with pytest.raises(DomainViolation):
        precheck_denominator(0.05 * v, v, plan, approx)  # shrunk norm falls below lo
    with pytest.raises(DomainViolation):
        precheck_denominator(3.0 * v, 3.0 * v, plan, approx)  # above hi


@pytest.mark.parametrize("n", [1, 5, 60, 128])
def test_cosine_unit_encrypted_is_exact_with_one_product(n):
    ctx = EncryptionContext(128, 4, key_id="unit")
    rng = np.random.default_rng(n)
    a, b = unit(rng, n), unit(rng, n)
    ca, cb = encrypt(a, ctx), encrypt(b, ctx)
    before = ctx.ops.copy()
    out = cosine_unit_encrypted(ca, cb, n)
    ops = ctx.ops - before
    assert abs(decrypt(out, ctx)[0] - cosine_plain(a, b)) <= 1e-12
    assert (ops["rotations"], ops["ct_mults"] + ops["pt_mults"], out.depth_used) == ((n - 1).bit_length(), 1, 1)
