import numpy as np
import pytest

from polyfhe.backend import EncryptionContext, decrypt, encrypt
from polyfhe.errors import IllConditioned
from polyfhe.invsqrt import (
    FitReport,
    PolyApprox,
    approx_from_dict,
    approx_to_dict,
    eval_poly_encrypted,
    eval_poly_plain,
    fit_inv_sqrt,
    load_approx,
    rel_error_curve,
    rel_error_report,
    save_approx,
)

# first-derivation regression baselines: degree-6/8 fits on [1e-3, 1],
# relative error over 2000 uniform points with seed 0
FROZEN_MAX_REL = {6: 0.6921066369598737, 8: 0.608454439508053}
FROZEN_MEAN_REL = {6: 0.05569862830184533, 8: 0.0429867409283931}


def test_degree0_single_point_domain():
    approx = fit_inv_sqrt(0, (1.0, 1.0))
    assert approx.coeffs[0] == pytest.approx(1.0, abs=1e-12)
    assert approx.fit_report.max_rel_err < 1e-12


def test_domain_validation():
    with pytest.raises(ValueError):
        fit_inv_sqrt(4, (0.0, 1.0))
    with pytest.raises(ValueError):
        fit_inv_sqrt(4, (0.5, 1.5))
    with pytest.raises(ValueError):
        fit_inv_sqrt(4, (0.9, 0.1))
    with pytest.raises(ValueError):
        fit_inv_sqrt(4, (1e-3, 1.0), n_nodes=3)


def test_ill_conditioned_degenerate_domain():
    with pytest.raises(IllConditioned):
        fit_inv_sqrt(2, (0.5, 0.5))


def test_monotone_improvement_in_degree():
    errs = [fit_inv_sqrt(d, (1e-3, 1.0)).fit_report.max_rel_err for d in (2, 4, 6, 8)]
    assert errs == sorted(errs, reverse=True)


def test_degree8_no_worse_than_degree6():
    e8 = fit_inv_sqrt(8, (1e-3, 1.0)).fit_report.max_rel_err
    e6 = fit_inv_sqrt(6, (1e-3, 1.0)).fit_report.max_rel_err
    assert e8 <= e6


def test_frozen_regression_baselines():
    for degree in (6, 8):
        approx = fit_inv_sqrt(degree, (1e-3, 1.0))
        assert approx.fit_report.max_rel_err == pytest.approx(FROZEN_MAX_REL[degree], rel=1e-6)
        assert approx.fit_report.mean_rel_err == pytest.approx(FROZEN_MEAN_REL[degree], rel=1e-6)


def test_constant_poly_plain():
    approx = PolyApprox(0, np.array([1.0]), (0.5, 1.0), FitReport(0, 0, 0, 0))
    assert eval_poly_plain(0.7, approx) == 1.0
    assert np.all(eval_poly_plain(np.linspace(0.5, 1.0, 7), approx) == 1.0)


def test_horner_matches_power_sum():
    approx = fit_inv_sqrt(8, (1e-1, 1.0))
    xs = np.random.default_rng(3).uniform(0.1, 1.0, 100)
    power_sum = sum(c * xs**j for j, c in enumerate(approx.coeffs))
    assert np.max(np.abs(eval_poly_plain(xs, approx) - power_sum)) < 1e-12


def test_degree8_near_quarter():
    approx = fit_inv_sqrt(8, (1e-3, 1.0))
    got = eval_poly_plain(0.25, approx)
    assert abs(got - 2.0) <= approx.fit_report.max_rel_err * 2.0  # 1/sqrt(0.25) = 2


def test_value_at_one_within_max_rel_err():
    approx = fit_inv_sqrt(8, (1e-3, 1.0))
    assert abs(eval_poly_plain(1.0, approx) - 1.0) <= approx.fit_report.max_rel_err


def test_report_determinism_and_validation():
    approx = fit_inv_sqrt(6, (1e-3, 1.0))
    assert rel_error_report(approx, 2000, seed=5) == rel_error_report(approx, 2000, seed=5)
    with pytest.raises(ValueError):
        rel_error_report(approx, 0)


def test_perfect_approximant_degenerate_domain():
    approx = PolyApprox(0, np.array([1.0]), (1.0, 1.0), FitReport(0, 0, 0, 0))
    assert rel_error_report(approx, 50, seed=1).max_rel_err == 0.0


@pytest.mark.parametrize("degree", range(1, 9))
def test_encrypted_matches_plain_per_slot(degree):
    ctx = EncryptionContext(16, 16, key_id="inv")
    approx = fit_inv_sqrt(degree, (1e-1, 1.0))
    xs = np.random.default_rng(degree).uniform(0.1, 1.0, 16)
    out = eval_poly_encrypted(encrypt(xs, ctx), approx, ctx)
    assert np.max(np.abs(decrypt(out, ctx) - eval_poly_plain(xs, approx))) <= 1e-9


def test_encrypted_depth_consumption():
    ctx = EncryptionContext(16, 16, key_id="inv")
    sv = encrypt(np.full(16, 0.5), ctx)
    for degree in (1, 4, 8):
        approx = fit_inv_sqrt(degree, (1e-1, 1.0))
        assert eval_poly_encrypted(sv, approx, ctx).depth_used == sv.depth_used + degree


def test_encrypted_constant_poly_input_independent():
    ctx = EncryptionContext(8, 16, key_id="inv")
    approx = PolyApprox(0, np.array([3.5]), (1e-1, 1.0), FitReport(0, 0, 0, 0))
    a = eval_poly_encrypted(encrypt([0.2, 0.9], ctx), approx, ctx)
    b = eval_poly_encrypted(encrypt([0.7, 0.4], ctx), approx, ctx)
    assert np.allclose(decrypt(a, ctx), 3.5)  # every slot, the padding too
    assert a.slots.tolist() == b.slots.tolist()


def test_narrow_domain_fit_is_tight():
    # narrow domains near a known denominator scale: this is the regime the
    # encrypted cosine relies on
    approx = fit_inv_sqrt(8, (1e-4, 4e-4))
    assert approx.fit_report.max_rel_err < 1e-3


def test_rel_error_curve_shape():
    approx = fit_inv_sqrt(4, (1e-2, 1.0))
    xs, px, rel = rel_error_curve(approx, n_points=50)
    assert len(xs) == len(px) == len(rel) == 50
    assert rel.max() <= approx.fit_report.max_rel_err * 1.5


def test_json_round_trip(tmp_path):
    approx = fit_inv_sqrt(6, (1e-3, 1.0))
    path = tmp_path / "fit.json"
    save_approx(approx, path)
    back = load_approx(path)
    assert back.degree == approx.degree
    assert np.allclose(back.coeffs, approx.coeffs)
    assert back.domain == approx.domain
    assert back.fit_report == approx.fit_report
    assert approx_from_dict(approx_to_dict(approx)).fit_report == approx.fit_report
