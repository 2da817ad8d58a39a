import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyfhe.backend import EncryptionContext, encrypt
from polyfhe.errors import DegenerateLabels, DimensionMismatch, ZeroBaseline
from polyfhe.leakage import (
    LinearClassifier,
    ablation_sweep,
    chance_level,
    ciphertext_features,
    eval_accuracy,
    predict,
    privacy_gain,
    run_leakage_suite,
    suppression_rate,
    train_attr_classifier,
    write_ablation_csv,
    write_leakage_csv,
)
from polyfhe.pipeline import SyntheticSpec, gen_synthetic_dataset
from polyfhe.polyprotect import encrypt_windows, gen_params, protect_encrypted


def test_privacy_gain_paper_cross_checks():
    # worked examples pinning the metric definitions
    assert privacy_gain(0.9812, 0.5222) * 100 == pytest.approx(45.90, abs=0.005)
    assert privacy_gain(0.8768, 0.0612) * 100 == pytest.approx(81.56, abs=0.005)
    assert privacy_gain(0.9881, 0.0801) * 100 == pytest.approx(90.80, abs=0.005)
    assert privacy_gain(0.7, 0.7) == 0.0


def test_privacy_gain_validation():
    with pytest.raises(ValueError):
        privacy_gain(1.2, 0.5)


def test_suppression_rate_paper_cross_checks():
    assert suppression_rate(0.9812, 0.5222) == pytest.approx(0.4678, abs=0.005)
    assert suppression_rate(0.8768, 0.0612) == pytest.approx(0.9302, abs=0.005)
    assert suppression_rate(0.9881, 0.0801) == pytest.approx(0.9189, abs=0.005)
    assert suppression_rate(0.5, 0.5) == 0.0
    with pytest.raises(ZeroBaseline):
        suppression_rate(0.0, 0.0)


@settings(max_examples=120, deadline=None)
@given(
    a_o=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
    a_p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_pg_sr_algebra(a_o, a_p):
    pg = privacy_gain(a_o, a_p)
    sr = suppression_rate(a_o, a_p)
    assert pg == pytest.approx(a_o - a_p, abs=1e-12)
    assert sr * a_o == pytest.approx(a_o - a_p, abs=1e-12)
    assert sr <= 1.0 + 1e-12


def test_chance_level():
    assert chance_level(["a", "a", "b"]) == pytest.approx(2 / 3)
    assert chance_level(["a", "b", "c", "d"]) == pytest.approx(0.25)


def test_classifier_separable_hits_full_train_accuracy():
    rng = np.random.default_rng(0)
    x = np.vstack([rng.normal(-2, 0.3, (40, 5)), rng.normal(2, 0.3, (40, 5))])
    y = ["neg"] * 40 + ["pos"] * 40
    clf = train_attr_classifier(x, [y], epochs=200, seed=0)[0]
    assert eval_accuracy(clf, x, y) == 1.0


def test_classifier_random_labels_near_chance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(200, 10))
    y = list(rng.choice(["a", "b"], size=200))
    clf = train_attr_classifier(x[:140], [y[:140]], epochs=200, seed=0)[0]
    acc = eval_accuracy(clf, x[140:], y[140:])
    assert acc <= chance_level(y[140:]) + 0.15


def test_classifier_deterministic():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(50, 4))
    y = list(rng.choice(["u", "v"], size=50))
    a = train_attr_classifier(x, [y], epochs=100, seed=3)[0]
    b = train_attr_classifier(x, [y], epochs=100, seed=3)[0]
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.bias, b.bias)


def test_classifier_degenerate_labels():
    with pytest.raises(DegenerateLabels):
        train_attr_classifier(np.ones((5, 2)), [["same"] * 5])


def separable_heads():
    """Features whose first two columns each decide one label list."""
    rng = np.random.default_rng(6)
    x = rng.normal(size=(60, 4))
    sign = ["neg" if v < 0 else "pos" for v in x[:, 0]]
    band = ["lo" if v < -0.5 else "mid" if v < 0.5 else "hi" for v in x[:, 1]]
    return x, sign, band


def test_stacked_heads_come_back_in_label_set_order():
    x, sign, band = separable_heads()
    heads = train_attr_classifier(x, [band, sign, band], epochs=50, seed=0)
    assert [h.classes for h in heads] == [("hi", "lo", "mid"), ("neg", "pos"), ("hi", "lo", "mid")]
    assert [h.weights.shape for h in heads] == [(3, 4), (2, 4), (3, 4)]
    for head, labels in zip(heads, [band, sign, band]):
        assert set(predict(head, x)) <= set(labels)
        assert eval_accuracy(head, x, labels) > 0.8


def test_stacked_heads_degenerate_head_raises():
    x, sign, _ = separable_heads()
    with pytest.raises(DegenerateLabels):
        train_attr_classifier(x, [sign, ["same"] * len(x)])


def test_stacked_head_predicts_as_it_does_alone():
    x, sign, band = separable_heads()
    alone = train_attr_classifier(x, [sign], epochs=200, seed=4)[0]
    beside = train_attr_classifier(x, [band, sign], epochs=200, seed=4)[1]
    assert predict(beside, x) == predict(alone, x)
    assert eval_accuracy(beside, x, sign) == 1.0


def test_stacked_heads_deterministic():
    x, sign, band = separable_heads()
    a = train_attr_classifier(x, [sign, band], epochs=100, seed=3)
    b = train_attr_classifier(x, [sign, band], epochs=100, seed=3)
    for ha, hb in zip(a, b):
        assert np.array_equal(ha.weights, hb.weights)
        assert np.array_equal(ha.bias, hb.bias)


def test_eval_dimension_mismatch():
    clf = train_attr_classifier(np.random.default_rng(0).normal(size=(20, 3)), [["a", "b"] * 10], epochs=10)[0]
    with pytest.raises(DimensionMismatch):
        eval_accuracy(clf, np.ones((4, 7)), ["a"] * 4)


def test_constant_predictor_on_balanced_binary():
    clf = LinearClassifier(
        weights=np.zeros((2, 3)),
        bias=np.array([1.0, 0.0]),
        classes=("a", "b"),
        feat_mean=np.zeros(3),
        feat_scale=np.ones(3),
    )
    x = np.random.default_rng(0).normal(size=(40, 3))
    y = ["a"] * 20 + ["b"] * 20
    assert eval_accuracy(clf, x, y) == 0.5


def test_eval_accuracy_matches_hand_count():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(10, 3))
    y = list(rng.choice(["p", "q"], size=10))
    clf = train_attr_classifier(x, [y], epochs=50, seed=1)[0]
    preds = predict(clf, x)
    by_hand = sum(1 for p, t in zip(preds, y) if p == t) / 10
    assert eval_accuracy(clf, x, y) == by_hand


def test_ciphertext_features_indistinguishable_same_vs_diff():
    ctx = EncryptionContext(64, 16, key_id="feat", nonce_seed=7)
    rng = np.random.default_rng(5)
    a = rng.normal(size=64)
    b = rng.normal(size=64)
    same, diff = [], []
    for _ in range(40):
        fa1 = ciphertext_features([encrypt(a, ctx)], ctx)[0]
        fa2 = ciphertext_features([encrypt(a, ctx)], ctx)[0]
        fb = ciphertext_features([encrypt(b, ctx)], ctx)[0]
        same.append(np.linalg.norm(fa1 - fa2))
        diff.append(np.linalg.norm(fa1 - fb))
    ratio = np.mean(same) / np.mean(diff)
    assert 0.8 <= ratio <= 1.25


def test_masked_features_hide_and_unmasked_reveal():
    ctx = EncryptionContext(64, 16, key_id="feat", nonce_seed=11)
    spec = SyntheticSpec(num_ids=20, samples_per_id=6, dim=64, class_separation=30.0, attribute_correlation=0.8, seed=3)
    ds = gen_synthetic_dataset(spec)
    labels = [e.attributes["gender"] for e in ds]
    cts = [encrypt(e.values, ctx) for e in ds]
    chance = chance_level(labels[80:])
    masked = ciphertext_features(cts, ctx, masked=True)
    clf = train_attr_classifier(masked[:80], [labels[:80]], epochs=200, seed=0)[0]
    assert eval_accuracy(clf, masked[80:], labels[80:]) <= chance + 0.05

    raw = ciphertext_features(cts, ctx, masked=False)
    clf = train_attr_classifier(raw[:80], [labels[:80]], epochs=200, seed=0)[0]
    assert eval_accuracy(clf, raw[80:], labels[80:]) >= chance + 0.20  # control arm recovers


def suite_dataset(seed=201):
    spec = SyntheticSpec(
        num_ids=60, samples_per_id=10, dim=512, class_separation=30.0, attribute_correlation=0.75, seed=seed
    )
    return gen_synthetic_dataset(spec)


def test_suite_none_vs_itself_is_zero():
    ds = suite_dataset()
    reports = run_leakage_suite(ds, ("none",), seed=1, epochs=100)
    for r in reports:
        assert r.pg == 0.0 and r.sr == 0.0


def test_suite_fhe_variants_collapse_to_chance():
    ds = gen_synthetic_dataset(
        SyntheticSpec(num_ids=40, samples_per_id=10, dim=128, class_separation=30.0, attribute_correlation=0.7, seed=9)
    )
    reports = run_leakage_suite(ds, ("none", "mrl+fhe"), seed=9, epochs=200)
    for r in reports:
        if r.variant == "mrl+fhe":
            assert r.a_p <= r.chance + 0.05
        if r.variant == "none":
            assert r.a_p >= r.chance + 0.20


def test_suite_non_fhe_variants_keep_leakage():
    # the transform alone does not suppress attributes: PG stays in a narrow
    # band around zero
    ds = suite_dataset(seed=201)
    reports = run_leakage_suite(ds, ("polyprotect", "mrl", "mrl+polyprotect"), seed=1, epochs=500)
    pgs = [abs(r.pg) for r in reports]
    assert np.mean(pgs) <= 0.06
    assert max(pgs) <= 0.10


def test_suite_report_csv(tmp_path):
    ds = gen_synthetic_dataset(
        SyntheticSpec(num_ids=10, samples_per_id=4, dim=64, class_separation=30.0, attribute_correlation=0.6, seed=4)
    )
    reports = run_leakage_suite(ds, ("none", "mrl"), seed=0, epochs=50)
    path = tmp_path / "leak.csv"
    write_leakage_csv(reports, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "attribute,variant,a_o,a_p,pg_x100,sr,chance"
    assert len(lines) == 1 + len(reports)


def test_suite_and_ablation_share_one_attacker():
    # ablation at m=5 (overlap min(2, m-1) = 2) protects with the same
    # parameters as the suite's polyprotect variant, so the same attacker
    # must score them the same; weak clusters keep the accuracies off 1.0
    ds = gen_synthetic_dataset(
        SyntheticSpec(num_ids=12, samples_per_id=4, dim=64, class_separation=5.0, attribute_correlation=0.2, seed=5)
    )
    reports = run_leakage_suite(ds, ("polyprotect",), m=5, overlap=2, c_range=50, seed=3, epochs=40)
    rows = ablation_sweep("m", [5], ds, seed=3, epochs=40)
    assert {r["attribute"]: r["accuracy"] for r in rows} == {r.attribute: r.a_p for r in reports}


def test_attacker_learning_rate_is_not_an_option():
    with pytest.raises(TypeError):
        run_leakage_suite([], lr=0.5)
    with pytest.raises(TypeError):
        ablation_sweep("m", [5], [], lr=0.5)


def test_ablation_overlap_shape():
    ds = gen_synthetic_dataset(
        SyntheticSpec(num_ids=12, samples_per_id=4, dim=64, class_separation=30.0, attribute_correlation=0.6, seed=5)
    )
    rows = ablation_sweep("overlap", [0, 1, 2, 3], ds, epochs=50)
    assert len(rows) == 12  # 4 values x 3 attributes
    assert {r["value"] for r in rows} == {0, 1, 2, 3}


def test_ablation_infeasible_c_range_surfaces_in_row():
    ds = gen_synthetic_dataset(
        SyntheticSpec(num_ids=6, samples_per_id=3, dim=32, class_separation=30.0, attribute_correlation=0.5, seed=6)
    )
    rows = ablation_sweep("c_range", [2, 10], ds, base_m=5, epochs=20)
    errors = [r for r in rows if "error" in r]
    assert len(errors) == 1 and errors[0]["value"] == 2
    assert errors[0]["error"] == "InfeasibleParams"


def test_ablation_sweeps_each_distinct_value_once():
    ds = gen_synthetic_dataset(
        SyntheticSpec(num_ids=6, samples_per_id=3, dim=32, class_separation=30.0, attribute_correlation=0.5, seed=6)
    )
    assert ablation_sweep("m", [3, 3], ds, epochs=20) == ablation_sweep("m", [3], ds, epochs=20)
    rows = ablation_sweep("c_range", [10, 2, 10, 2], ds, epochs=20)
    assert [r["value"] for r in rows] == [10, 10, 10, 2]


def test_degenerate_training_split_names_the_attribute():
    ds = gen_synthetic_dataset(
        SyntheticSpec(num_ids=3, samples_per_id=2, dim=64, class_separation=30.0, attribute_correlation=0.6, seed=0)
    )
    with pytest.raises(DegenerateLabels, match="attribute 'gender' has classes .* in its 4-sample training split"):
        run_leakage_suite(ds, ("mrl",), epochs=5)


def test_ablation_rejects_unknown_param():
    with pytest.raises(ValueError):
        ablation_sweep("bogus", [1], [])


def test_ablation_csv(tmp_path):
    ds = gen_synthetic_dataset(
        SyntheticSpec(num_ids=6, samples_per_id=3, dim=32, class_separation=30.0, attribute_correlation=0.5, seed=6)
    )
    rows = ablation_sweep("m", [3, 4], ds, epochs=20)
    path = tmp_path / "abl.csv"
    write_ablation_csv(rows, path)
    assert path.read_text().startswith("param,value,attribute,accuracy,error")


def test_m_sweep_fits_depth_budget_16():
    # the encrypted transform for every swept m stays within a 16-level budget
    ctx = EncryptionContext(8, 16, key_id="depth")
    for m in (3, 4, 5, 6, 7):
        params = gen_params(m, m - 1, 50, seed=m)
        windows = encrypt_windows(np.full(m, 0.5), params, ctx)
        out = protect_encrypted(windows, params)
        assert out.depth_used <= 16
