from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyfhe import leakage
from polyfhe.backend import HEADER_LEN, EncryptionContext, encrypt, serialize_ciphertext
from polyfhe.errors import DegenerateLabels, DimensionMismatch, EmptyDataset, ZeroBaseline
from polyfhe.leakage import (
    LeakageReport,
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
from polyfhe.pipeline import _PROTECT_ROWS, SyntheticSpec, compress_prefix, gen_synthetic_dataset
from polyfhe.polyprotect import encrypt_windows, gen_params, protect_encrypted, protect_plain


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


def test_leakage_report_computes_pg_and_sr_from_its_accuracies():
    r = LeakageReport("gender", "mrl+fhe", a_o=0.9, a_p=0.5, chance=0.5)
    assert (r.pg, r.sr, r.r_o, r.r_p) == (privacy_gain(0.9, 0.5), suppression_rate(0.9, 0.5), 0.9, 0.5)
    with pytest.raises(TypeError):
        LeakageReport("gender", "mrl+fhe", a_o=0.9, a_p=0.5, pg=0.3, chance=0.5)
    with pytest.raises(FrozenInstanceError):
        r.pg = 0.3
    with pytest.raises(ZeroBaseline):
        LeakageReport("gender", "none", a_o=0.0, a_p=0.0, chance=0.5)


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


def weight_space_reference(features, label_sets, epochs, lr, seed, weight_decay):
    """Gradient descent that steps the weights: two (rows, n, f) products an epoch."""
    x = np.asarray(features, dtype=np.float64)
    n, f = x.shape
    heads, rows = [], 0
    for labels in label_sets:
        classes = tuple(sorted(set(labels)))
        index = {c: i for i, c in enumerate(classes)}
        heads.append((classes, slice(rows, rows + len(classes)), np.array([index[l] for l in labels])))
        rows += len(classes)
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale[scale == 0.0] = 1.0
    xs = (x - mean) / scale
    xs_t = np.ascontiguousarray(xs.T)
    w = np.vstack([np.random.default_rng(seed).normal(0.0, 0.01, (len(c), f)) for c, _, _ in heads])
    b = np.zeros(rows)
    onehot = np.zeros((rows, n))
    for _, block, y in heads:
        onehot[block][y, np.arange(n)] = 1.0
    for _ in range(epochs):
        p = w @ xs_t + b[:, None]
        for _, block, _ in heads:
            p[block] -= p[block].max(axis=0)
            np.exp(p[block], out=p[block])
            p[block] /= p[block].sum(axis=0)
        g = (p - onehot) / n
        w -= lr * (g @ xs + weight_decay * w)
        b -= lr * g.sum(axis=1)
    return [(w[block], b[block]) for _, block, _ in heads]


@pytest.mark.parametrize("n,f", [(60, 40), (80, 30)])  # 2f > n forms X X^T; 2f <= n does not
@pytest.mark.parametrize("weight_decay", [0.0, 0.3])
@pytest.mark.parametrize("num_heads", [1, 3])
def test_logit_space_trainer_matches_weight_space_reference(n, f, weight_decay, num_heads):
    rng = np.random.default_rng(n + f)
    x = rng.normal(size=(n, f)) * rng.uniform(0.5, 3.0, f) + rng.normal(size=f)
    label_sets = [
        ["neg" if v < 0 else "pos" for v in x[:, 0] + rng.normal(0.0, 0.5, n)],
        list(rng.choice(["a", "b", "c"], size=n)),
        ["lo" if v < -0.5 else "mid" if v < 0.5 else "hi" for v in x[:, 1]],
    ][:num_heads]
    heads = train_attr_classifier(x, label_sets, epochs=150, seed=7, weight_decay=weight_decay)
    ref = weight_space_reference(x, label_sets, 150, 0.5, 7, weight_decay)
    for head, (w, b) in zip(heads, ref, strict=True):
        assert np.abs(head.weights - w).max() <= 1e-12 * np.abs(w).max()
        assert np.abs(head.bias - b).max() <= 1e-12 * np.abs(b).max()
        xs = (x - head.feat_mean) / head.feat_scale
        assert predict(head, x) == [head.classes[i] for i in np.argmax(xs @ w.T + b, axis=1)]


def test_classifier_rejects_labels_of_another_length():
    x = np.random.default_rng(0).normal(size=(10, 3))
    with pytest.raises(DimensionMismatch, match="9 labels for 10 feature rows"):
        train_attr_classifier(x, [["a", "b"] * 5, ["a", "b", "c"] * 3])


def test_classifier_rejects_1d_features():
    with pytest.raises(DimensionMismatch, match=r"\(samples, features\) matrix, got shape \(10,\)"):
        train_attr_classifier(np.arange(10.0), [["a", "b"] * 5])


def test_classifier_rejects_negative_epochs():
    with pytest.raises(ValueError, match="epochs must be >= 0, got -1"):
        train_attr_classifier(np.ones((4, 2)), [["a", "b"] * 2], epochs=-1)


def test_eval_dimension_mismatch():
    clf = train_attr_classifier(np.random.default_rng(0).normal(size=(20, 3)), [["a", "b"] * 10], epochs=10)[0]
    with pytest.raises(DimensionMismatch):
        eval_accuracy(clf, np.ones((4, 7)), ["a"] * 4)


def test_eval_accuracy_rejects_a_label_count_unlike_the_row_count():
    # scored on the overlap, 10 rows against 4 labels would read as accuracy 1.0
    clf = LinearClassifier(np.zeros((2, 3)), np.array([1.0, 0.0]), ("a", "b"), np.zeros(3), np.ones(3))
    with pytest.raises(DimensionMismatch, match="4 labels for 10 feature rows"):
        eval_accuracy(clf, np.ones((10, 3)), ["a"] * 4)


def test_eval_accuracy_of_no_feature_rows_is_error():
    # the mean of no predictions was NaN, with numpy's empty-slice warning
    clf = LinearClassifier(np.zeros((2, 3)), np.array([1.0, 0.0]), ("a", "b"), np.zeros(3), np.ones(3))
    with pytest.raises(EmptyDataset, match="at least one feature row"):
        eval_accuracy(clf, np.zeros((0, 3)), [])


def test_predict_rejects_features_that_are_not_a_matrix():
    clf = LinearClassifier(np.zeros((2, 3)), np.array([1.0, 0.0]), ("a", "b"), np.zeros(3), np.ones(3))
    with pytest.raises(DimensionMismatch, match=r"\(samples, features\) matrix, got shape \(3,\)"):
        predict(clf, np.ones(3))
    with pytest.raises(DimensionMismatch, match=r"got shape \(2, 5, 3\)"):
        predict(clf, np.ones((2, 5, 3)))


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


def test_ciphertext_features_rows_are_the_per_sample_featurization():
    # each row is its own blob's byte histogram and squashed payload, in record order
    slots = np.random.default_rng(8).normal(size=(30, 64)) * 100.0
    ctx, twin = (EncryptionContext(64, 16, key_id="feat", nonce_seed=13) for _ in range(2))
    got = ciphertext_features([encrypt(v, ctx) for v in slots], ctx)
    cts = [encrypt(v, twin) for v in slots]  # twin's nonce stream runs in step with ctx's
    for row, ct in zip(got, cts, strict=True):
        blob = serialize_ciphertext(ct, twin)
        hist = np.bincount(np.frombuffer(blob, dtype=np.uint8), minlength=256).astype(np.float64) / len(blob)
        payload = np.frombuffer(blob[HEADER_LEN:], dtype="<f8")
        values = np.clip(np.nan_to_num(payload, nan=0.0, posinf=10.0, neginf=-10.0), -10.0, 10.0)
        assert row.tobytes() == np.concatenate([hist, values]).tobytes()


def test_ciphertext_features_of_no_records_is_an_error():
    with pytest.raises(ValueError, match="at least one record"):
        ciphertext_features([], EncryptionContext(64, 16, key_id="feat"))


def test_masked_features_hide_and_unmasked_reveal():
    ctx = EncryptionContext(64, 16, key_id="feat", nonce_seed=11)
    spec = SyntheticSpec(num_ids=20, samples_per_id=6, dim=64, class_separation=30.0, attribute_correlation=0.8, seed=3)
    ds = gen_synthetic_dataset(spec)
    labels = [e.attributes["gender"] for e in ds]
    cts = [encrypt(e.values, ctx) for e in ds]
    chance = chance_level(labels[80:])
    masked = ciphertext_features(cts, ctx)
    clf = train_attr_classifier(masked[:80], [labels[:80]], epochs=200, seed=0)[0]
    assert eval_accuracy(clf, masked[80:], labels[80:]) <= chance + 0.05

    # control arm: the same attacker on the unencrypted slots recovers the attribute
    raw = np.array([e.values for e in ds])
    clf = train_attr_classifier(raw[:80], [labels[:80]], epochs=200, seed=0)[0]
    assert eval_accuracy(clf, raw[80:], labels[80:]) >= chance + 0.20


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


# run_leakage_suite at perfbench's leakage shape (50 ids x 16 samples), seed 3,
# as recorded from the weight-space trainer; the mrl+polyprotect+fhe rows
# re-recorded once clear powers came from the multiplication chain (each
# template's scale moved in its last bits; both rows stay at chance)
PINNED_SUITE_SEED_3 = [
    ("gender", "none", 1.0, 1.0, 0.0, 0.0, 0.5166666666666667),
    ("age_band", "none", 1.0, 1.0, 0.0, 0.0, 0.3125),
    ("ethnicity", "none", 1.0, 1.0, 0.0, 0.0, 0.3333333333333333),
    ("gender", "polyprotect", 1.0, 1.0, 0.0, 0.0, 0.5166666666666667),
    ("age_band", "polyprotect", 1.0, 1.0, 0.0, 0.0, 0.3125),
    ("ethnicity", "polyprotect", 1.0, 1.0, 0.0, 0.0, 0.3333333333333333),
    ("gender", "mrl", 1.0, 1.0, 0.0, 0.0, 0.5166666666666667),
    ("age_band", "mrl", 1.0, 0.9833333333333333, 0.01666666666666672, 0.01666666666666672, 0.3125),
    ("ethnicity", "mrl", 1.0, 0.9458333333333333, 0.054166666666666696, 0.054166666666666696, 0.3333333333333333),
    ("gender", "mrl+polyprotect", 1.0, 1.0, 0.0, 0.0, 0.5166666666666667),
    ("age_band", "mrl+polyprotect", 1.0, 0.9708333333333333, 0.029166666666666674, 0.029166666666666674, 0.3125),
    ("ethnicity", "mrl+polyprotect", 1.0, 0.9208333333333333, 0.07916666666666672, 0.07916666666666672, 0.3333333333333333),
    ("gender", "mrl+fhe", 1.0, 0.5291666666666667, 0.4708333333333333, 0.4708333333333333, 0.5166666666666667),
    ("age_band", "mrl+fhe", 1.0, 0.26666666666666666, 0.7333333333333334, 0.7333333333333334, 0.3125),
    ("ethnicity", "mrl+fhe", 1.0, 0.30833333333333335, 0.6916666666666667, 0.6916666666666667, 0.3333333333333333),
    ("gender", "mrl+polyprotect+fhe", 1.0, 0.5083333333333333, 0.4916666666666667, 0.4916666666666667, 0.5166666666666667),
    ("age_band", "mrl+polyprotect+fhe", 1.0, 0.2375, 0.7625, 0.7625, 0.3125),
    ("ethnicity", "mrl+polyprotect+fhe", 1.0, 0.2791666666666667, 0.7208333333333333, 0.7208333333333333, 0.3333333333333333),
]


def test_suite_reports_at_the_benchmark_shape_are_pinned():
    ds = gen_synthetic_dataset(SyntheticSpec(num_ids=50, samples_per_id=16, attribute_correlation=0.6, seed=3))
    reports = run_leakage_suite(ds, seed=3)
    assert [(r.attribute, r.variant, r.a_o, r.a_p, r.pg, r.sr, r.chance) for r in reports] == PINNED_SUITE_SEED_3


def test_suite_default_context_rounds_compress_dim_up_to_a_power_of_two():
    ds = gen_synthetic_dataset(
        SyntheticSpec(num_ids=10, samples_per_id=4, dim=256, class_separation=30.0, attribute_correlation=0.6, seed=2)
    )
    reports = run_leakage_suite(ds, ("mrl+polyprotect+fhe",), compress_dim=200, seed=2, epochs=20)
    assert [r.variant for r in reports] == ["mrl+polyprotect+fhe"] * 3
    assert all(0.0 <= r.a_p <= 1.0 for r in reports)


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


@pytest.mark.parametrize("variant", ["polyprotect", "mrl+polyprotect"])
def test_clear_features_are_each_rows_own_template_in_bounded_batches(monkeypatch, variant):
    # 300 samples cross one _PROTECT_ROWS boundary; every call takes at most
    # that many rows and the matrix is the per-row protect_plain stack
    assert _PROTECT_ROWS < 300
    ds = gen_synthetic_dataset(SyntheticSpec(num_ids=75, samples_per_id=4, dim=128, seed=6))
    params = gen_params(5, 4, 50, seed=6)
    calls = []

    def counted(v, sets):
        calls.append(len(v))
        return protect_plain(v, sets)

    monkeypatch.setattr(leakage, "protect_plain", counted)
    got = leakage._variant_features(variant, ds, None, params, 64)
    rows = [e.values for e in ds] if variant == "polyprotect" else [compress_prefix(e, 64) for e in ds]
    assert calls == [_PROTECT_ROWS, 300 - _PROTECT_ROWS]
    assert got.tobytes() == np.stack([protect_plain(x, params) for x in rows]).tobytes()


def test_suite_checks_every_variant_name_before_any_work(monkeypatch):
    # the typo comes after an attacker-trained variant and a ciphertext one:
    # no attacker is trained and no nonce is drawn before the error
    ds = gen_synthetic_dataset(SyntheticSpec(num_ids=12, samples_per_id=4, dim=64, seed=5))
    calls, train = [], leakage.train_attr_classifier

    def counted(x, *args):
        calls.append(len(x))
        return train(x, *args)

    monkeypatch.setattr(leakage, "train_attr_classifier", counted)
    ctx = EncryptionContext(128, 16, key_id="typo", nonce_seed=4)
    with pytest.raises(ValueError, match="unknown variant 'bogus'"):
        run_leakage_suite(ds, ("mrl", "mrl+fhe", "bogus"), ctx, epochs=5)
    assert calls == []
    assert ctx._fresh_nonce() == EncryptionContext(128, 16, key_id="typo", nonce_seed=4)._fresh_nonce()


def test_suite_and_ablation_refuse_an_empty_dataset():
    with pytest.raises(EmptyDataset):
        run_leakage_suite([], ("none", "polyprotect"))
    with pytest.raises(EmptyDataset):
        ablation_sweep("m", [3, 5], [])


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
