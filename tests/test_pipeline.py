import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from polyfhe import pipeline as pl
from polyfhe import polyprotect as pp
from polyfhe.backend import HEADER_LEN, EncryptionContext, decrypt
from polyfhe.errors import (
    CapacityExceeded,
    EmptyDataset,
    EmptyGallery,
    IntegrityError,
    KeyMismatch,
    MalformedDataset,
    UnknownParamsId,
    ZeroPrefix,
)
from polyfhe.pipeline import (
    ATTRIBUTE_CLASSES,
    Embedding,
    Pipeline,
    PipelineConfig,
    SyntheticSpec,
    build_gallery,
    compress_prefix,
    enroll,
    enroll_split,
    gen_synthetic_dataset,
    identify,
    identify_plain,
    load_dataset,
    load_gallery,
    rank1_accuracy,
    save_dataset,
    save_gallery,
)
from polyfhe.polyprotect import (
    encrypt_windows,
    gen_params,
    protect_depth,
    protect_encrypted,
    protect_plain,
    template_correlation,
    template_norms,
)
from polyfhe.similarity import cosine_plain, cosine_unit_encrypted, make_normalization_plan


# How far an exact-mode encrypted score may sit from the plaintext oracle's.
EXACT_SCORE_TOL = 1e-12


# The layouts that the search and enrollment are held bit-equal under: the
# default config, a narrower window, and one whose k equals the capacity.
LAYOUTS = {
    "default": {},
    "m3-overlap1": dict(compress_dim=48, m=3, overlap=1),
    "k-equals-capacity": dict(compress_dim=130, m=3, overlap=2),  # k = 128 = capacity
}


def small_spec(**kw):
    base = dict(num_ids=10, samples_per_id=3, dim=512, class_separation=30.0, attribute_correlation=0.6, seed=1)
    base.update(kw)
    return SyntheticSpec(**base)


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(num_ids=1, samples_per_id=2)
    with pytest.raises(ValueError):
        SyntheticSpec(num_ids=5, samples_per_id=2, class_separation=0.0)
    with pytest.raises(ValueError):
        SyntheticSpec(num_ids=5, samples_per_id=2, attribute_correlation=1.5)
    with pytest.raises(ValueError, match="dim"):
        SyntheticSpec(num_ids=5, samples_per_id=2, dim=0)
    for sep in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="class_separation"):
            SyntheticSpec(num_ids=5, samples_per_id=2, class_separation=sep)


def test_synthetic_rejects_a_sample_whose_norm_overflows():
    # 1e308 times a unit center is finite, but its norm is not
    with pytest.raises(ValueError, match="class_separation"):
        gen_synthetic_dataset(small_spec(class_separation=1e308))


def test_synthetic_deterministic():
    a = gen_synthetic_dataset(small_spec())
    b = gen_synthetic_dataset(small_spec())
    assert len(a) == len(b) == 30
    assert all(np.array_equal(x.values, y.values) for x, y in zip(a, b))
    assert all(x.attributes == y.attributes for x, y in zip(a, b))


# perfbench's three corpora (identify, enroll, leakage) and edge specs: no
# shift, every coordinate shifted, dims of 1 and 3, a weak separation
PINNED_CORPUS_SPECS = (
    dict(num_ids=200, samples_per_id=2, attribute_correlation=0.6, seed=11),
    dict(num_ids=15, samples_per_id=1, attribute_correlation=0.6, seed=12),
    dict(num_ids=50, samples_per_id=16, attribute_correlation=0.6, seed=13),
    dict(num_ids=20, samples_per_id=3, attribute_correlation=0.0, seed=14),
    dict(num_ids=20, samples_per_id=3, attribute_correlation=1.0, seed=15),
    dict(num_ids=20, samples_per_id=3, dim=1, attribute_correlation=1.0, seed=16),
    dict(num_ids=20, samples_per_id=3, dim=3, attribute_correlation=0.6, seed=17),
    dict(num_ids=20, samples_per_id=3, class_separation=0.5, attribute_correlation=0.6, seed=18),
)
PINNED_CORPUS_SHA256 = "33c162443e8249848885e278fd7dfd2e816ca51823ab5ccf74f7220be6521119"


def test_synthetic_corpus_bytes_are_pinned():
    # every seeded corpus, and so every pinned gallery, ranking and leakage
    # CSV, rests on these bytes
    h = hashlib.sha256()
    for spec in PINNED_CORPUS_SPECS:
        for e in gen_synthetic_dataset(SyntheticSpec(**spec)):
            h.update(e.values.tobytes())
            h.update(e.subject_id.encode())
            h.update(json.dumps(e.attributes, sort_keys=True).encode())
    assert h.hexdigest() == PINNED_CORPUS_SHA256


def test_a_kept_sample_keeps_at_most_its_identitys_samples_alive():
    # a caller that keeps a few samples of a corpus must not keep the corpus
    ds = gen_synthetic_dataset(small_spec(num_ids=20, samples_per_id=3))
    for e in ds:
        owner = e.values if e.values.base is None else e.values.base
        assert owner.nbytes <= 3 * 512 * 8


def test_synthetic_unit_norm_and_labels():
    for e in gen_synthetic_dataset(small_spec()):
        assert np.linalg.norm(e.values) == pytest.approx(1.0, abs=1e-9)
        for attr, classes in ATTRIBUTE_CLASSES.items():
            assert e.attributes[attr] in classes


def test_compress_full_dim_is_identity():
    e = Embedding(np.array([3.0, 4.0]), "s", {})
    out = compress_prefix(e, 2)
    assert np.allclose(out, [0.6, 0.8])  # renormalized


def test_compress_triangle_example():
    v = np.zeros(16)
    v[0], v[1] = 3.0, 4.0
    out = compress_prefix(Embedding(v, "s", {}), 2)
    assert out.tolist() == [0.6, 0.8]


def test_compress_zero_prefix():
    v = np.zeros(8)
    v[7] = 1.0
    with pytest.raises(ZeroPrefix):
        compress_prefix(Embedding(v, "s", {}), 4)
    with pytest.raises(ValueError):
        compress_prefix(Embedding(v, "s", {}), 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_prefix_is_refused_before_any_encryption(bad):
    # a NaN or inf among the first compress_dim coordinates is its own
    # error, raised before anything is encrypted and with no numpy warning;
    # past the prefix it plays no part
    ds = gen_synthetic_dataset(small_spec(num_ids=3, samples_per_id=1))
    pipe = Pipeline(PipelineConfig(seed=4))
    gallery = [pipe.enroll(e, pipe.gen_user_params(i)) for i, e in enumerate(ds)]
    values = ds[0].values.copy()
    values[7] = bad
    e = Embedding(values, "bad", {})
    before = pipe.ctx.ops.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="prefix of 64 coordinates has norm"):
            pipe.enroll(e, pipe.gen_user_params(3))
        with pytest.raises(ValueError, match="prefix of 64 coordinates has norm"):
            pipe.identify(e, gallery)
        values[7], values[100] = ds[0].values[7], bad
        assert compress_prefix(Embedding(values, "bad", {}), 64).tobytes() == compress_prefix(ds[0], 64).tobytes()
    assert pipe.ctx.ops == before


@pytest.mark.parametrize("value", [1e-300, 5e-324, 1e200, 1e308])
def test_a_finite_nonzero_prefix_whose_squares_underflow_or_overflow_is_renormalized(value):
    # its norm reads 0 or inf, yet it is neither the zero vector nor
    # non-finite: scaled by its largest magnitude it is the +-1 prefix
    signs = np.where(np.arange(96) % 3 == 0, -1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = compress_prefix(Embedding(value * signs, "s", {}), 64)
    assert got.tobytes() == compress_prefix(Embedding(signs, "s", {}), 64).tobytes()
    assert np.linalg.norm(got) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("value, bad", [(1e-300, math.nan), (1e200, math.inf), (1e-300, -math.inf)])
def test_a_non_finite_coordinate_is_refused_whatever_the_others_magnitude(value, bad):
    v = np.full(96, value)
    v[7] = bad
    with pytest.raises(ValueError, match="prefix of 64 coordinates has norm"):
        compress_prefix(Embedding(v, "s", {}), 64)


def test_a_prefix_of_mixed_tiny_magnitudes_keeps_its_direction():
    v = np.array([3e-300, 4e-300, 1e-310, 0.0])
    got = compress_prefix(Embedding(v, "s", {}), 4)
    assert np.allclose(got, [0.6, 0.8, 0.0, 0.0], rtol=0, atol=1e-10) and got[2] > 0.0


def test_rank1_compression_plateau():
    # prefix truncation to 64 dims costs at most 3 points of rank-1 accuracy
    ds = gen_synthetic_dataset(small_spec(num_ids=15, class_separation=60.0))
    acc64 = rank1_accuracy(ds, PipelineConfig(compress_dim=64, seed=3))
    acc512 = rank1_accuracy(ds, PipelineConfig(compress_dim=512, slot_capacity=512, seed=3))
    assert abs(acc64 - acc512) <= 0.03


def test_attribute_correlation_zero_gives_chance():
    from polyfhe.leakage import chance_level, eval_accuracy, train_attr_classifier

    ds = gen_synthetic_dataset(small_spec(num_ids=20, samples_per_id=6, attribute_correlation=0.0))
    feats = np.stack([e.values for e in ds])
    labels = [e.attributes["gender"] for e in ds]
    train, test = feats[:80], feats[80:]
    clf = train_attr_classifier(train, [labels[:80]], epochs=200, seed=0)[0]
    acc = eval_accuracy(clf, test, labels[80:])
    assert acc <= chance_level(labels[80:]) + 0.15


def test_high_separation_perfect_rank1():
    ds = gen_synthetic_dataset(small_spec(class_separation=200.0))
    assert rank1_accuracy(ds, PipelineConfig(seed=0)) == 1.0


def test_enroll_matches_plaintext_oracle():
    ds = gen_synthetic_dataset(small_spec())
    pipe = Pipeline(PipelineConfig(seed=2))
    params = pipe.gen_user_params(0)
    rec = enroll(ds[0], params, pipe.ctx, 64)
    got = decrypt(rec.template, pipe.ctx)
    plain = protect_plain(compress_prefix(ds[0], 64), params)
    want = plain / np.linalg.norm(plain)
    assert len(want) == 60
    assert np.max(np.abs(got[:60] - want)) <= 1e-6
    assert got.shape == (pipe.ctx.slot_capacity,) and not got[60:].any()
    assert not got[60:].any()
    assert rec.template.depth_used == protect_depth(params)


def test_enroll_makes_its_template_with_protect_encrypted(monkeypatch):
    # one embedding has the encrypted path that the unit tests and criterion
    # 4 check: enroll's template is what protect_encrypted returned
    made = []
    protect = pl.protect_encrypted
    monkeypatch.setattr(pl, "protect_encrypted", lambda *args: made.append(protect(*args)) or made[-1])
    ds = gen_synthetic_dataset(small_spec())
    pipe = Pipeline(PipelineConfig(seed=2))
    rec = pipe.enroll(ds[0], pipe.gen_user_params(0))
    assert len(made) == 1 and rec.template is made[0]


def test_enroll_encrypts_one_dimensional_columns(monkeypatch):
    # one embedding is one row: its m window columns are encrypted as single
    # ciphertexts, not as one-row batches
    shapes = []
    encrypt = pp.encrypt

    def spy(values, ctx):
        shapes.append(np.shape(values))
        return encrypt(values, ctx)

    monkeypatch.setattr(pp, "encrypt", spy)
    ds = gen_synthetic_dataset(small_spec())
    pipe = Pipeline(PipelineConfig(seed=2))
    rec = pipe.enroll(ds[0], pipe.gen_user_params(0))
    assert shapes == [(60,)] * 5
    assert rec.template.slots.shape == (pipe.cfg.slot_capacity,)


def test_plan_bound_is_16_for_every_window_count():
    # a bound of 4/sqrt(k) per element of a k-vector gives c_bound =
    # k (4/sqrt(k))^2, which is 16 up to rounding whatever k is
    for k in range(1, 2049):
        assert abs(make_normalization_plan(4.0 / math.sqrt(k), k).c_bound - 16.0) <= 1e-15 * 16.0


def test_plan_and_fit_are_the_same_for_every_config():
    pipes = [
        Pipeline(cfg)
        for cfg in (PipelineConfig(), PipelineConfig(compress_dim=32, m=3, overlap=1), PipelineConfig(compress_dim=128))
    ]
    for pipe in pipes:
        assert pipe.plan == pipes[0].plan and pipe.plan.c_bound == 16.0
        assert pipe.approx.domain == pipes[0].approx.domain == (1.0 / 2048.0, 1.0 / 32.0)
        assert pipe.approx.coeffs.tobytes() == pipes[0].approx.coeffs.tobytes()
        assert pipe.approx.fit_report == pipes[0].approx.fit_report


def test_enroll_deterministic_in_exact_mode():
    ds = gen_synthetic_dataset(small_spec())
    pipe = Pipeline(PipelineConfig(seed=2))
    params = pipe.gen_user_params(0)
    r1 = enroll(ds[0], params, pipe.ctx, 64)
    r2 = enroll(ds[0], params, pipe.ctx, 64)
    assert r1.template.slots.tolist() == r2.template.slots.tolist()


def test_independent_params_give_uncorrelated_templates():
    ds = gen_synthetic_dataset(small_spec())
    pipe = Pipeline(PipelineConfig(seed=2))
    v = compress_prefix(ds[0], 64)
    cors = [
        abs(
            template_correlation(
                protect_plain(v, pipe.gen_user_params(2 * i)), protect_plain(v, pipe.gen_user_params(2 * i + 1))
            )
        )
        for i in range(30)
    ]
    assert np.mean(cors) < 0.5


def test_identify_self_probe():
    ds = gen_synthetic_dataset(small_spec(num_ids=5, samples_per_id=1))
    pipe = Pipeline(PipelineConfig(seed=4))
    gallery, _ = build_gallery(ds, pipe)
    ranked = pipe.identify(ds[2], gallery)
    assert ranked[0][0] == ds[2].subject_id
    assert ranked[0][1] == pytest.approx(1.0, abs=0.05)


def test_identify_empty_gallery():
    ds = gen_synthetic_dataset(small_spec(num_ids=5, samples_per_id=1))
    pipe = Pipeline(PipelineConfig(seed=4))
    with pytest.raises(ValueError):
        pipe.identify(ds[0], [])
    with pytest.raises(ValueError):
        identify_plain(ds[0], [], [], 64)


def test_identify_plain_rejects_params_list_of_another_length():
    ds = gen_synthetic_dataset(small_spec(num_ids=3, samples_per_id=1))
    pipe = Pipeline(PipelineConfig(seed=4))
    params_list = [pipe.gen_user_params(i) for i in range(2)]
    with pytest.raises(ValueError, match="2 parameter sets for 3 enrollees"):
        identify_plain(ds[0], ds, params_list, 64)
    with pytest.raises(ValueError):
        identify_plain(ds[0], ds[:1], params_list, 64)


@pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
def test_enroll_and_the_search_scale_by_one_template_norm(monkeypatch, layout):
    # 40 embeddings x 50 parameter sets under each layout: the scale enroll
    # gives each embedding under each set equals, bit for bit, the scale
    # identify gives it as a probe against the record of that set, and the
    # scale of its row in a batch
    pipe = Pipeline(PipelineConfig(seed=8, **layout))
    d, ctx = pipe.cfg.compress_dim, pipe.ctx
    values = np.random.default_rng(8).normal(size=(40, 512))
    people = [Embedding(v / np.linalg.norm(v), f"id{i:04d}", {}) for i, v in enumerate(values)]
    params = [pipe.gen_user_params(i) for i in range(50)]
    gallery = [enroll(people[0], p, ctx, d) for p in params]
    taken = []
    unit_scales = pl._unit_scales
    monkeypatch.setattr(pl, "_unit_scales", lambda norms: taken.append(unit_scales(norms)) or taken[-1])
    enrolled = np.empty((40, 50))
    searched = np.empty((40, 50))
    for i, e in enumerate(people):
        for j, p in enumerate(params):
            enroll(e, p, ctx, d)
            enrolled[i, j] = taken.pop()[0]
        identify(e, gallery, ctx)
        searched[i] = taken.pop()
    assert enrolled.tobytes() == searched.tobytes()
    x = np.array([compress_prefix(e, d) for e in people])
    for j, p in enumerate(params[:5]):
        pl._protect(x, [p] * len(x), ctx)
        assert taken.pop().tobytes() == enrolled[:, j].tobytes()


def _identify_per_record(probe, gallery, pipe):
    # The search without shared probe work: the probe is encrypted,
    # protected and normalized from scratch for every record.
    scores = []
    for rec in gallery:
        params = rec.params
        v = compress_prefix(probe, rec.compress_dim)
        before = pipe.ctx.ops.copy()
        windows = encrypt_windows(v, params, pipe.ctx)
        scale = 1.0 / template_norms(v, params.overlap, np.array([params.exps]), np.array([params.coeffs], float))[0]
        probe_ct = protect_encrypted(windows, params, scale)
        spent, before = pipe.ctx.ops - before, pipe.ctx.ops.copy()
        # what enroll runs for one embedding: the same bits, depth and ops
        enrolled = pl._protect(v, params, pipe.ctx)
        assert pipe.ctx.ops - before == spent
        assert (enrolled.slots.tobytes(), enrolled.depth_used) == (probe_ct.slots.tobytes(), probe_ct.depth_used)
        ct = cosine_unit_encrypted(rec.template, probe_ct, windows.k)
        scores.append((rec.subject_id, float(decrypt(ct, pipe.ctx)[0])))
    return sorted(scores, key=lambda t: (-t[1], t[0]))


@pytest.mark.parametrize("cfg", [PipelineConfig(seed=seed, **layout) for seed, layout in zip((4, 5, 6), LAYOUTS.values())])
def test_identify_scores_equal_per_record_protection(cfg):
    ds = gen_synthetic_dataset(small_spec(num_ids=6, samples_per_id=2, seed=cfg.seed))
    pipe = Pipeline(cfg)
    gallery, probes = build_gallery(ds, pipe)
    for probe in probes[:2]:
        assert pipe.identify(probe, gallery) == _identify_per_record(probe, gallery, pipe)


def _counting(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("num_ids", [2, 5, 9])
def test_identify_encrypts_probe_windows_once(num_ids):
    ds = gen_synthetic_dataset(small_spec(num_ids=num_ids, samples_per_id=2))
    pipe = Pipeline(PipelineConfig(seed=4))
    gallery, probes = build_gallery(ds, pipe)
    before = pipe.ctx.ops["encryptions"]
    pipe.identify(probes[0], gallery)
    assert pipe.ctx.ops["encryptions"] - before == pipe.cfg.m  # one per window column


def test_identify_builds_one_probe_template_per_pack(monkeypatch):
    # one probe template per pack of records, none per record: the records
    # were protected at enrollment and packed two to a ciphertext
    ds = gen_synthetic_dataset(small_spec(num_ids=5, samples_per_id=2))
    pipe = Pipeline(PipelineConfig(seed=4))
    gallery, probes = build_gallery(ds, pipe)
    assert [rec.block for rec in gallery] == [0, 1, 0, 1, 0]
    templates = _counting(monkeypatch, pl, "pack_template")
    protected = _counting(monkeypatch, pl, "protect_encrypted")
    first = pipe.identify(probes[0], gallery)
    assert len(templates) == 3 and not protected
    assert pipe.identify(probes[0], gallery) == first
    pipe.identify(probes[1], gallery)
    assert len(templates) == 9


def test_known_fault_comparison_scores_the_plain_cosine():
    # dataset seed 5, PipelineConfig(seed=1), probe 1 against record 77: a
    # template scaled by the public norm estimate put this comparison 10.4x
    # outside the inverse-sqrt fit domain, scoring about 2.8e4
    ds = gen_synthetic_dataset(SyntheticSpec(num_ids=200, samples_per_id=2, attribute_correlation=0.6, seed=5))
    enrolled, probes = enroll_split(ds)
    pipe = Pipeline(PipelineConfig(seed=1))
    params = pipe.gen_user_params(77)
    record = pipe.enroll(enrolled[77], params)
    ((sid, score),) = pipe.identify(probes[1], [record])
    probe_t, record_t = (protect_plain(compress_prefix(e, 64), params) for e in (probes[1], enrolled[77]))
    want = cosine_plain(probe_t, record_t)
    assert sid == enrolled[77].subject_id
    assert abs(score - want) <= 1e-9


def _oracle(ds, pipe):
    # the plaintext oracle over the enrollees that build_gallery(ds, pipe)
    # enrolled, under the same per-user parameters
    enrollees, _ = enroll_split(ds)
    params_list = [pipe.gen_user_params(i) for i in range(len(enrollees))]
    return lambda probe: identify_plain(probe, enrollees, params_list, pipe.cfg.compress_dim)


def _oracle_rank1(ds, cfg):
    oracle = _oracle(ds, Pipeline(cfg))
    _, probes = enroll_split(ds)
    return sum(oracle(probe)[0][0] == probe.subject_id for probe in probes) / len(probes)


def test_identify_ranks_equal_identify_plain_on_50_records():
    ds = gen_synthetic_dataset(small_spec(num_ids=50, samples_per_id=2, class_separation=20.0, seed=3))
    pipe = Pipeline(PipelineConfig(seed=8))
    gallery, probes = build_gallery(ds, pipe)
    oracle = _oracle(ds, pipe)
    for probe in probes[:10]:
        enc = pipe.identify(probe, gallery)
        plain = oracle(probe)
        assert [sid for sid, _ in enc] == [sid for sid, _ in plain]
        assert max(abs(a - b) for (_, a), (_, b) in zip(enc, plain)) <= EXACT_SCORE_TOL


def _power_chain(e):
    # the powers above 1 that square-and-multiply by balanced split builds
    # on the way to x**e, one ct mult each
    if e == 1:
        return set()
    return {e} | _power_chain(e // 2) | _power_chain(e - e // 2)


def test_enroll_he_counts():
    # m encryptions, no rotation, m plaintext mults, and the power chain of
    # each column's exponent
    ds = gen_synthetic_dataset(small_spec(num_ids=4, samples_per_id=1))
    pipe = Pipeline(PipelineConfig(seed=4))
    for i, sample in enumerate(ds):
        params = pipe.gen_user_params(i)
        before = pipe.ctx.ops.copy()
        pipe.enroll(sample, params)
        assert pipe.ctx.ops - before == {"ct_mults": 8, "pt_mults": 5, "encryptions": 5}
        assert sum(len(_power_chain(e)) for e in params.exps) == 8  # 0 + 1 + 2 + 2 + 3 for 1..5


def _packed_counts(gallery, pipe):
    # per pack: ceil(log2 k) rotations, one product, and one plaintext mult
    # per column of each of its records, shared pairs not merged; shared per
    # probe: one encryption per window column and powers 2..m of every
    # column, m - 1 ct mults each; so no count depends on the exponents
    m = gallery[0].params.m
    packs = {rec.pack for rec in gallery}
    return {
        "rotations": len(packs) * (pp.output_len(pipe.cfg.compress_dim, m, pipe.cfg.overlap) - 1).bit_length(),
        "ct_mults": len(packs) + m * (m - 1),
        "pt_mults": m * len(gallery),
        "encryptions": m,
    }


@pytest.mark.parametrize("num_ids", [3, 12])
def test_identify_he_counts_per_record(num_ids):
    ds = gen_synthetic_dataset(small_spec(num_ids=num_ids, samples_per_id=2))
    pipe = Pipeline(PipelineConfig(seed=4))
    gallery, probes = build_gallery(ds, pipe)
    assert len({rec.pack for rec in gallery}) == (num_ids + 1) // 2
    before = pipe.ctx.ops.copy()
    pipe.identify(probes[0], gallery)
    assert pipe.ctx.ops - before == _packed_counts(gallery, pipe)


def test_identify_he_counts_per_comparison_at_the_benchmark_shape(tmp_path):
    # the default config searching 200 records, as the identify benchmark
    # does: two records per ciphertext halve the rotations and products of
    # one per record (6 and 1.1 per comparison)
    ds = gen_synthetic_dataset(SyntheticSpec(num_ids=200, samples_per_id=2, attribute_correlation=0.6, seed=0))
    pipe = Pipeline(PipelineConfig(seed=0))
    before = pipe.ctx.ops.copy()
    gallery, probes = build_gallery(ds, pipe)
    assert (pipe.ctx.ops - before)["rotations"] == 100  # packing: N - packs, once
    save_gallery(gallery, pipe.ctx, pipe.params_store, tmp_path / "g")
    before = pipe.ctx.ops.copy()
    gallery, _, _ = load_gallery(tmp_path / "g", pipe.ctx)
    assert pipe.ctx.ops - before == {"rotations": 100}
    before = pipe.ctx.ops.copy()
    pipe.identify(probes[0], gallery)
    per = {kind: count / len(gallery) for kind, count in (pipe.ctx.ops - before).items()}
    assert per == {"rotations": 3.0, "ct_mults": 0.6, "pt_mults": 5.0, "encryptions": 0.025}


def test_build_gallery_costs_what_enrolling_each_record_costs():
    # the batched build pays per record what enroll pays (8 ct-ct mults, 5
    # plaintext mults and 5 encryptions at the default config), and
    # N - packs rotations to lay the packs out
    ds = gen_synthetic_dataset(SyntheticSpec(num_ids=200, samples_per_id=2, attribute_correlation=0.6, seed=7))
    pipe = Pipeline(PipelineConfig(seed=7))
    before = pipe.ctx.ops.copy()
    gallery, _ = build_gallery(ds, pipe)
    n, packs = len(gallery), len({rec.pack for rec in gallery})
    assert (n, packs) == (200, 100)
    assert pipe.ctx.ops - before == {"ct_mults": 8 * n, "pt_mults": 5 * n, "encryptions": 5 * n, "rotations": n - packs}


@pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
def test_build_gallery_templates_equal_enrolled_ones(monkeypatch, layout):
    # every record's template, bit for bit and at its depth, is the one
    # enroll makes of its sample alone, also across the build's batches
    # (here 3 + 3 + 1 rows): the batch path and enroll's one-embedding path
    # run different code
    monkeypatch.setattr(pl, "_PROTECT_ROWS", 3)
    ds = gen_synthetic_dataset(small_spec(num_ids=7, samples_per_id=1))
    pipe = Pipeline(PipelineConfig(seed=4, **layout))
    gallery, _ = build_gallery(ds, pipe)
    assert [rec.subject_id for rec in gallery] == [e.subject_id for e in ds]
    for rec, e in zip(gallery, ds):
        alone = enroll(e, rec.params, pipe.ctx, rec.compress_dim)
        assert decrypt(rec.template, pipe.ctx).tobytes() == decrypt(alone.template, pipe.ctx).tobytes()
        assert rec.template.depth_used == alone.template.depth_used == protect_depth(rec.params)


def test_identify_plaintext_mults_do_not_depend_on_shared_exponents():
    # records enrolled under one parameter set share every (column,
    # exponent) pair, and still pay m plaintext mults each, as records
    # that share none do: the count tells nothing of the secret exponents
    ds = gen_synthetic_dataset(small_spec(num_ids=4, samples_per_id=2))
    enrolled, probes = enroll_split(ds)
    pipe = Pipeline(PipelineConfig(seed=4))
    shared = pipe.gen_user_params(0)
    for params in ([shared] * 4, [pipe.gen_user_params(i) for i in range(4)]):
        entries = [
            (e.subject_id, pl._protect(compress_prefix(e, 64), p, pipe.ctx), p, 64, None)
            for e, p in zip(enrolled, params)
        ]
        gallery = pl._pack_gallery(entries, pipe.ctx)
        assert len({rec.pack for rec in gallery}) == 2
        before = pipe.ctx.ops.copy()
        pipe.identify(probes[0], gallery)
        assert (pipe.ctx.ops - before)["pt_mults"] == 4 * shared.m


def _singles(gallery, ds, pipe):
    # every record of gallery enrolled again on its own: packs of one, the
    # search as it scores records one ciphertext each
    by_id = {e.subject_id: e for e in enroll_split(ds)[0]}
    return [enroll(by_id[rec.subject_id], rec.params, pipe.ctx, rec.compress_dim) for rec in gallery]


@pytest.mark.parametrize("cfg,num_ids,blocks", [
    (PipelineConfig(seed=4), 7, 2),  # k = 60: two records per ciphertext, odd N
    (PipelineConfig(compress_dim=32, m=3, overlap=1, seed=5), 9, 8),  # k = 16: eight per ciphertext
    (PipelineConfig(compress_dim=128, seed=6), 3, 1),  # k = 124: one per ciphertext
])
def test_packed_scores_equal_packs_of_one(cfg, num_ids, blocks):
    ds = gen_synthetic_dataset(small_spec(num_ids=num_ids, samples_per_id=2, seed=cfg.seed))
    pipe = Pipeline(cfg)
    gallery, probes = build_gallery(ds, pipe)
    assert max(rec.block for rec in gallery) == min(blocks, num_ids) - 1
    singles = _singles(gallery, ds, pipe)
    for rec in singles:  # enroll lays a pack of one out as packing one record does
        (again,) = pl._pack_gallery([(rec.subject_id, rec.template, rec.params, rec.compress_dim, None)], pipe.ctx)
        assert rec.block == 0 and rec.template is rec.pack.ciphertext
        for name in ("exps", "coeffs"):
            assert getattr(again.pack, name).tobytes() == getattr(rec.pack, name).tobytes()
    for probe in probes[:3]:
        assert pipe.identify(probe, gallery) == pipe.identify(probe, singles)
    before = pipe.ctx.ops.copy()
    pipe.identify(probes[0], gallery)
    assert pipe.ctx.ops - before == _packed_counts(gallery, pipe)
    if blocks == 1:
        before = pipe.ctx.ops.copy()
        pipe.identify(probes[0], singles)
        assert pipe.ctx.ops - before == _packed_counts(gallery, pipe)


@pytest.mark.parametrize("cfg,num_ids", [
    (PipelineConfig(seed=4), 5),  # two records per ciphertext, the last pack of one
    (PipelineConfig(compress_dim=32, m=3, overlap=1, seed=5), 11),  # eight per ciphertext
    (PipelineConfig(slot_capacity=2048, seed=6), 32),  # k = 60 at 2048 slots: one full pack of 32
])
def test_packs_hold_their_gallery_side_tables_read_only(tmp_path, cfg, num_ids):
    ds = gen_synthetic_dataset(small_spec(num_ids=num_ids, samples_per_id=1, seed=cfg.seed))
    pipe = Pipeline(cfg)
    gallery, _ = build_gallery(ds, pipe)
    save_gallery(gallery, pipe.ctx, pipe.params_store, tmp_path / "g")
    loaded, _, _ = load_gallery(tmp_path / "g", pipe.ctx)
    single = pipe.enroll(ds[0], gallery[0].params)
    for records in (gallery, loaded, [single]):
        for pack in {rec.pack: None for rec in records}:
            n, m = len(pack.params), pack.params[0].m
            assert pack.width == 1 << (pp.output_len(*pack.layout) - 1).bit_length()
            assert pack.exps.tolist() == [list(p.exps) for p in pack.params]
            assert pack.coeffs.tolist() == [list(p.coeffs) for p in pack.params]
            assert pack.exps.shape == pack.coeffs.shape == (n, m)
            for array in (pack.exps, pack.coeffs):
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[0, 0] = 1


@pytest.mark.parametrize("cfg,num_ids", [
    (PipelineConfig(seed=4), 1),  # an enrolled pack of one
    (PipelineConfig(seed=4), 4),  # k = 60: two full packs of two at 128 slots
    (PipelineConfig(compress_dim=32, m=3, overlap=1, seed=5), 11),  # eight per ciphertext, the last pack of three
])
def test_identify_weights_each_pack_by_its_records_coefficients_and_scales(monkeypatch, cfg, num_ids):
    # a pack of n records gets one probe template: row b * m + i of its
    # weights is record b's coefficient at column i times record b's probe
    # scale over block b's slots, zero elsewhere, and its term is the
    # probe's column i raised to record b's exponent
    ds = gen_synthetic_dataset(small_spec(num_ids=max(num_ids, 2), samples_per_id=2, seed=cfg.seed))
    pipe = Pipeline(cfg)
    gallery, probes = build_gallery(ds, pipe)
    if num_ids == 1:
        gallery = [pipe.enroll(ds[0], gallery[0].params)]
    calls = _counting(monkeypatch, pl, "pack_template")
    pipe.identify(probes[0], gallery)
    packs = list({rec.pack: None for rec in gallery})
    assert len(calls) == len(packs) and sum(len(pack.params) for pack in packs) == num_ids
    cap, m = cfg.slot_capacity, cfg.m
    v = compress_prefix(probes[0], cfg.compress_dim)
    for pack, (terms, weights) in zip(packs, calls):
        n, width = len(pack.params), pack.width
        windows = encrypt_windows(v, pack.params[0], pipe.ctx, cap // width)
        assert len(terms) == m * n and weights.shape == (m * n, cap)
        for b, p in enumerate(pack.params):
            (norm,) = template_norms(v, cfg.overlap, np.array([p.exps]), np.array([p.coeffs]))
            for i in range(m):
                want = np.zeros(cap)
                want[b * width : (b + 1) * width] = p.coeffs[i] * (1.0 / norm)
                assert weights[b * m + i].tobytes() == want.tobytes()
                (power,) = pp.window_powers(windows, [(i, p.exps[i])])
                assert decrypt(terms[b * m + i], pipe.ctx).tobytes() == decrypt(power, pipe.ctx).tobytes()


def test_a_pack_stores_no_array_that_grows_with_the_capacity():
    # k = 60 at 2048 slots: W = 64, 32 blocks; besides its ciphertext a pack
    # of n records holds their exponent and coefficient rows, 2 * n * m
    # numbers, whether it is full or an enrolled pack of one
    cfg = PipelineConfig(slot_capacity=2048, seed=6)
    ds = gen_synthetic_dataset(small_spec(num_ids=32, samples_per_id=1, seed=cfg.seed))
    pipe = Pipeline(cfg)
    gallery, _ = build_gallery(ds, pipe)
    single = pipe.enroll(ds[0], gallery[0].params)
    for pack in (gallery[0].pack, single.pack):
        assert pack.width == 64 and cfg.slot_capacity // pack.width == 32
        held = sum(value.size for value in vars(pack).values() if isinstance(value, np.ndarray))
        assert held == 2 * len(pack.params) * cfg.m


def test_identify_equals_per_record_reference_at_the_benchmark_shape():
    # the default config and 200 records, as the identify benchmark runs:
    # part of a pack, a record listed twice, and a gallery of two layouts
    ds = gen_synthetic_dataset(SyntheticSpec(num_ids=200, samples_per_id=2, attribute_correlation=0.6, seed=0))
    pipe = Pipeline(PipelineConfig(seed=0))
    gallery, probes = build_gallery(ds, pipe)
    enrolled, _ = enroll_split(ds)
    params = [gen_params(3, 1, 50, seed=[9, i]) for i in range(9)]
    entries = [
        (e.subject_id + "b", pl._protect(compress_prefix(e, 48), p, pipe.ctx), p, 48, None)
        for e, p in zip(enrolled, params)
    ]
    others = pl._pack_gallery(entries, pipe.ctx)  # k = 24: four per ciphertext, then a pack of one
    mixed = gallery[150:] + others
    assert gallery[1].block == 1 and gallery[8].pack is gallery[9].pack
    for records in ([gallery[1]], [gallery[8], gallery[8], gallery[3]], mixed):
        for probe in probes[:2]:
            assert pipe.identify(probe, records) == _identify_per_record(probe, records, pipe)


def test_identify_scores_any_subset_of_a_packed_gallery():
    # one record of a pack, the same record twice, and records listed out of
    # pack order score as they do enrolled on their own
    ds = gen_synthetic_dataset(small_spec(num_ids=5, samples_per_id=2))
    pipe = Pipeline(PipelineConfig(seed=4))
    gallery, probes = build_gallery(ds, pipe)
    singles = _singles(gallery, ds, pipe)
    for picks in ([1], [2], [3, 3], [4, 1, 0, 1], [0, 2, 4]):
        got = pipe.identify(probes[0], [gallery[j] for j in picks])
        assert len(got) == len(picks)
        assert got == pipe.identify(probes[0], [singles[j] for j in picks])


def test_self_match_of_every_loaded_record_scores_one(tmp_path):
    ds = gen_synthetic_dataset(small_spec(num_ids=7, samples_per_id=1))
    pipe = Pipeline(PipelineConfig(seed=4))
    gallery, _ = build_gallery(ds, pipe)
    save_gallery(gallery, pipe.ctx, pipe.params_store, tmp_path / "g")
    loaded, _, ctx = load_gallery(tmp_path / "g", pipe.ctx)
    for e, rec in zip(ds, loaded):
        ((sid, score),) = identify(e, [rec], ctx)
        assert sid == e.subject_id and abs(score - 1.0) <= 1e-12


def test_identify_mixed_layout_gallery_equals_per_record_reference(tmp_path):
    # one gallery, records of two compress_dims and two (m, overlap)
    # layouts: the probe's windows are encrypted once per layout
    ds = gen_synthetic_dataset(small_spec(num_ids=8, samples_per_id=2, seed=7))
    enrolled, probes = enroll_split(ds)
    pipe = Pipeline(PipelineConfig(seed=4))
    layouts = [(64, 5, 4), (48, 5, 4), (64, 3, 1), (48, 3, 1)]
    gallery = []
    for i, e in enumerate(enrolled):
        d, m, overlap = layouts[i % len(layouts)]
        params = gen_params(m, overlap, 50, seed=[4, i])
        pipe.params_store[params.params_id] = params
        gallery.append(enroll(e, params, pipe.ctx, d))
    encryptions = sum(m for _, m, _ in layouts)
    # the same records packed by layout, two or four to a ciphertext
    save_gallery(gallery, pipe.ctx, pipe.params_store, tmp_path / "g")
    packed, _, _ = load_gallery(tmp_path / "g", pipe.ctx)
    for probe in probes[:3]:
        want = _identify_per_record(probe, gallery, pipe)
        for records in (gallery, packed):
            before = pipe.ctx.ops["encryptions"]
            assert pipe.identify(probe, records) == want
            assert pipe.ctx.ops["encryptions"] - before == encryptions


@pytest.mark.parametrize("tamper", [
    lambda slots: np.full_like(slots, np.inf),
    lambda slots: np.full_like(slots, np.nan),
    lambda slots: 2.0 * slots,  # twice a unit template: its self-score is 2
])
def test_identify_rejects_a_score_no_unit_templates_give(tamper):
    ds = gen_synthetic_dataset(small_spec(num_ids=3, samples_per_id=1))
    pipe = Pipeline(PipelineConfig(seed=4))
    gallery, _ = build_gallery(ds, pipe)
    enrolled, _ = enroll_split(ds)
    # the search reads record 1 from block 1 of the ciphertext it shares with record 0
    pack, width = gallery[1].pack, gallery[1].pack.width
    assert gallery[0].pack is pack and gallery[1].block == 1
    pack.ciphertext.slots[width : 2 * width] = tamper(pack.ciphertext.slots[width : 2 * width])
    with pytest.raises(IntegrityError, match=f"record 1 \\(subject {gallery[1].subject_id}\\)"):
        pipe.identify(enrolled[1], gallery)


def test_enroll_template_longer_than_capacity():
    # a batch and one embedding are refused by one check, in one wording,
    # before anything is encrypted
    ds = gen_synthetic_dataset(small_spec(num_ids=2, samples_per_id=2))
    pipe = Pipeline(PipelineConfig(slot_capacity=32, seed=4))  # k = 60 windows
    with pytest.raises(CapacityExceeded, match="^60 windows do not fit slot capacity 32$"):
        build_gallery(ds, pipe)
    before = pipe.ctx.ops.copy()
    with pytest.raises(CapacityExceeded, match="^60 windows do not fit slot capacity 32$"):
        pipe.enroll(ds[0], pipe.gen_user_params(0))
    assert pipe.ctx.ops == before


def test_enroll_refuses_a_list_of_sets_before_any_op():
    # one embedding takes one parameter set, not a one-element list of them
    ds = gen_synthetic_dataset(small_spec(num_ids=2, samples_per_id=1))
    pipe = Pipeline(PipelineConfig(seed=4))
    params = pipe.gen_user_params(0)
    before = pipe.ctx.ops.copy()
    with pytest.raises(ValueError, match="one embedding takes one parameter set"):
        enroll(ds[0], [params], pipe.ctx, pipe.cfg.compress_dim)
    assert pipe.ctx.ops == before


def test_identify_reads_params_from_the_gallery_not_a_store(tmp_path):
    # every record's pack holds its parameters: a built or loaded gallery
    # ranks the same after its pipeline's params store is emptied, and when
    # a second pipeline of the same config and key searches it
    ds = gen_synthetic_dataset(small_spec(num_ids=5, samples_per_id=2))
    pipe = Pipeline(PipelineConfig(seed=4))
    gallery, probes = build_gallery(ds, pipe)
    save_gallery(gallery, pipe.ctx, pipe.params_store, tmp_path / "g")
    loaded, _, _ = load_gallery(tmp_path / "g", pipe.ctx)
    want = [pipe.identify(probe, gallery) for probe in probes[:2]]
    second = Pipeline(pipe.cfg)
    assert not second.params_store
    pipe.params_store.clear()
    for searcher in (pipe, second):
        for records in (gallery, loaded):
            assert [searcher.identify(probe, records) for probe in probes[:2]] == want


def test_rank1_shuffled_labels_at_chance():
    ds = gen_synthetic_dataset(small_spec(num_ids=10, samples_per_id=3, class_separation=200.0))
    rng = np.random.default_rng(0)
    ids = [e.subject_id for e in ds]
    rng.shuffle(ids)
    shuffled = [Embedding(e.values, sid, e.attributes) for e, sid in zip(ds, ids)]
    acc = rank1_accuracy(shuffled, PipelineConfig(seed=0))
    assert acc <= 0.35  # ~ 1/num_ids


def test_plain_encrypted_parity_small():
    ds = gen_synthetic_dataset(small_spec(num_ids=12, samples_per_id=3))
    enc = rank1_accuracy(ds, PipelineConfig(seed=5))
    plain = _oracle_rank1(ds, PipelineConfig(seed=5))
    assert abs(enc - plain) <= 0.01


def test_parity_per_probe_decisions_above_margin():
    # wherever the plaintext top-two margin clears 2*tau, the encrypted
    # pipeline must reach the same rank-1 decision; tau is the exact-mode
    # score bound
    ds = gen_synthetic_dataset(small_spec(num_ids=8, samples_per_id=3, class_separation=20.0))
    pipe = Pipeline(PipelineConfig(seed=5))
    gallery, probes = build_gallery(ds, pipe)
    oracle = _oracle(ds, pipe)
    tau = EXACT_SCORE_TOL
    checked = 0
    for probe in probes:
        plain_ranked = oracle(probe)
        margin = plain_ranked[0][1] - plain_ranked[1][1]
        if margin > 2 * tau:
            enc_ranked = pipe.identify(probe, gallery)
            assert enc_ranked[0][0] == plain_ranked[0][0]
            checked += 1
    assert checked > 0  # the margin condition must actually bite


def test_enroll_split_policy():
    ds = gen_synthetic_dataset(small_spec(num_ids=4, samples_per_id=3))
    enrollees, probes = enroll_split(ds)
    assert len(enrollees) == 4
    assert len(probes) == 8
    assert len({e.subject_id for e in enrollees}) == 4


def test_dataset_csv_round_trip(tmp_path):
    ds = gen_synthetic_dataset(small_spec(num_ids=3, samples_per_id=2, dim=16))
    path = tmp_path / "ds.csv"
    save_dataset(ds, path)
    header = path.read_text().splitlines()[0]
    assert header.startswith("id,gender,age_band,ethnicity,v0,")
    back = load_dataset(path)
    assert len(back) == len(ds)
    for a, b in zip(ds, back):
        assert a.subject_id == b.subject_id
        assert a.attributes == b.attributes
        assert np.array_equal(a.values, b.values)  # repr round-trip is exact


@pytest.mark.parametrize("text", ["", "id,gender,age_band,ethnicity,v0,v1\n"])
def test_load_dataset_without_samples_is_error(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with pytest.raises(EmptyDataset):
        load_dataset(path)


def test_save_dataset_refuses_an_empty_dataset_before_opening_the_file(tmp_path):
    path = tmp_path / "empty.csv"
    with pytest.raises(EmptyDataset, match="at least one sample"):
        save_dataset([], path)
    assert not path.exists()


@pytest.mark.parametrize("row,line", [
    ("id0,female,0-22,white,0.5,abc", "line 3"),
    ("id0,female,0-22,white,0.5", "line 3"),
    ("id0,female", "line 3"),
    ("", "line 3"),
    ("id0,female,0-22,white,0.5,0.25,0.1", "line 3"),
    ("id0,female,0-22,white,0.5,nan", "line 3"),
])
def test_load_dataset_malformed_row_is_error(tmp_path, row, line):
    path = tmp_path / "bad.csv"
    path.write_text("id,gender,age_band,ethnicity,v0,v1\nid1,male,23-40,asian,0.1,0.2\n" + row + "\n")
    with pytest.raises(MalformedDataset) as exc:
        load_dataset(path)
    assert str(path) in str(exc.value) and line in str(exc.value)


@pytest.mark.parametrize("text,line", [
    ("id,gender,age_band,ethnicity,v0\nid0,female,0-22,white," + "1" * 200_000 + "\n", "line 2"),
    ("id,gender,age_band,ethnicity," + "v" * 200_000 + "\nid0,female,0-22,white,0.5\n", "line 1"),
])
def test_load_dataset_field_past_the_csv_limit_is_error(tmp_path, text, line):
    path = tmp_path / "big.csv"
    path.write_text(text)
    with pytest.raises(MalformedDataset, match="field larger than field limit") as exc:
        load_dataset(path)
    assert str(exc.value).startswith(f"{path}, {line}:")


def test_load_dataset_header_without_values_is_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,gender,age_band,ethnicity\nid1,male,23-40,asian\n")
    with pytest.raises(MalformedDataset):
        load_dataset(path)


def test_load_gallery_without_records_is_error(tmp_path):
    ds = gen_synthetic_dataset(small_spec(num_ids=2, samples_per_id=1))
    pipe = Pipeline(PipelineConfig(seed=6))
    gallery, _ = build_gallery(ds, pipe)
    save_gallery(gallery, pipe.ctx, pipe.params_store, tmp_path / "g")
    manifest = json.loads((tmp_path / "g" / "manifest.json").read_text())
    manifest["records"] = []
    (tmp_path / "g" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(EmptyGallery):
        load_gallery(tmp_path / "g")


def test_gallery_persistence_round_trip(tmp_path):
    ds = gen_synthetic_dataset(small_spec(num_ids=4, samples_per_id=2))
    pipe = Pipeline(PipelineConfig(seed=6))
    gallery, probes = build_gallery(ds, pipe)

    d1 = tmp_path / "g1"
    save_gallery(gallery, pipe.ctx, pipe.params_store, d1)
    loaded, params_store, ctx = load_gallery(d1)
    assert ctx.key_id == pipe.ctx.key_id

    d2 = tmp_path / "g2"
    save_gallery(loaded, ctx, params_store, d2)
    files = sorted(p.relative_to(d1) for p in d1.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(d2) for p in d2.rglob("*") if p.is_file())
    for rel in files:
        assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes()  # bit-identical round trip
    # version 3: the manifest, one blob per record and the params files
    manifest = json.loads((d1 / "manifest.json").read_text())
    assert manifest["version"] == 3
    assert [r["blob_path"] for r in manifest["records"]] == [f"blobs/{i}.ct" for i in range(len(gallery))]
    assert len(files) == 1 + len(gallery) + len(pipe.params_store)

    # loaded gallery scores exactly like the in-memory one
    probe = probes[0]
    mem = identify(probe, gallery, pipe.ctx)
    disk = identify(probe, loaded, ctx)
    assert mem == disk


def test_load_gallery_wrong_key(tmp_path):
    ds = gen_synthetic_dataset(small_spec(num_ids=3, samples_per_id=1))
    pipe = Pipeline(PipelineConfig(seed=6))
    gallery, _ = build_gallery(ds, pipe)
    save_gallery(gallery, pipe.ctx, pipe.params_store, tmp_path / "g")
    other = Pipeline(PipelineConfig(seed=7)).ctx
    with pytest.raises(ValueError):
        load_gallery(tmp_path / "g", other)


@pytest.mark.parametrize("size", [34, 100])
def test_load_gallery_truncated_blob_is_integrity_error(tmp_path, size):
    ds = gen_synthetic_dataset(small_spec(num_ids=2, samples_per_id=1))
    pipe = Pipeline(PipelineConfig(seed=6))
    gallery, _ = build_gallery(ds, pipe)
    save_gallery(gallery, pipe.ctx, pipe.params_store, tmp_path / "g")
    blob = tmp_path / "g" / "blobs" / "1.ct"
    blob.write_bytes(blob.read_bytes()[:size])
    with pytest.raises(IntegrityError):
        load_gallery(tmp_path / "g")


def _flip_payload_bit(blob_path):
    data = bytearray(blob_path.read_bytes())
    data[HEADER_LEN + 7] ^= 0x40
    blob_path.write_bytes(bytes(data))


def test_load_gallery_flipped_payload_bit_is_integrity_error(tmp_path):
    # one flipped bit made a record score +-inf against every probe
    ds = gen_synthetic_dataset(small_spec(num_ids=5, samples_per_id=1))
    pipe = Pipeline(PipelineConfig(seed=6))
    gallery, _ = build_gallery(ds, pipe)
    save_gallery(gallery, pipe.ctx, pipe.params_store, tmp_path / "g")
    _flip_payload_bit(tmp_path / "g" / "blobs" / "2.ct")
    with pytest.raises(IntegrityError) as exc:
        load_gallery(tmp_path / "g")
    assert "record 2 (blobs/2.ct) does not match its tag" in str(exc.value)


def test_gallery_params_files_follow_the_records(tmp_path):
    ds = gen_synthetic_dataset(small_spec(num_ids=3, samples_per_id=1))
    pipe = Pipeline(PipelineConfig(seed=6))
    gallery, _ = build_gallery(ds, pipe)
    unused = pipe.gen_user_params(99)
    save_gallery(gallery, pipe.ctx, pipe.params_store, tmp_path / "g")
    written = {p.stem for p in (tmp_path / "g" / "params").glob("*.json")}
    assert written == {rec.params_id for rec in gallery}
    # a params file the manifest does not name is never read
    (tmp_path / "g" / "params" / f"{unused.params_id}.json").write_text("not json")
    loaded, params_store, _ = load_gallery(tmp_path / "g")
    assert set(params_store) == written
    assert [rec.subject_id for rec in loaded] == [rec.subject_id for rec in gallery]


def test_save_empty_gallery_leaves_the_existing_gallery_intact(tmp_path):
    ds = gen_synthetic_dataset(small_spec(num_ids=3, samples_per_id=1))
    pipe = Pipeline(PipelineConfig(seed=6))
    gallery, _ = build_gallery(ds, pipe)
    out = tmp_path / "g"
    save_gallery(gallery, pipe.ctx, pipe.params_store, out)
    saved = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    with pytest.raises(EmptyGallery):
        save_gallery([], pipe.ctx, pipe.params_store, out)
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == saved
    assert [rec.blob for rec in load_gallery(out)[0]] == [rec.blob for rec in gallery]
    with pytest.raises(EmptyGallery):
        save_gallery([], pipe.ctx, {}, tmp_path / "new")
    assert not (tmp_path / "new").exists()


def test_save_gallery_unknown_params_id(tmp_path):
    ds = gen_synthetic_dataset(small_spec(num_ids=2, samples_per_id=1))
    pipe = Pipeline(PipelineConfig(seed=6))
    gallery, _ = build_gallery(ds, pipe)
    with pytest.raises(UnknownParamsId):
        save_gallery(gallery, pipe.ctx, {}, tmp_path / "g")


def test_save_gallery_writes_each_records_own_params(tmp_path):
    # writing the set a store holds under a record's params_id, not the
    # record's own, would make a gallery load_gallery refuses: such a store
    # is refused before anything is written
    ds = gen_synthetic_dataset(small_spec(num_ids=2, samples_per_id=1))
    pipe = Pipeline(PipelineConfig(seed=6))
    gallery, _ = build_gallery(ds, pipe)
    store = pipe.params_store | {gallery[0].params_id: gallery[1].params}
    with pytest.raises(UnknownParamsId, match=gallery[0].params_id):
        save_gallery(gallery, pipe.ctx, store, tmp_path / "bad")
    assert not (tmp_path / "bad").exists()
    save_gallery(gallery, pipe.ctx, pipe.params_store, tmp_path / "g")
    loaded, loaded_store, _ = load_gallery(tmp_path / "g", pipe.ctx)
    assert [rec.params for rec in loaded] == [rec.params for rec in gallery]
    assert loaded_store == {rec.params_id: rec.params for rec in gallery}


def test_save_gallery_takes_equal_sets_drawn_under_other_seeds(tmp_path):
    # with m = 2 and c_range = 1 only four sets exist, so five users share
    # ids; the store keeps the later seed's set, and the seed is no part of
    # the id, so each record's set is still the one stored under its id
    ds = gen_synthetic_dataset(small_spec(num_ids=5, samples_per_id=1))
    pipe = Pipeline(PipelineConfig(m=2, overlap=1, c_range=1, seed=3))
    gallery, _ = build_gallery(ds, pipe)
    assert len(pipe.params_store) < len(gallery)
    assert any(pipe.params_store[rec.params_id].seed != rec.params.seed for rec in gallery)
    save_gallery(gallery, pipe.ctx, pipe.params_store, tmp_path / "g")
    loaded, loaded_store, _ = load_gallery(tmp_path / "g", pipe.ctx)
    assert [rec.params_id for rec in loaded] == [rec.params_id for rec in gallery]
    assert loaded_store == pipe.params_store
    save_gallery(loaded, pipe.ctx, loaded_store, tmp_path / "again")
    saved = {p.relative_to(tmp_path / "g"): p.read_bytes() for p in (tmp_path / "g").rglob("*") if p.is_file()}
    again = {p.relative_to(tmp_path / "again"): p.read_bytes() for p in (tmp_path / "again").rglob("*") if p.is_file()}
    assert again == saved


def test_failed_save_leaves_the_existing_gallery_intact(tmp_path):
    # each save fails on its last record, after every other one was serialized
    ds = gen_synthetic_dataset(small_spec(num_ids=8, samples_per_id=1))
    pipe = Pipeline(PipelineConfig(seed=6))
    gallery, _ = build_gallery(ds, pipe)
    first, second = gallery[:4], gallery[4:]
    no_params = dict(pipe.params_store)
    del no_params[second[-1].params_id]
    foreign = second[:-1] + [Pipeline(PipelineConfig(seed=7)).enroll(ds[-1], second[-1].params)]
    for name, records, store, error in [
        ("no-params", second, no_params, UnknownParamsId),
        ("foreign-key", foreign, pipe.params_store, KeyMismatch),
    ]:
        out = tmp_path / name
        save_gallery(first, pipe.ctx, pipe.params_store, out)
        saved = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        with pytest.raises(error):
            save_gallery(records, pipe.ctx, store, out)
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == saved
        loaded, _, _ = load_gallery(out)
        assert [rec.blob for rec in loaded] == [rec.blob for rec in first]


def test_load_gallery_missing_params_file(tmp_path):
    path, _ = _saved_manifest(tmp_path)
    for pfile in (path.parent / "params").glob("*.json"):
        pfile.unlink()
    with pytest.raises(UnknownParamsId):
        load_gallery(tmp_path / "g")


def _saved_manifest(tmp_path):
    ds = gen_synthetic_dataset(small_spec(num_ids=2, samples_per_id=1))
    pipe = Pipeline(PipelineConfig(seed=6))
    gallery, _ = build_gallery(ds, pipe)
    save_gallery(gallery, pipe.ctx, pipe.params_store, tmp_path / "g")
    path = tmp_path / "g" / "manifest.json"
    return path, json.loads(path.read_text())


@pytest.mark.parametrize("edit,problem", [
    (lambda m: m.pop("version"), "manifest needs 'version' as a JSON int"),
    (lambda m: m.update(version="3"), "manifest needs 'version' as a JSON int"),
    (lambda m: m.update(version=99), "format version 99, not 3"),
    (lambda m: m.update(version=1), "format version 1, not 3 (one blob per window); re-enroll it"),
    (lambda m: m.update(version=2), "format version 2, not 3 (templates scaled by a norm estimate, no integrity"),
    (lambda m: m["records"][0].pop("tag"), "record 0 needs 'tag' as a JSON str"),
    (lambda m: m["records"][1].update(tag="00" * 32), "record 1 (blobs/1.ct) does not match its tag"),
    (lambda m: m["records"][1].update(tag="\u00e9"), "record 1 (blobs/1.ct) does not match its tag"),
    (lambda m: m["records"][1].update(subject_id="id0000"), "record 1 (blobs/1.ct) does not match its tag"),
    (lambda m: m.pop("ctx"), "manifest needs 'ctx' as a JSON dict"),
    (lambda m: m.update(records={}), "manifest needs 'records' as a JSON list"),
    (lambda m: m["ctx"].pop("key_id"), "manifest ctx needs 'key_id' as a JSON str"),
    (lambda m: m["ctx"].update(key_id="zz"), "manifest ctx is invalid"),
    (lambda m: m["ctx"].update(slot_capacity=100), "manifest ctx is invalid"),
    (lambda m: m["ctx"].update(depth_budget=True), "manifest ctx needs 'depth_budget' as a JSON int"),
    (lambda m: m["records"][1].pop("blob_path"), "record 1 needs 'blob_path' as a JSON str"),
    (lambda m: m["records"][0].update(blob_path="/absent/0.ct"), "record 0 names blob '/absent/0.ct'; it must be"),
    # the right blob, reached by another path
    (lambda m: m["records"][1].update(blob_path="../g/blobs/1.ct"), "record 1 names blob '../g/blobs/1.ct'; it must be"),
    (lambda m: m["records"][0].update(compress_dim="64"), "record 0 needs 'compress_dim' as a JSON int"),
    (lambda m: m["records"].append(7), "record 2 is not a JSON object"),
])
def test_load_gallery_bad_manifest_is_integrity_error(tmp_path, edit, problem):
    path, manifest = _saved_manifest(tmp_path)
    edit(manifest)
    path.write_text(json.dumps(manifest))
    with pytest.raises(IntegrityError) as exc:
        load_gallery(tmp_path / "g")
    assert str(tmp_path / "g") in str(exc.value) and problem in str(exc.value)


@pytest.mark.parametrize("d", [0, PipelineConfig().m - 1, 300])
def test_load_gallery_refuses_a_compress_dim_its_windows_cannot_take(tmp_path, d):
    # under a tag recomputed for the new value, as anyone who can read the
    # gallery's key id can: fewer than m values give no window, and 300
    # values give more windows than the 128 slots hold
    path, manifest = _saved_manifest(tmp_path)
    meta, rec = manifest["ctx"], manifest["records"][1]
    ctx = EncryptionContext(meta["slot_capacity"], meta["depth_budget"], key_id=bytes.fromhex(meta["key_id"]))
    blob = (path.parent / rec["blob_path"]).read_bytes()
    rec.update(compress_dim=d, tag=pl._record_tag(rec["subject_id"], rec["params_id"], d, blob, ctx))
    path.write_text(json.dumps(manifest))
    with pytest.raises(IntegrityError) as exc:
        load_gallery(tmp_path / "g")
    assert str(tmp_path / "g") in str(exc.value) and f"record 1 has compress_dim {d}," in str(exc.value)


@pytest.mark.parametrize("pid", ["../../outside", "ABCDEF0123456789", "0123456789abcde", "0123456789abcdef0"])
def test_load_gallery_refuses_a_params_id_that_is_not_16_hex_digits(tmp_path, monkeypatch, pid):
    path, manifest = _saved_manifest(tmp_path)
    # a valid params file outside the gallery, where "params/../../outside.json" leads
    (tmp_path / "outside.json").write_bytes(sorted((path.parent / "params").glob("*.json"))[0].read_bytes())
    manifest["records"][0]["params_id"] = pid
    path.write_text(json.dumps(manifest))
    opened = []
    load_params = pl.load_params
    monkeypatch.setattr(pl, "load_params", lambda p: opened.append(p) or load_params(p))
    with pytest.raises(IntegrityError) as exc:
        load_gallery(tmp_path / "g")
    assert f"record 0 has params_id {pid!r}, not 16 lowercase hex digits" in str(exc.value)
    assert opened == []  # refused while the manifest is read, before any params file


def test_hand_built_params_gallery_loads_back(tmp_path):
    # a parameter set built by hand, not by gen_params, carries the id of its values
    params = pp.PolyProtectParams(5, 4, (2, -3, 1, 4, -1), (1, 2, 3, 4, 5), 50)
    e = gen_synthetic_dataset(small_spec(num_ids=2, samples_per_id=1))[0]
    pipe = Pipeline(PipelineConfig(seed=6))
    save_gallery([pipe.enroll(e, params)], pipe.ctx, {params.params_id: params}, tmp_path / "g")
    loaded, store, _ = load_gallery(tmp_path / "g")
    assert store == {params.params_id: params} and loaded[0].params == params


@pytest.mark.parametrize("data", [b"", b"[]", b'{"version": 2, "ctx": {', b'{"version": 2\xff}'])
def test_load_gallery_manifest_not_json_object_is_integrity_error(tmp_path, data):
    path, _ = _saved_manifest(tmp_path)
    path.write_bytes(data)
    with pytest.raises(IntegrityError) as exc:
        load_gallery(tmp_path / "g")
    assert str(tmp_path / "g") in str(exc.value)


@pytest.mark.parametrize("spoil", [
    lambda blob: (blob.unlink(), blob.mkdir()),
    lambda blob: blob.write_bytes(blob.read_bytes() + b"\0"),
    lambda blob: blob.write_bytes(blob.read_bytes()[:-1]),
    lambda blob: blob.unlink(),
], ids=["directory", "one-byte-long", "one-byte-short", "missing"])
def test_load_gallery_refuses_a_blob_that_is_not_a_file_of_the_exact_size(tmp_path, spoil):
    path, manifest = _saved_manifest(tmp_path)
    size = HEADER_LEN + 8 * manifest["ctx"]["slot_capacity"]
    blob = path.parent / "blobs" / "0.ct"
    assert blob.stat().st_size == size
    spoil(blob)
    with pytest.raises(IntegrityError) as exc:
        load_gallery(tmp_path / "g")
    assert str(tmp_path / "g") in str(exc.value)
    assert f"blobs/0.ct is not a regular file of {size} bytes" in str(exc.value)


def _rehashed(d):
    # the edited values under their own params_id, as a consistent forger would write them
    return d | {"params_id": pp._params_id(d["m"], d["overlap"], d["c_range"], d["coeffs"], d["exps"])}


@pytest.mark.parametrize("edit,rename,problem", [
    (lambda text, d: text[:40], False, "is not valid JSON"),
    (lambda text, d: b"\xff" + text, False, "is not valid JSON"),
    (lambda text, d: b"[]", False, "is not a JSON object"),
    (lambda text, d: {k: v for k, v in d.items() if k != "exps"}, False, "needs 'exps' as a JSON list"),
    (lambda text, d: d | {"m": "5"}, False, "needs 'm' as a JSON int"),
    (lambda text, d: d | {"overlap": True}, False, "needs 'overlap' as a JSON int"),
    (lambda text, d: d | {"coeffs": [1.5] + d["coeffs"][1:]}, False, "lists of JSON ints"),
    (lambda text, d: d | {"coeffs": d["coeffs"][::-1]}, False, "not the hash of its values"),
    (lambda text, d: _rehashed(d | {"c_range": 51}), False, "must equal the file name"),
    (lambda text, d: _rehashed(d | {"coeffs": [1] * d["m"]}), True, "holds invalid parameters"),
    (lambda text, d: _rehashed(d | {"coeffs": [d["c_range"] + 1] + d["coeffs"][1:]}), False, "holds invalid parameters"),
    (lambda text, d: _rehashed(d | {"m": 1, "overlap": 0, "coeffs": [1], "exps": [1]}), True, "holds invalid parameters"),
])
def test_load_gallery_bad_params_file_is_integrity_error(tmp_path, edit, rename, problem):
    path, _ = _saved_manifest(tmp_path)
    pfile = sorted((path.parent / "params").glob("*.json"))[0]
    text = pfile.read_bytes()
    out = edit(text, json.loads(text))
    if rename:  # stored under the name its new params_id gives, and named so in the manifest
        manifest = json.loads(path.read_text())
        for rec_meta in manifest["records"]:
            if rec_meta["params_id"] == pfile.stem:
                rec_meta["params_id"] = out["params_id"]
        path.write_text(json.dumps(manifest))
        pfile.unlink()
        pfile = pfile.with_name(f"{out['params_id']}.json")
    pfile.write_bytes(out if isinstance(out, bytes) else json.dumps(out).encode())
    with pytest.raises(IntegrityError) as exc:
        load_gallery(tmp_path / "g")
    assert str(tmp_path / "g") in str(exc.value) and problem in str(exc.value)


@pytest.mark.parametrize("n", [1, 5, 20])
def test_a_search_costs_what_the_galleries_shape_fixes(n):
    # every gallery of N records of one layout, whatever its records'
    # secret exponents, costs one probe the same ledger difference: all m^2
    # column powers are built, not only those the listed records use
    costs = []
    for seed in range(4):
        ds = gen_synthetic_dataset(small_spec(num_ids=20, samples_per_id=2, seed=seed))
        pipe = Pipeline(PipelineConfig(seed=seed))
        gallery, probes = build_gallery(ds, pipe)
        before = pipe.ctx.ops.copy()
        pipe.identify(probes[0], gallery[:n])
        costs.append(pipe.ctx.ops - before)
    assert all(cost == costs[0] for cost in costs)
    assert costs[0]["ct_mults"] == len({rec.pack for rec in gallery[:n]}) + 5 * 4  # packs + m (m - 1)
