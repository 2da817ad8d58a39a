import json

import numpy as np
import pytest

from polyfhe import pipeline as pl
from polyfhe import polyprotect as pp
from polyfhe.backend import HEADER_LEN, decrypt
from polyfhe.errors import (
    CapacityExceeded,
    EmptyDataset,
    EmptyGallery,
    IntegrityError,
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
from polyfhe.similarity import cosine_plain, cosine_unit_encrypted


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


def test_synthetic_deterministic():
    a = gen_synthetic_dataset(small_spec())
    b = gen_synthetic_dataset(small_spec())
    assert len(a) == len(b) == 30
    assert all(np.array_equal(x.values, y.values) for x, y in zip(a, b))
    assert all(x.attributes == y.attributes for x, y in zip(a, b))


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


def test_rank1_compression_plateau():
    # prefix truncation to 64 dims costs at most 3 points of rank-1 accuracy
    ds = gen_synthetic_dataset(small_spec(num_ids=15, class_separation=60.0))
    acc64 = rank1_accuracy(ds, PipelineConfig(compress_dim=64, encrypted=False, seed=3))
    acc512 = rank1_accuracy(ds, PipelineConfig(compress_dim=512, encrypted=False, seed=3))
    assert abs(acc64 - acc512) <= 0.03


def test_attribute_correlation_zero_gives_chance():
    from polyfhe.leakage import chance_level, eval_accuracy, train_attr_classifier

    ds = gen_synthetic_dataset(small_spec(num_ids=20, samples_per_id=6, attribute_correlation=0.0))
    feats = np.stack([e.values for e in ds])
    labels = [e.attributes["gender"] for e in ds]
    train, test = feats[:80], feats[80:]
    clf = train_attr_classifier(train, labels[:80], epochs=200, seed=0)
    acc = eval_accuracy(clf, test, labels[80:])
    assert acc <= chance_level(labels[80:]) + 0.15


def test_high_separation_perfect_rank1():
    ds = gen_synthetic_dataset(small_spec(class_separation=200.0))
    assert rank1_accuracy(ds, PipelineConfig(encrypted=False, seed=0)) == 1.0


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
        identify_plain(ds[0], [], {})


def _identify_per_record(probe, gallery, pipe):
    # The search without shared probe work: the probe is encrypted,
    # protected and normalized from scratch for every record.
    scores = []
    for rec in gallery:
        params = pipe.params_store[rec.params_id]
        v = compress_prefix(probe, rec.compress_dim)
        windows = encrypt_windows(v, params, pipe.ctx)
        scale = 1.0 / template_norms(v, [params])[0]
        probe_ct = protect_encrypted(windows, params, scale)
        ct = cosine_unit_encrypted(rec.template, probe_ct, windows.k)
        scores.append((rec.subject_id, float(decrypt(ct, pipe.ctx)[0])))
    return sorted(scores, key=lambda t: (-t[1], t[0]))


@pytest.mark.parametrize("cfg", [
    PipelineConfig(seed=4),
    PipelineConfig(compress_dim=48, m=3, overlap=1, seed=5),
    PipelineConfig(compress_dim=130, m=3, overlap=2, seed=6),  # k = 128 = capacity
])
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
        calls.append(1)
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


def test_identify_packs_each_record_once(monkeypatch):
    # one pack per record, for the probe: the records were packed at enrollment
    ds = gen_synthetic_dataset(small_spec(num_ids=4, samples_per_id=2))
    pipe = Pipeline(PipelineConfig(seed=4))
    gallery, probes = build_gallery(ds, pipe)
    packs = _counting(monkeypatch, pl, "protect_encrypted")
    first = pipe.identify(probes[0], gallery)
    assert len(packs) == len(gallery)
    assert pipe.identify(probes[0], gallery) == first
    pipe.identify(probes[1], gallery)
    assert len(packs) == 3 * len(gallery)


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


def test_identify_ranks_equal_identify_plain_on_50_records():
    ds = gen_synthetic_dataset(small_spec(num_ids=50, samples_per_id=2, class_separation=20.0, seed=3))
    enc_pipe = Pipeline(PipelineConfig(seed=8))
    plain_pipe = Pipeline(PipelineConfig(encrypted=False, seed=8))
    enc_gallery, probes = build_gallery(ds, enc_pipe)
    plain_gallery, _ = build_gallery(ds, plain_pipe)
    for probe in probes[:10]:
        enc = enc_pipe.identify(probe, enc_gallery)
        plain = plain_pipe.identify(probe, plain_gallery)
        assert [sid for sid, _ in enc] == [sid for sid, _ in plain]
        assert max(abs(a - b) for (_, a), (_, b) in zip(enc, plain)) <= 1e-12


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


@pytest.mark.parametrize("num_ids", [3, 12])
def test_identify_he_counts_per_record(num_ids):
    # per record: ceil(log2 k) rotations, one product and m plaintext
    # mults; shared per probe: one encryption per window column and, per
    # column, the power chains of the exponents the records give it
    ds = gen_synthetic_dataset(small_spec(num_ids=num_ids, samples_per_id=2))
    pipe = Pipeline(PipelineConfig(seed=4))
    gallery, probes = build_gallery(ds, pipe)
    params = [pipe.params_store[rec.params_id] for rec in gallery]
    m = pipe.cfg.m
    chains = [set().union(*(_power_chain(p.exps[i]) for p in params)) for i in range(m)]
    before = pipe.ctx.ops.copy()
    pipe.identify(probes[0], gallery)
    n, k = len(gallery), pipe.k
    assert pipe.ctx.ops - before == {
        "rotations": n * (k - 1).bit_length(),
        "ct_mults": n + sum(len(chain) for chain in chains),
        "pt_mults": n * m,
        "encryptions": m,
    }


def test_identify_mixed_layout_gallery_equals_per_record_reference():
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
    for probe in probes[:3]:
        before = pipe.ctx.ops["encryptions"]
        got = dict(pipe.identify(probe, gallery))
        assert pipe.ctx.ops["encryptions"] - before == encryptions
        want = dict(_identify_per_record(probe, gallery, pipe))
        assert got.keys() == want.keys()
        assert max(abs(got[sid] - want[sid]) for sid in want) <= 1e-12


@pytest.mark.parametrize("tamper", [
    lambda slots: np.full_like(slots, np.inf),
    lambda slots: np.full_like(slots, np.nan),
    lambda slots: 2.0 * slots,  # twice a unit template: its self-score is 2
])
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_identify_rejects_a_score_no_unit_templates_give(tamper):
    ds = gen_synthetic_dataset(small_spec(num_ids=3, samples_per_id=1))
    pipe = Pipeline(PipelineConfig(seed=4))
    gallery, _ = build_gallery(ds, pipe)
    enrolled, _ = enroll_split(ds)
    gallery[1].template.slots = tamper(gallery[1].template.slots)
    with pytest.raises(IntegrityError, match=f"record 1 \\(subject {gallery[1].subject_id}\\)"):
        pipe.identify(enrolled[1], gallery)


def test_enroll_template_longer_than_capacity():
    ds = gen_synthetic_dataset(small_spec(num_ids=2, samples_per_id=2))
    pipe = Pipeline(PipelineConfig(slot_capacity=32, seed=4))  # k = 60 windows
    with pytest.raises(CapacityExceeded):
        build_gallery(ds, pipe)


def test_identify_unknown_params_id():
    ds = gen_synthetic_dataset(small_spec(num_ids=3, samples_per_id=1))
    pipe = Pipeline(PipelineConfig(seed=4))
    gallery, _ = build_gallery(ds, pipe)
    pipe.params_store.clear()
    with pytest.raises(UnknownParamsId):
        pipe.identify(ds[0], gallery)


def test_rank1_shuffled_labels_at_chance():
    ds = gen_synthetic_dataset(small_spec(num_ids=10, samples_per_id=3, class_separation=200.0))
    rng = np.random.default_rng(0)
    ids = [e.subject_id for e in ds]
    rng.shuffle(ids)
    shuffled = [Embedding(e.values, sid, e.attributes) for e, sid in zip(ds, ids)]
    acc = rank1_accuracy(shuffled, PipelineConfig(encrypted=False, seed=0))
    assert acc <= 0.35  # ~ 1/num_ids


def test_plain_encrypted_parity_small():
    ds = gen_synthetic_dataset(small_spec(num_ids=12, samples_per_id=3))
    enc = rank1_accuracy(ds, PipelineConfig(encrypted=True, seed=5))
    plain = rank1_accuracy(ds, PipelineConfig(encrypted=False, seed=5))
    assert abs(enc - plain) <= 0.01


def test_parity_per_probe_decisions_above_margin():
    # wherever the plaintext top-two margin clears 2*tau, the encrypted
    # pipeline must reach the same rank-1 decision
    ds = gen_synthetic_dataset(small_spec(num_ids=8, samples_per_id=3, class_separation=20.0))
    enc_pipe = Pipeline(PipelineConfig(encrypted=True, seed=5))
    plain_pipe = Pipeline(PipelineConfig(encrypted=False, seed=5))
    enc_gallery, probes = build_gallery(ds, enc_pipe)
    plain_gallery, _ = build_gallery(ds, plain_pipe)
    tau = 2 * enc_pipe.approx.fit_report.max_rel_err + 1e-6
    checked = 0
    for probe in probes:
        plain_ranked = plain_pipe.identify(probe, plain_gallery)
        margin = plain_ranked[0][1] - plain_ranked[1][1]
        if margin > 2 * tau:
            enc_ranked = enc_pipe.identify(probe, enc_gallery)
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
    mem = identify(probe, gallery, pipe.params_store, pipe.ctx)
    disk = identify(probe, loaded, params_store, ctx)
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


def test_save_gallery_unknown_params_id(tmp_path):
    ds = gen_synthetic_dataset(small_spec(num_ids=2, samples_per_id=1))
    pipe = Pipeline(PipelineConfig(seed=6))
    gallery, _ = build_gallery(ds, pipe)
    with pytest.raises(UnknownParamsId):
        save_gallery(gallery, pipe.ctx, {}, tmp_path / "g")


def test_failed_save_leaves_the_existing_gallery_intact(tmp_path):
    ds = gen_synthetic_dataset(small_spec(num_ids=8, samples_per_id=1))
    pipe = Pipeline(PipelineConfig(seed=6))
    gallery, _ = build_gallery(ds, pipe)
    first, second = gallery[:4], gallery[4:]
    out = tmp_path / "g"
    save_gallery(first, pipe.ctx, pipe.params_store, out)
    saved = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    store = dict(pipe.params_store)
    del store[second[-1].params_id]
    with pytest.raises(UnknownParamsId):
        save_gallery(second, pipe.ctx, store, out)
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


@pytest.mark.parametrize("data", [b"", b"[]", b'{"version": 2, "ctx": {', b'{"version": 2\xff}'])
def test_load_gallery_manifest_not_json_object_is_integrity_error(tmp_path, data):
    path, _ = _saved_manifest(tmp_path)
    path.write_bytes(data)
    with pytest.raises(IntegrityError) as exc:
        load_gallery(tmp_path / "g")
    assert str(tmp_path / "g") in str(exc.value)


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
    (lambda text, d: d | {"coeffs": [d["coeffs"][0] + 100] + d["coeffs"][1:]}, False, "not the hash of its values"),
    (lambda text, d: _rehashed(d | {"c_range": 51}), False, "must equal the file name"),
    (lambda text, d: _rehashed(d | {"coeffs": [1] * d["m"]}), True, "holds invalid parameters"),
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
