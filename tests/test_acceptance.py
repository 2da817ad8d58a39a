"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here, not configurable; calibrated constants
(regression baselines, the unlinkability threshold) were derived once from
independent oracle runs and frozen.
"""

import time

import numpy as np
import pytest

from polyfhe.backend import EncryptionContext, decrypt, encrypt
from polyfhe.invsqrt import fit_inv_sqrt
from polyfhe.leakage import privacy_gain, run_leakage_suite, suppression_rate
from polyfhe.pipeline import (
    PipelineConfig,
    SyntheticSpec,
    gen_synthetic_dataset,
    rank1_accuracy,
)
from polyfhe.polyprotect import (
    encrypt_windows,
    gen_params,
    protect_encrypted,
    protect_plain,
    template_correlation,
)
from polyfhe.similarity import cosine_plain, cosine_encrypted_score, unit_cosine_setup
from polyfhe.summation import bench_summation, dft_sum, fold_add_all, naive_add_all, write_bench_csv


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_pg_sr_arithmetic():
    """Known accuracy pairs feed through to their PG and SR values."""
    pairs = {
        "gender": (0.9812, 0.5222),
        "age": (0.8768, 0.0612),
        "ethnicity": (0.9881, 0.0801),
    }
    expected_pg_x100 = {"gender": 45.90, "age": 81.56, "ethnicity": 90.80}
    expected_sr = {"gender": 0.4678, "age": 0.9302, "ethnicity": 0.9189}
    worst = 0.0
    for attr, (a_o, a_p) in pairs.items():
        pg_err = abs(privacy_gain(a_o, a_p) * 100 - expected_pg_x100[attr])
        sr_err = abs(suppression_rate(a_o, a_p) - expected_sr[attr])
        worst = max(worst, pg_err, sr_err)
        assert pg_err <= 0.005 and sr_err <= 0.005
    report(1, True, f"PG/SR arithmetic reproduction, worst deviation {worst:.2e} (tol 0.005)")


def test_criterion_2_summation_oracle_suite():
    """naive/fold/dft match brute force for n in 1..1024; exact op counts."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    contexts = {}
    worst = 0.0
    for n in range(1, 1025):
        cap = 1 << (n - 1).bit_length() if n > 1 else 1
        ctx = contexts.get(cap)
        if ctx is None:
            ctx = contexts[cap] = EncryptionContext(cap, 16, key_id="acc2")
        for _ in range(10):
            data = rng.uniform(-1.0, 1.0, n)
            expected = data.sum()
            sv = encrypt(data, ctx)
            before = ctx.ops["rotations"]
            na = naive_add_all(sv, n)
            na_rotations = ctx.ops["rotations"] - before
            fo = fold_add_all(sv, n)
            fo_rotations = ctx.ops["rotations"] - before - na_rotations
            df = dft_sum(sv, n)
            err = max(abs(na.slots[0] - expected), abs(fo.slots[0] - expected), abs(df.slots[0] - expected))
            worst = max(worst, err)
            assert err <= 1e-9
            assert na_rotations == n - 1
            assert fo_rotations == (n - 1).bit_length()
    report(2, True, f"summation oracle suite n=1..1024 x10, worst |err| {worst:.2e} (tol 1e-9), {time.time()-t0:.0f}s")


def test_criterion_3_benchmark_ordering(tmp_path):
    """fold beats naive in wall time for every n >= 256; CSV emitted."""
    ctx = EncryptionContext(2048, 16, key_id="acc3")
    sizes = [2**i for i in range(1, 12)]
    rows = bench_summation(sizes, ctx, seed=0, repeats=3)
    path = tmp_path / "bench_summation.csv"
    write_bench_csv(rows, path)
    assert path.exists()
    by = {(r.n, r.method): r.wall_ns for r in rows}
    gaps = []
    for n in sizes:
        if n >= 256:
            assert by[(n, "fold")] < by[(n, "naive")], f"fold not faster at n={n}"
            gaps.append(by[(n, "naive")] / by[(n, "fold")])
    report(3, True, f"fold faster than naive for all n >= 256 (speedups {min(gaps):.0f}x..{max(gaps):.0f}x), CSV written")


def test_criterion_4_polyprotect_equivalence():
    """Encrypted transform matches the plaintext oracle to 1e-6, in depth.

    All k windows share one packed template, so the context holds 64 slots.
    """
    t0 = time.time()
    ctx = EncryptionContext(64, 16, key_id="acc4")
    rng = np.random.default_rng(4)
    worst = 0.0
    for m in range(3, 8):
        depth_bound = (m - 1).bit_length() + 2
        for overlap in range(m):
            params = gen_params(m, overlap, 50, seed=[m, overlap])
            for _ in range(20):
                v = rng.normal(size=64)
                v /= np.linalg.norm(v)
                plain = protect_plain(v, params)
                enc = protect_encrypted(encrypt_windows(v, params, ctx), params)
                slots = decrypt(enc, ctx)
                got = slots[: len(plain)]
                assert not slots[len(plain) :].any()
                worst = max(worst, float(np.max(np.abs(got - plain))))
                assert np.max(np.abs(got - plain)) <= 1e-6
                assert enc.depth_used <= depth_bound
    report(4, True, f"encrypted/plain equivalence m=3..7 all overlaps, worst |diff| {worst:.2e} (tol 1e-6), {time.time()-t0:.0f}s")


# first-derivation regression baselines (degree, [1e-3, 1], 2000 points, seed 0)
FROZEN_MAX_REL = {6: 0.6921066369598737, 8: 0.608454439508053}


def test_criterion_5_inverse_sqrt_regression():
    """Degree-8 fit no worse than degree-6; both frozen as baselines."""
    a6 = fit_inv_sqrt(6, (1e-3, 1.0))
    a8 = fit_inv_sqrt(8, (1e-3, 1.0))
    assert a8.fit_report.n_samples == 2000
    assert a8.fit_report.max_rel_err <= a6.fit_report.max_rel_err
    assert a6.fit_report.max_rel_err == pytest.approx(FROZEN_MAX_REL[6], rel=1e-6)
    assert a8.fit_report.max_rel_err == pytest.approx(FROZEN_MAX_REL[8], rel=1e-6)
    report(
        5,
        True,
        f"inverse-sqrt max rel err: degree 8 {a8.fit_report.max_rel_err:.4f} <= degree 6 "
        f"{a6.fit_report.max_rel_err:.4f}, regression baselines hold",
    )


def test_criterion_6_encrypted_cosine_fidelity():
    """100 unit-norm 64-dim pairs: |encrypted - plain| <= tau, tau <= 0.05."""
    ctx = EncryptionContext(128, 16, key_id="acc6")
    plan, approx = unit_cosine_setup(64, degree=8)
    tau = 2 * approx.fit_report.max_rel_err + 1e-6
    assert tau <= 0.05
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        a = rng.normal(size=64)
        a /= np.linalg.norm(a)
        b = rng.normal(size=64)
        b /= np.linalg.norm(b)
        score = cosine_encrypted_score(encrypt(a, ctx), encrypt(b, ctx), 64, plan, approx, ctx)
        worst = max(worst, abs(score - cosine_plain(a, b)))
    assert worst <= tau
    report(6, True, f"encrypted cosine fidelity: worst |err| {worst:.2e} <= tau {tau:.2e} <= 0.05")


def test_criterion_7_identification_parity():
    """50-identity synthetic set: encrypted rank-1 within 1 point of plaintext."""
    t0 = time.time()
    spec = SyntheticSpec(
        num_ids=50, samples_per_id=3, dim=512, class_separation=50.0, attribute_correlation=0.6, seed=77
    )
    ds = gen_synthetic_dataset(spec)
    plain = rank1_accuracy(ds, PipelineConfig(encrypted=False, seed=9))
    enc = rank1_accuracy(ds, PipelineConfig(encrypted=True, seed=9))
    gap = abs(plain - enc)
    assert gap <= 0.01
    report(
        7,
        True,
        f"identification parity: plaintext {plain:.4f} vs encrypted {enc:.4f} "
        f"(gap {gap * 100:.2f} points <= 1), {time.time()-t0:.0f}s",
    )


def test_criterion_8_chance_level_leakage():
    """Masked ciphertext classifiers sit at chance; raw embeddings leak."""
    t0 = time.time()
    fhe_variants = ("mrl+fhe", "mrl+polyprotect+fhe")
    worst_fhe_gap = -1.0
    worst_none_margin = 1.0
    for seed in range(300, 305):
        spec = SyntheticSpec(
            num_ids=50, samples_per_id=16, dim=512, class_separation=30.0, attribute_correlation=0.6, seed=seed
        )
        ds = gen_synthetic_dataset(spec)
        ctx = EncryptionContext(128, 16, key_id=f"acc8-{seed}", nonce_seed=seed)
        reports = run_leakage_suite(ds, ("none",) + fhe_variants, ctx, seed=seed - 300)
        for r in reports:
            if r.variant == "none":
                worst_none_margin = min(worst_none_margin, r.a_p - r.chance)
                assert r.a_p >= r.chance + 0.20
            else:
                worst_fhe_gap = max(worst_fhe_gap, r.a_p - r.chance)
                assert r.a_p <= r.chance + 0.05
    report(
        8,
        True,
        f"chance-level leakage over 5 seeds: worst FHE gap {worst_fhe_gap * 100:+.1f} points (tol +5), "
        f"unprotected margin >= {worst_none_margin * 100:.0f} points (need >= 20), {time.time()-t0:.0f}s",
    )


# frozen via oracle runs: mean |corr| over 100 trials ranged 0.26..0.32 across
# eight independent replications (m=5, overlap=4, c_range=50, dim-64 inputs)
UNLINKABILITY_THRESHOLD = 0.40


def test_criterion_9_unlinkability_precursor():
    """Same embedding under independent params yields uncorrelated templates."""
    rng = np.random.default_rng(0)
    cors = []
    for trial in range(100):
        v = rng.normal(size=64)
        v /= np.linalg.norm(v)
        t1 = protect_plain(v, gen_params(5, 4, 50, seed=[1, trial]))
        t2 = protect_plain(v, gen_params(5, 4, 50, seed=[2, trial]))
        cors.append(abs(template_correlation(t1, t2)))
    mean_corr = float(np.mean(cors))
    assert mean_corr < UNLINKABILITY_THRESHOLD
    report(
        9,
        True,
        f"unlinkability precursor: mean |corr| {mean_corr:.4f} < frozen threshold {UNLINKABILITY_THRESHOLD}",
    )
