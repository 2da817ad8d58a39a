import math
from types import SimpleNamespace

import reference as ref
import workloads

EXPECTED = {"a": 0.9, "b": 0.5, "c": -0.2}
TAU = 0.01


def test_correct_scores_pass():
    ranked = [("a", 0.905), ("b", 0.495), ("c", -0.2)]
    assert ref.failed_comparisons(ranked, EXPECTED, TAU) == 0


def test_wrong_score_fails_one_comparison():
    ranked = [("a", 0.9), ("b", 0.45), ("c", -0.2)]
    assert ref.failed_comparisons(ranked, EXPECTED, TAU) == 1


def test_non_finite_scores_fail_their_comparisons():
    assert ref.failed_comparisons([("a", 0.9), ("b", math.nan), ("c", -0.2)], EXPECTED, TAU) == 1
    assert ref.failed_comparisons([("a", math.inf), ("b", 0.5), ("c", -0.2)], EXPECTED, TAU) == 1
    assert ref.failed_comparisons([("a", 2.8e4), ("b", 0.5), ("c", -0.2)], EXPECTED, TAU) == 1


def test_bad_ranking_fails_every_comparison():
    unsorted = [("b", 0.5), ("a", 0.9), ("c", -0.2)]
    missing = [("a", 0.9), ("b", 0.5)]
    duplicate = [("a", 0.9), ("a", 0.9), ("c", -0.2)]
    for ranked in (unsorted, missing, duplicate):
        assert ref.failed_comparisons(ranked, EXPECTED, TAU) == 3


def test_ties_break_by_subject_id():
    expected = {"x": 0.5, "y": 0.5}
    assert ref.failed_comparisons([("x", 0.5), ("y", 0.5)], expected, TAU) == 0
    assert ref.failed_comparisons([("y", 0.5), ("x", 0.5)], expected, TAU) == 2


def _cell(variant, a_o, a_p, chance=0.5, pg=None, sr=None):
    pg = a_o - a_p if pg is None else pg
    sr = (a_o - a_p) / a_o if sr is None else sr
    return SimpleNamespace(variant=variant, a_o=a_o, a_p=a_p, r_o=a_o, r_p=a_p, pg=pg, sr=sr, chance=chance)


def test_leakage_cell_checks():
    base = _cell("none", 0.9, 0.9)
    assert workloads.cell_ok(base, base, 240, fhe=False)
    assert workloads.cell_ok(_cell("mrl+fhe", 0.9, 0.52), base, 240, fhe=True)
    # wrong PG, wrong SR, a_o not the raw-embedding accuracy, out of range
    assert not workloads.cell_ok(_cell("mrl", 0.9, 0.6, pg=0.2), base, 240, fhe=False)
    assert not workloads.cell_ok(_cell("mrl", 0.9, 0.6, sr=0.2), base, 240, fhe=False)
    assert not workloads.cell_ok(_cell("mrl", 0.8, 0.6), base, 240, fhe=False)
    assert not workloads.cell_ok(_cell("mrl", 0.9, 1.2), base, 240, fhe=False)
    # raw embeddings within 0.20 of chance; ciphertext above the 3-sigma bound (0.597)
    weak = _cell("none", 0.65, 0.65)
    assert not workloads.cell_ok(weak, weak, 240, fhe=False)
    assert not workloads.cell_ok(_cell("mrl+polyprotect+fhe", 0.9, 0.6), base, 240, fhe=True)
