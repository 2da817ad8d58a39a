"""The library names and attributes perfbench uses still exist.

perfbench/run.py reads its per-layer figures by "layer.function" name from
the traced public functions, so removing or renaming one of them breaks
`run.py --trace 1` with a KeyError.  Its workloads also read Pipeline
attributes (plan, approx, cfg, params_store) and LeakageReport fields.  These
checks run perfbench's own lookup code and helpers against the current
library, without tracing anything, and drive each workload (identify,
enroll and leakage) through one untimed round, its checks and its HE count,
so a library change that breaks a workload's calls or its output checks
fails here and not only in a benchmark run.
"""

import os
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest

ROOT = Path(__file__).resolve().parents[1]
for _path in (ROOT / "src", ROOT / "perfbench"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import spans  # noqa: E402

with mock.patch.dict(os.environ):  # run.py pins BLAS threads for its own process
    import run  # noqa: E402

import workloads  # noqa: E402
from polyfhe import backend  # noqa: E402
from polyfhe.leakage import LeakageReport  # noqa: E402
from polyfhe.pipeline import Pipeline, PipelineConfig  # noqa: E402


def test_layer_metrics_finds_every_name_it_reads():
    zero = {name: (0, 0, 0, 0) for name in spans.public_functions()}
    metrics = run.layer_metrics(zero, zero, 1, {"adds": 0, "depth": 0})
    assert metrics and all(value == 0 for value, _ in metrics.values())


def test_counted_ops_are_public_functions():
    names = spans.public_functions()
    assert set(spans.HE_OPS.values()) <= set(names)
    assert "similarity.cosine_encrypted" in names


def test_fault_case_scores_within_tolerance():
    case = workloads.FaultCase.build()
    assert case.identify_failed() == 0
    assert case.self_match_failed() == 0


def test_tolerance_reads_the_pipeline():
    assert workloads.tolerance(Pipeline(PipelineConfig(seed=0))) > 0


def test_cell_ok_reads_a_leakage_report():
    base = LeakageReport("gender", "none", a_o=0.9, a_p=0.9, chance=0.5)
    fhe = LeakageReport("gender", "mrl+fhe", a_o=0.9, a_p=0.5, chance=0.5)
    assert workloads.cell_ok(base, base, 100, fhe=False)
    assert workloads.cell_ok(fhe, base, 100, fhe=True)


@pytest.mark.parametrize("name,counts", [
    ("identify", {"rotations": 3.0, "ct_mults": 0.6, "pt_mults": 5.0, "encryptions": 0.025}),
    ("enroll", {"rotations": 0.0, "ct_mults": 8.0, "pt_mults": 5.0, "encryptions": 5.0}),
    ("leakage", {"rotations": 0.0, "ct_mults": 8.0, "pt_mults": 5.0, "encryptions": 6.0}),
])
def test_workload_round_passes_its_checks_at_its_he_counts(tmp_path, monkeypatch, name, counts):
    # setup -> prepare -> round -> check -> count, as run.py drives a workload
    workload = workloads.WORKLOADS[name]
    st = workload.setup(0, tmp_path)
    # perfbench counts HE ops per call; the ledger counts them per
    # ciphertext.  Each counting pass must read the same from both, so a
    # batch on a counted path fails here before it can under-read a
    # benchmark.  The ledgers read are those of the context identify and
    # enroll hold and of every context made through
    # polyfhe.backend.EncryptionContext during the pass, as the leakage
    # workload makes one per suite.
    made = []
    context = backend.EncryptionContext

    def recording_context(*args, **kwargs):
        made.append(context(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(backend, "EncryptionContext", recording_context)
    held = [st.pipe.ctx] if name in ("identify", "enroll") else []
    passes = []  # (ledger difference, items, counts per item) per count_he call
    count_he = workloads.count_he

    def counted(run, items):
        fresh = len(made)
        before = [ctx.ops.copy() for ctx in held]
        got = count_he(run, items)
        ledger = sum((ctx.ops - old for ctx, old in zip(held, before)), Counter())
        ledger = sum((ctx.ops for ctx in made[fresh:]), ledger)
        passes.append((ledger, items, got))
        return got

    monkeypatch.setattr(workloads, "count_he", counted)
    try:
        workload.prepare(st)
        out, times = workload.round(st)
        attempted, failed, fault = workload.check(st, out)
        got = workload.count(st)
    finally:
        workload.teardown(st)
    assert times and attempted > 0
    assert (failed, fault) == (0, 0)
    assert {kind: got[kind] for kind in counts} == counts
    assert passes
    for ledger, items, per_call in passes:
        assert {kind: ledger[kind] / items for kind in counts} == {kind: per_call[kind] for kind in counts}
