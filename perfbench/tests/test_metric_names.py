import json
from pathlib import Path

import run

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_reported_metrics_are_the_declared_ones():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
