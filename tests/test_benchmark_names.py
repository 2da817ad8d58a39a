"""The library names perfbench looks up still exist.

perfbench/run.py reads its per-layer figures by "layer.function" name from
the traced public functions, so removing or renaming one of them breaks
`run.py --trace 1` with a KeyError.  These checks run perfbench's own lookup
code against the current library, without tracing anything.
"""

import os
import sys
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
for _path in (ROOT / "src", ROOT / "perfbench"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import spans  # noqa: E402

with mock.patch.dict(os.environ):  # run.py pins BLAS threads for its own process
    import run  # noqa: E402


def test_layer_metrics_finds_every_name_it_reads():
    zero = {name: (0, 0, 0, 0) for name in spans.public_functions()}
    metrics = run.layer_metrics(zero, zero, 1, {"adds": 0, "depth": 0})
    assert metrics and all(value == 0 for value, _ in metrics.values())


def test_counted_ops_are_public_functions():
    names = spans.public_functions()
    assert set(spans.HE_OPS.values()) <= set(names)
    assert "similarity.cosine_encrypted" in names
