"""Run one workload of the polyfhe benchmark and print its metrics.

    python3 perfbench/run.py --workload identify --seed 0 --seconds 30 --trace 0

Run from the root of a source tree; polyfhe is imported from its src/
directory.  --trace 0 measures the end-to-end metrics, its timings brought
to reference speed by speed.py; --trace 1 makes the traced run that gives the
per-layer metrics and the tracing overhead.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.  --workload all runs every workload in turn,
each in its own process, and ends with one JSON object keyed by workload.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

# One caller on one core: BLAS starts no threads of its own.  This has to
# happen before numpy is first imported, which speed does.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import speed  # noqa: E402
from spans import LAYERS, Tracer, public_functions  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("identify", "enroll", "leakage")

# Payload bytes, windows, records and samples behind the per-unit layer metrics.
AMOUNTS = {
    "backend.serialize_ciphertext": lambda args, out: args[0].slots.nbytes,
    "backend.deserialize_ciphertext": lambda args, out: out.slots.nbytes,
    "polyprotect.protect_encrypted": lambda args, out: len(args[0]),
    "pipeline.save_gallery": lambda args, out: len(args[0]),
    "pipeline.load_gallery": lambda args, out: len(out[0]),
    "leakage.ciphertext_features": lambda args, out: len(args[0]),
}


@dataclass
class Loop:
    """The rounds of one run: time per user-facing call, and checks."""

    op_ns: list = field(default_factory=list)  # by speed.clock()
    spans: list = field(default_factory=list)  # (wall start, wall end of its round, op_ns)
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    fault: int = 0  # failures of the known-fault operation


class SetUps:
    """Times the workload's set-up, `workload.setups` times in all.

    The machine's speed drifts over tens of seconds, so the set-ups after the
    first are spread over the run, between rounds, in proportion to the time
    the rounds have taken; the count is fixed so that every run leaves the
    heap in the same state.
    """

    def __init__(self, workload, seed, workdir):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.spans = []  # (wall start, wall end, duration by speed.clock())

    def once(self):
        w0, t0 = time.perf_counter_ns(), speed.clock()
        state = self.workload.setup(self.seed, self.workdir)
        self.spans.append((w0, time.perf_counter_ns(), speed.clock() - t0))
        return state

    def catch_up(self, share: float):
        while len(self.spans) < math.ceil(self.workload.setups * min(share, 1.0)):
            self.workload.teardown(self.once())


def run_rounds(workload, state, budget_ns: float, tracer=None, setups=None) -> Loop:
    """Whole rounds until the rounds and their checks have run for budget_ns
    (at least one round); the set-ups between rounds are not counted."""
    loop = Loop()
    spent = 0
    while loop.rounds == 0 or spent < budget_ns:
        with tracer if tracer is not None else contextlib.nullcontext():
            t0 = time.perf_counter_ns()
            out, op_ns = workload.round(state)
            t1 = time.perf_counter_ns()
        attempted, failed, fault = workload.check(state, out)
        spent += time.perf_counter_ns() - t0
        loop.rounds += 1
        loop.op_ns += op_ns
        loop.spans += [(t0, t1, ns) for ns in op_ns]
        loop.attempted += attempted
        loop.failed += failed
        loop.fault += fault
        if setups is not None:
            setups.catch_up(spent / budget_ns)
    return loop


def end_to_end(workload, args, workdir) -> tuple:
    """The untraced run; its timings are brought to reference speed (speed.py)."""
    with speed.Calibration() as cal:
        setups = SetUps(workload, args.seed, workdir)
        state = setups.once()
        workload.prepare(state)
        loop = run_rounds(workload, state, args.seconds * 1e9, setups=setups)
        setups.catch_up(1.0)
        counts = workload.count(state)
        workload.teardown(state)
    kernel_ms = statistics.median(cal.kernel_ns()) / 1e6
    print(f"as measured: latency {statistics.median(loop.op_ns) / 1e6:.6g} ms, "
          f"set-up {statistics.median(ns for _, _, ns in setups.spans) / 1e9:.6g} s; "
          f"reference kernel {kernel_ms:.4g} ms (at reference speed {speed.REF_KERNEL_NS / 1e6:.4g} ms), "
          f"{len(cal.kernel_ns())} samples")
    values = {
        "setup_s": statistics.median(cal.at_reference(setups.spans)) / 1e9,
        "latency_ms": statistics.median(cal.at_reference(loop.spans)) / 1e6,
        "rotations_per_item": counts["rotations"],
        "ct_mults_per_item": counts["ct_mults"],
        "pt_mults_per_item": counts["pt_mults"],
        "encryptions_per_item": counts["encryptions"],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {name: (value, E2E_UNITS[name]) for name, value in values.items()}
    return loop.attempted, loop.failed, loop.failed == loop.fault, metrics


def traced(workload, args, workdir, out_dir) -> tuple:
    tracer = Tracer(public_functions(), AMOUNTS)
    with tracer, tracer.span("setup"):
        state = workload.setup(args.seed, workdir, tracer.span)
    setup = tracer.take()
    workload.prepare(state, tracer)
    prepared = tracer.take()
    plain = run_rounds(workload, state, args.seconds * 1e9 / 2)
    loop = run_rounds(workload, state, args.seconds * 1e9 / 2, tracer)
    run = tracer.take()
    counts = workload.count(state)
    metrics = layer_metrics(pooled(setup, prepared), run, len(loop.op_ns), counts)
    metrics.update({name: (value, LAYER_UNITS[name]) for name, value in workload.layer_metrics(state).items()})
    overhead = statistics.median(loop.op_ns) / statistics.median(plain.op_ns) - 1.0
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    workload.teardown(state)
    trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({"setup": setup, "prepare": prepared, "run": run}, indent=1, sort_keys=True))
    correct = plain.failed == plain.fault and loop.failed == loop.fault
    return plain.attempted + loop.attempted, plain.failed + loop.failed, correct, metrics


E2E_UNITS = {
    "setup_s": "s",
    "latency_ms": "ms",
    "rotations_per_item": "count",
    "ct_mults_per_item": "count",
    "pt_mults_per_item": "count",
    "encryptions_per_item": "count",
    "peak_rss_mib": "MiB",
}

LAYER_UNITS = {
    "backend.encrypt_us": "us",
    "backend.add_us": "us",
    "backend.mult_us": "us",
    "backend.mult_plain_us": "us",
    "backend.rotate_left_us": "us",
    "backend.serialize_us_per_kib": "us/KiB",
    "backend.deserialize_us_per_kib": "us/KiB",
    "backend.adds_per_item": "count",
    "summation.fold_add_all_us": "us",
    "summation.broadcast_slot0_us": "us",
    "polyprotect.protect_encrypted_self_ms": "ms",
    "polyprotect.protect_us_per_window": "us",
    "polyprotect.pack_template_ms": "ms",
    "polyprotect.protect_plain_ms": "ms",
    "invsqrt.eval_poly_encrypted_us": "us",
    "invsqrt.den_edge_margin_log2": "log2",
    "invsqrt.escapes_left_out": "count",
    "similarity.cosine_encrypted_self_ms": "ms",
    "similarity.depth_per_comparison": "count",
    "pipeline.identify_self_ms": "ms",
    "pipeline.enroll_self_ms": "ms",
    "pipeline.save_gallery_self_ms_per_record": "ms",
    "pipeline.load_gallery_self_ms_per_record": "ms",
    "pipeline.setup_ms": "ms",
    "pipeline.gallery_bytes_per_record": "bytes",
    "leakage.ciphertext_features_ms_per_sample": "ms",
    "leakage.featurize_s": "s",
    "leakage.train_ms_per_cell": "ms",
    "leakage.train_s": "s",
    **{f"{layer}.self_ms_per_op": "ms" for layer in LAYERS},
    "trace.overhead_pct": "%",
}


def pooled(a: dict, b: dict) -> dict:
    """Per-name span totals of two traced stretches added together."""
    return {name: tuple(x + y for x, y in zip(a.get(name, (0,) * 4), b.get(name, (0,) * 4))) for name in a.keys() | b.keys()}


def layer_metrics(setup: dict, run: dict, ops: int, counts: dict) -> dict:
    """Per-layer figures from the traced set-up and rounds.

    Per-call and per-unit figures pool the set-up (with any traced
    preparation) and the rounds; self time per op covers the rounds only.  A
    function the workload never calls reads 0.
    """
    both = pooled(setup, run)

    def per_call(name, scale, col=1):
        calls = both[name][0]
        return both[name][col] / calls / scale if calls else 0.0

    def per_amount(name, scale, col=1):
        amount = both[name][3]
        return both[name][col] / amount / scale if amount else 0.0

    suites = run["leakage.run_leakage_suite"][0]
    train_ns = run["leakage.train_attr_classifier"][1] + run["leakage.eval_accuracy"][1]
    cells = run["leakage.train_attr_classifier"][0]
    values = {
        "backend.encrypt_us": per_call("backend.encrypt", 1e3),
        "backend.add_us": per_call("backend.add", 1e3),
        "backend.mult_us": per_call("backend.mult", 1e3),
        "backend.mult_plain_us": per_call("backend.mult_plain", 1e3),
        "backend.rotate_left_us": per_call("backend.rotate_left", 1e3),
        "backend.serialize_us_per_kib": per_amount("backend.serialize_ciphertext", 1e3 / 1024),
        "backend.deserialize_us_per_kib": per_amount("backend.deserialize_ciphertext", 1e3 / 1024),
        "backend.adds_per_item": counts["adds"],
        "summation.fold_add_all_us": per_call("summation.fold_add_all", 1e3),
        "summation.broadcast_slot0_us": per_call("summation.broadcast_slot0", 1e3),
        "polyprotect.protect_encrypted_self_ms": per_call("polyprotect.protect_encrypted", 1e6, col=2),
        "polyprotect.protect_us_per_window": per_amount("polyprotect.protect_encrypted", 1e3),
        "polyprotect.pack_template_ms": per_call("polyprotect.pack_template", 1e6),
        "polyprotect.protect_plain_ms": per_call("polyprotect.protect_plain", 1e6),
        "invsqrt.eval_poly_encrypted_us": per_call("invsqrt.eval_poly_encrypted", 1e3),
        "invsqrt.den_edge_margin_log2": 0.0,
        "invsqrt.escapes_left_out": 0,
        "similarity.cosine_encrypted_self_ms": per_call("similarity.cosine_encrypted", 1e6, col=2),
        "similarity.depth_per_comparison": counts["depth"],
        "pipeline.identify_self_ms": per_call("pipeline.identify", 1e6, col=2),
        "pipeline.enroll_self_ms": per_call("pipeline.enroll", 1e6, col=2),
        "pipeline.save_gallery_self_ms_per_record": per_amount("pipeline.save_gallery", 1e6, col=2),
        "pipeline.load_gallery_self_ms_per_record": per_amount("pipeline.load_gallery", 1e6, col=2),
        "pipeline.setup_ms": sum(setup.get(n, (0, 0))[1] for n in ("setup.dataset", "setup.pipeline")) / 1e6,
        "pipeline.gallery_bytes_per_record": 0.0,
        "leakage.ciphertext_features_ms_per_sample": per_amount("leakage.ciphertext_features", 1e6),
        "leakage.featurize_s": (run["leakage.run_leakage_suite"][1] - train_ns) / suites / 1e9 if suites else 0.0,
        "leakage.train_ms_per_cell": train_ns / cells / 1e6 if cells else 0.0,
        "leakage.train_s": train_ns / suites / 1e9 if suites else 0.0,
    }
    for layer in LAYERS:
        self_ns = sum(stat[2] for name, stat in run.items() if name.startswith(layer + "."))
        values[f"{layer}.self_ms_per_op"] = self_ns / ops / 1e6
    return {name: (value, LAYER_UNITS[name]) for name, value in values.items()}


def run_all(args) -> int:
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    if status == 0:
        print(json.dumps(results))
    return status


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "polyfhe" / "__init__.py").is_file():
        print(f"run.py: no polyfhe package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import polyfhe

    if not Path(polyfhe.__file__).resolve().is_relative_to(SRC):
        print(f"run.py: polyfhe was imported from {polyfhe.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        if args.trace:
            attempted, failed, correct, metrics = traced(workload, args, workdir, out_dir)
        else:
            attempted, failed, correct, metrics = end_to_end(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {args.workload}  seed {args.seed}  attempted {attempted}  failed {failed}  correct {correct}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:14.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
