"""Command-line front end: every stage as a reproducible, config-driven run.

Each subcommand is a thin shim over the library (logic is tested at the
library level; these paths only parse flags, route files, and set exit
codes).  Every run writes a manifest JSON (resolved configuration, its hash,
seed, versions) into the output directory, so a run is reproducible from its
artifacts alone.

Exit codes: 0 success, 1 data/library error (the error class name prefixes
the message), 2 usage error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .backend import EncryptionContext
from .errors import PolyFheError
from .invsqrt import fit_inv_sqrt, rel_error_curve, save_approx
from .leakage import (
    VARIANTS,
    ablation_sweep,
    run_leakage_suite,
    write_ablation_csv,
    write_leakage_csv,
)
from .pipeline import (
    Pipeline,
    PipelineConfig,
    SyntheticSpec,
    build_gallery,
    gen_synthetic_dataset,
    identify,
    load_dataset,
    load_gallery,
    save_dataset,
    save_gallery,
)
from .polyprotect import gen_params, save_params
from .summation import bench_summation, write_bench_csv


def _write_manifest(out_dir: Path, command: str, config: dict):
    # func is the subcommand's function object; its repr holds a memory address.
    config = {key: value for key, value in config.items() if key != "func"}
    out_dir.mkdir(parents=True, exist_ok=True)
    canon = json.dumps(config, sort_keys=True, default=str)
    manifest = {
        "command": command,
        "config": config,
        "config_hash": hashlib.sha256(canon.encode()).hexdigest()[:16],
        "seed": config.get("seed"),
        "versions": {
            "polyfhe": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    with open(out_dir / "run_manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, default=str)


def _config_file_defaults(path, parsed: argparse.Namespace) -> dict:
    """Read the INI config at path into defaults for the parsed subcommand.

    Sections only group keys for the reader; keys are flat flag names, and
    keys the subcommand does not know are ignored.  Values stay strings, so
    the subparser type-converts them like flags; a store-true flag takes
    1/true/yes.  Explicit flags still override them.
    """
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise OSError(f"config file not found: {path}")
    out = {}
    for section in cp.sections():
        for key, val in cp.items(section):
            dest = key.replace("-", "_")
            if dest in ("command", "func") or not hasattr(parsed, dest):
                continue
            out[dest] = val.lower() in ("1", "true", "yes") if isinstance(getattr(parsed, dest), bool) else val
    return out


def _sizes(spec: str) -> list:
    """Parse --sizes: either 'lo..hi' (powers of two) or a comma list."""
    if ".." in spec:
        lo, hi = (int(x) for x in spec.split("..", 1))
        out = []
        n = max(lo, 1)
        while n <= hi:
            out.append(n)
            n *= 2
        return out
    return [int(x) for x in spec.split(",")]


def _positive_int(text: str) -> int:
    """argparse type for counts that must be >= 1 (a usage error otherwise)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _dataset_from_args(args) -> list:
    if args.dataset:
        return load_dataset(args.dataset)
    spec = SyntheticSpec(
        num_ids=args.num_ids,
        samples_per_id=args.samples_per_id,
        dim=args.dim,
        class_separation=args.class_separation,
        attribute_correlation=args.attribute_correlation,
        seed=args.seed,
    )
    return gen_synthetic_dataset(spec)


def _add_dataset_flags(p: argparse.ArgumentParser):
    p.add_argument("--dataset", help="dataset CSV path (omit to synthesize)")
    p.add_argument("--num-ids", type=int, default=50)
    p.add_argument("--samples-per-id", type=int, default=4)
    p.add_argument("--dim", type=int, default=512)
    p.add_argument("--class-separation", type=float, default=30.0)
    p.add_argument("--attribute-correlation", type=float, default=0.6)


def _add_pipeline_flags(p: argparse.ArgumentParser, depth_budget: int = 32):
    p.add_argument("--compress-dim", type=int, default=64)
    p.add_argument("--m", type=int, default=5)
    p.add_argument("--overlap", type=int, default=4)
    p.add_argument("--c-range", type=int, default=50)
    p.add_argument("--slot-capacity", type=int, default=128)
    p.add_argument("--depth-budget", type=int, default=depth_budget)


def cmd_gen_params(args) -> int:
    params = gen_params(args.m, args.overlap, args.c_range, seed=args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"params_{params.params_id}.json"
    save_params(params, path)
    _write_manifest(out, "gen-params", vars(args) | {"params_id": params.params_id})
    print(f"params_id {params.params_id} -> {path}")
    return 0


def cmd_bench_sum(args) -> int:
    sizes = _sizes(args.sizes)
    capacity = args.capacity or max(sizes)
    ctx = EncryptionContext(capacity, args.depth_budget, key_id=f"bench-{args.seed}")
    rows = bench_summation(sizes, ctx, seed=args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "bench_summation.csv"
    write_bench_csv(rows, path)
    _write_manifest(out, "bench-sum", vars(args))
    for r in rows:
        print(f"n={r.n:5d} {r.method:5s} rotations={r.rotations:5d} mults={r.mults:5d} wall={r.wall_ns / 1e6:.3f} ms")
    print(f"wrote {path}")
    return 0


def cmd_fit_invsqrt(args) -> int:
    lo, hi = (float(x) for x in args.domain.split(","))
    approx = fit_inv_sqrt(args.degree, (lo, hi), n_nodes=args.nodes, report_samples=args.samples, report_seed=args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_approx(approx, out / "invsqrt_fit.json")
    xs, px, rel = rel_error_curve(approx, n_points=args.points)
    with open(out / "invsqrt_curve.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["x", "p_x", "rel_err"])
        for row in zip(xs, px, rel):
            w.writerow([repr(float(v)) for v in row])
    _write_manifest(out, "fit-invsqrt", vars(args))
    print(f"degree {args.degree} on [{lo}, {hi}]: max_rel_err={approx.fit_report.max_rel_err:.6g} "
          f"mean_rel_err={approx.fit_report.mean_rel_err:.6g}")
    return 0


def _pipeline_from_args(args) -> Pipeline:
    cfg = PipelineConfig(
        compress_dim=args.compress_dim,
        m=args.m,
        overlap=args.overlap,
        c_range=args.c_range,
        slot_capacity=args.slot_capacity,
        depth_budget=args.depth_budget,
        seed=args.seed,
    )
    return Pipeline(cfg)


def cmd_enroll(args) -> int:
    dataset = _dataset_from_args(args)
    pipeline = _pipeline_from_args(args)
    gallery, probes = build_gallery(dataset, pipeline)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    gallery_dir = Path(args.gallery_dir) if args.gallery_dir else out / "gallery"
    save_gallery(gallery, pipeline.ctx, pipeline.params_store, gallery_dir)
    if args.save_probes and probes:
        save_dataset(probes, out / "probes.csv")
    _write_manifest(out, "enroll", vars(args) | {"enrolled": len(gallery), "probes": len(probes)})
    print(f"enrolled {len(gallery)} subjects into {gallery_dir} ({len(probes)} probe samples held out)")
    return 0


def cmd_identify(args) -> int:
    gallery, params_store, ctx = load_gallery(args.gallery_dir)
    probes = load_dataset(args.probes)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    hits = 0
    for i, probe in enumerate(probes):
        ranked = identify(probe, gallery, params_store, ctx)[: args.top]
        for rank, (sid, score) in enumerate(ranked, start=1):
            rows.append([i, probe.subject_id, rank, sid, repr(score)])
        top_sid = ranked[0][0]
        hits += top_sid == probe.subject_id
        print(f"probe {i} ({probe.subject_id}): rank-1 {top_sid} score={ranked[0][1]:.4f}")
    with open(out / "identify_ranked.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["probe_index", "probe_id", "rank", "subject_id", "score"])
        w.writerows(rows)
    _write_manifest(out, "identify", vars(args) | {"probes": len(probes)})
    print(f"rank-1 accuracy {hits}/{len(probes)} = {hits / len(probes):.4f}")
    return 0


def cmd_eval_leakage(args) -> int:
    dataset = _dataset_from_args(args)
    variants = tuple(args.variants.split(",")) if args.variants else VARIANTS
    ctx = EncryptionContext(args.slot_capacity, args.depth_budget, key_id=f"leakage-{args.seed}", nonce_seed=args.seed)
    reports = run_leakage_suite(
        dataset,
        variants,
        ctx,
        compress_dim=args.compress_dim,
        m=args.m,
        overlap=args.overlap,
        c_range=args.c_range,
        seed=args.seed,
        epochs=args.epochs,
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "leakage_report.csv"
    write_leakage_csv(reports, path)
    _write_manifest(out, "eval-leakage", vars(args))
    for r in reports:
        print(f"{r.attribute:10s} {r.variant:22s} a_o={r.a_o:.3f} a_p={r.a_p:.3f} "
              f"PGx100={r.pg * 100:6.2f} SR={r.sr:7.4f} chance={r.chance:.3f}")
    print(f"wrote {path}")
    return 0


def cmd_ablation(args) -> int:
    dataset = _dataset_from_args(args)
    values = [int(x) for x in args.values.split(",")]
    rows = ablation_sweep(
        args.param,
        values,
        dataset,
        base_m=args.m,
        base_overlap=args.base_overlap,
        base_c_range=args.c_range,
        seed=args.seed,
        epochs=args.epochs,
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"ablation_{args.param}.csv"
    write_ablation_csv(rows, path)
    _write_manifest(out, "ablation", vars(args))
    for r in rows:
        if "error" in r:
            print(f"{args.param}={r['value']}: {r['error']}")
        else:
            print(f"{args.param}={r['value']} {r['attribute']:10s} accuracy={r['accuracy']:.3f}")
    print(f"wrote {path}")
    return 0


def build_parser() -> tuple:
    """The polyfhe parser and a name -> subparser map of its subcommands."""
    parser = argparse.ArgumentParser(prog="polyfhe", description=__doc__)
    parser.add_argument("--version", action="version", version=f"polyfhe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    def add(name, summary):
        p = subparsers[name] = sub.add_parser(name, help=summary)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out-dir", default="runs")
        p.add_argument("--config", help="INI config file; flags override its values")
        return p

    p = add("gen-params", "generate user-specific protection parameters")
    p.add_argument("--m", type=int, default=5)
    p.add_argument("--overlap", type=int, default=4)
    p.add_argument("--c-range", type=int, default=50)
    p.set_defaults(func=cmd_gen_params)

    p = add("bench-sum", "benchmark the three summation kernels")
    p.add_argument("--sizes", default="2..2048", help="'lo..hi' doubling range or comma list")
    p.add_argument("--capacity", type=int, default=None)
    p.add_argument("--depth-budget", type=int, default=16)
    p.set_defaults(func=cmd_bench_sum)

    p = add("fit-invsqrt", "fit an inverse-sqrt polynomial and dump its error curve")
    p.add_argument("--degree", type=int, default=8)
    p.add_argument("--domain", default="0.001,1.0", help="lo,hi")
    p.add_argument("--nodes", type=int, default=256)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--points", type=int, default=200)
    p.set_defaults(func=cmd_fit_invsqrt)

    p = add("enroll", "enroll a dataset into an encrypted gallery")
    _add_dataset_flags(p)
    _add_pipeline_flags(p)
    p.add_argument("--gallery-dir", default=None)
    p.add_argument("--save-probes", action="store_true", help="write held-out probes CSV")
    p.set_defaults(func=cmd_enroll)

    p = add("identify", "run 1:N encrypted search for probe embeddings")
    p.add_argument("--gallery-dir", required=True)
    p.add_argument("--probes", required=True, help="probe dataset CSV")
    p.add_argument("--top", type=_positive_int, default=5)
    p.set_defaults(func=cmd_identify)

    p = add("eval-leakage", "attribute leakage report across protection variants")
    _add_dataset_flags(p)
    p.add_argument("--variants", default=None, help=f"comma list from {','.join(VARIANTS)}")
    _add_pipeline_flags(p, depth_budget=16)
    p.add_argument("--epochs", type=int, default=300)
    p.set_defaults(func=cmd_eval_leakage)

    p = add("ablation", "sweep one protection parameter against leakage")
    _add_dataset_flags(p)
    p.add_argument("--param", required=True, choices=("overlap", "m", "c_range"))
    p.add_argument("--values", required=True, help="comma list of integer values")
    p.add_argument("--m", type=int, default=5)
    p.add_argument("--base-overlap", type=int, default=2)
    p.add_argument("--c-range", type=int, default=50)
    p.add_argument("--epochs", type=int, default=300)
    p.set_defaults(func=cmd_ablation)

    return parser, subparsers


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, subparsers = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            subparsers[args.command].set_defaults(**_config_file_defaults(args.config, args))
            args = parser.parse_args(argv)
        return args.func(args)
    except (PolyFheError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
