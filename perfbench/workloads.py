"""The benchmark's three workloads: encrypted identify, the enrollment write
path, and the leakage suite.

Each workload is a closed loop with one caller.  setup() is the program's own
set-up work and is what setup_s times; prepare() builds the reference figures
and the input pool without timing (a traced run passes its tracer, which
identify uses for the gallery's save and reload); round() runs one round of
the same operations every time and returns its outputs with the time of each
user-facing call in it, by speed.clock(); check() verifies a round's outputs
against the numpy reference (or a property of the method) and returns
(attempted, failed, of which the known fault); count() is the untimed HE
counting pass.  polyfhe functions are called through their modules so that
the tracer catches every call.

Creating a file costs from 50 to 450 us of kernel time on a 2-vCPU virtual
machine with an ext4 disk, varying with outside load from minute to minute,
and a gallery record is 60 files.  Gallery saves and loads therefore run in every
round of enroll, and in identify's preparation, but stay out of the bounded
timings (latency_ms, setup_s); the traced run reports their cost per record.

Known fault kept in two workloads: on the fixed inputs below (independent of
the workload seed), the scaled cosine denominator lands 10.4x above the centre
of the inverse-sqrt fit domain, outside [x0/8, 8 x0], and identify returns a
score near 2.8e4.  Every identify round ends with that comparison and every
enroll round with that subject's self-match, so each round has exactly one
failed operation until the fault is mended.  Seeded inputs whose comparisons
would leave the fit domain in the same way are left out of the pool, since
whether they occur depends on the seed; their number is reported as
invsqrt.escapes_left_out.
"""

from __future__ import annotations

import contextlib
import filecmp
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref
import speed
from polyfhe import backend as be
from polyfhe import leakage as lk
from polyfhe import pipeline as pl
from polyfhe import polyprotect as pp
from spans import HE_OPS, Tracer, public_functions

FAULT_SPEC = dict(num_ids=200, samples_per_id=2, attribute_correlation=0.6, seed=5)
FAULT_PIPELINE_SEED = 1
FAULT_RECORD = 77
FAULT_PROBE = 1


def no_span(name):
    return contextlib.nullcontext()


def tolerance(pipe) -> float:
    """Score tolerance of acceptance criterion 6: 2 x the fit's max relative error + 1e-6."""
    return 2 * pipe.approx.fit_report.max_rel_err + 1e-6


def params_tuple(params, compress_dim):
    return params.coeffs, params.exps, params.m, params.overlap, compress_dim


def scaled_denominator(params, compress_dim, g, q, pipe):
    """The scaled denominator the encrypted cosine feeds to the inverse sqrt:
    both templates carry the public per-params scale estimate."""
    s2 = pp.expected_template_norm(params, compress_dim) ** -2
    return (s2 * (g * g).sum(axis=-1)) * (s2 * (q * q).sum(axis=-1)) / pipe.plan.d_bound


def count_he(run, items: int) -> dict:
    """Run `run` under a counting tracer; HE ops per item and cosine depth."""
    fns = public_functions()
    names = list(HE_OPS.values()) + ["similarity.cosine_encrypted"]
    tracer = Tracer({n: fns[n] for n in names}, {"similarity.cosine_encrypted": lambda a, out: out.depth_used})
    with tracer:
        run()
    stats = tracer.take()
    out = {kind: stats[name][0] / items for kind, name in HE_OPS.items()}
    calls, _, _, depth = stats["similarity.cosine_encrypted"]
    out["depth"] = depth / calls if calls else 0.0
    return out


def dir_bytes(path) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


@dataclass
class FaultCase:
    """The fixed comparison that escapes the inverse-sqrt fit domain."""

    pipe: object
    record: object
    probe: object
    enrolled: object
    params: object
    tau: float
    expected: float

    @classmethod
    def build(cls):
        enrolled, probes = pl.enroll_split(pl.gen_synthetic_dataset(pl.SyntheticSpec(**FAULT_SPEC)))
        pipe = pl.Pipeline(pl.PipelineConfig(seed=FAULT_PIPELINE_SEED))
        e, q = enrolled[FAULT_RECORD], probes[FAULT_PROBE]
        params = pipe.gen_user_params(FAULT_RECORD)
        pt = params_tuple(params, pipe.cfg.compress_dim)
        expected = float(ref.cosine(ref.protect(q.values, *pt), ref.protect(e.values, *pt)))
        return cls(pipe, pipe.enroll(e, params), q, e, params, tolerance(pipe), expected)

    def identify_failed(self) -> int:
        ranked = self.pipe.identify(self.probe, [self.record])
        return ref.failed_comparisons(ranked, {self.record.subject_id: self.expected}, self.tau)

    def self_match_failed(self) -> int:
        record = self.pipe.enroll(self.enrolled, self.params)
        ranked = self.pipe.identify(self.enrolled, [record])
        return ref.failed_comparisons(ranked, {record.subject_id: 1.0}, self.tau)


@dataclass
class IdentifyState:
    workdir: Path
    pipe: object = None
    dataset: list = None
    gallery: list = None
    gallery_dir: str = None
    probes: list = None
    expected: np.ndarray = None  # (probes, records) reference scores
    margins: np.ndarray = None  # (probes, records) log2 edge margins
    pool: list = None
    next: int = 0
    min_margin: float = math.inf
    escapes: int = 0
    fault: FaultCase = None
    tau: float = 0.0


class Identify:
    """Encrypted 1:N search of held-out probes against a reloaded gallery."""

    name = "identify"
    setups = 3
    num_ids = 200

    def setup(self, seed, workdir, span=no_span) -> IdentifyState:
        st = IdentifyState(workdir)
        with span("setup.dataset"):
            st.dataset = pl.gen_synthetic_dataset(
                pl.SyntheticSpec(num_ids=self.num_ids, samples_per_id=2, attribute_correlation=0.6, seed=seed)
            )
        with span("setup.pipeline"):
            st.pipe = pl.Pipeline(pl.PipelineConfig(seed=seed))
        with span("setup.gallery"):
            st.gallery, _ = pl.build_gallery(st.dataset, st.pipe)
        return st

    def teardown(self, st):
        if st.gallery_dir is not None:
            shutil.rmtree(st.gallery_dir, ignore_errors=True)

    def prepare(self, st, trace=None):
        # The rounds search the gallery as saved and loaded back; a traced run
        # passes its tracer, so the save and the load give the per-layer
        # gallery figures.
        st.gallery_dir = tempfile.mkdtemp(prefix="gallery-", dir=st.workdir)
        with trace or contextlib.nullcontext():
            pl.save_gallery(st.gallery, st.pipe.ctx, st.pipe.params_store, st.gallery_dir)
            st.gallery, st.pipe.params_store, _ = pl.load_gallery(st.gallery_dir, st.pipe.ctx)
        enrolled, st.probes = pl.enroll_split(st.dataset)
        by_id = {e.subject_id: e.values for e in enrolled}
        params = ref.read_gallery_params(st.gallery_dir)
        probe_vals = np.stack([q.values for q in st.probes])
        st.expected = np.empty((len(st.probes), len(st.gallery)))
        st.margins = np.empty_like(st.expected)
        for j, rec in enumerate(st.gallery):
            pt = params[rec.subject_id]
            g = ref.protect(by_id[rec.subject_id], *pt)
            q = ref.protect(probe_vals, *pt)
            st.expected[:, j] = ref.cosine(q, g)
            den = scaled_denominator(st.pipe.params_store[rec.params_id], rec.compress_dim, g, q, st.pipe)
            st.margins[:, j] = ref.edge_margin_log2(den, st.pipe.approx.domain)
        inside = st.margins.min(axis=1) >= 0.0
        st.pool = [i for i in range(len(st.probes)) if inside[i]]
        st.escapes = len(st.probes) - len(st.pool)
        st.tau = tolerance(st.pipe)
        st.fault = FaultCase.build()

    def round(self, st):
        i = st.pool[st.next % len(st.pool)]
        st.next += 1
        t0 = speed.clock()
        ranked = st.pipe.identify(st.probes[i], st.gallery)
        return (i, ranked), [speed.clock() - t0]

    def check(self, st, out) -> tuple:
        i, ranked = out
        expected = {rec.subject_id: st.expected[i, j] for j, rec in enumerate(st.gallery)}
        st.min_margin = min(st.min_margin, float(st.margins[i].min()))
        fault = st.fault.identify_failed()
        return len(st.gallery) + 1, ref.failed_comparisons(ranked, expected, st.tau) + fault, fault

    def count(self, st) -> dict:
        probe = st.probes[st.pool[0]]
        return count_he(lambda: st.pipe.identify(probe, st.gallery), len(st.gallery))

    def layer_metrics(self, st) -> dict:
        return {
            "invsqrt.den_edge_margin_log2": st.min_margin,
            "invsqrt.escapes_left_out": st.escapes,
            "pipeline.gallery_bytes_per_record": dir_bytes(st.gallery_dir) / len(st.gallery),
        }


@dataclass
class EnrollState:
    workdir: Path
    pipe: object = None
    dataset: list = None
    subjects: list = None  # (params index, embedding)
    escapes: int = 0
    min_margin: float = math.inf
    bytes_per_record: float = 0.0
    fault: FaultCase = None
    tau: float = 0.0


class Enroll:
    """The write path: enrol a batch of subjects, save the gallery, load it back."""

    name = "enroll"
    setups = 100
    # Small rounds spread the timed enrolments over the whole run, between
    # the file-system work of saving and loading.
    subjects = 10
    spare = 5  # candidates beyond `subjects`, for those left out of the pool

    def setup(self, seed, workdir, span=no_span) -> EnrollState:
        st = EnrollState(workdir)
        with span("setup.dataset"):
            st.dataset = pl.gen_synthetic_dataset(
                pl.SyntheticSpec(
                    num_ids=self.subjects + self.spare, samples_per_id=1, attribute_correlation=0.6, seed=seed
                )
            )
        with span("setup.pipeline"):
            st.pipe = pl.Pipeline(pl.PipelineConfig(seed=seed))
        return st

    def teardown(self, st):
        pass

    def prepare(self, st, trace=None):
        # The self-match denominator depends on the subject's parameters; a
        # throwaway pipeline with the same config draws them, so the timed
        # pipeline's params store holds only the subjects it enrols.
        draw = pl.Pipeline(st.pipe.cfg)
        d = st.pipe.cfg.compress_dim
        st.subjects = []
        for i, e in enumerate(st.dataset):
            if len(st.subjects) == self.subjects:
                break
            params = draw.gen_user_params(i)
            g = ref.protect(e.values, *params_tuple(params, d))
            margin = float(ref.edge_margin_log2(scaled_denominator(params, d, g, g, st.pipe), st.pipe.approx.domain))
            if margin < 0.0:
                st.escapes += 1
                continue
            st.min_margin = min(st.min_margin, margin)
            st.subjects.append((i, e))
        if len(st.subjects) < self.subjects:
            raise RuntimeError(f"only {len(st.subjects)} of {self.subjects} subjects stay inside the fit domain")
        st.tau = tolerance(st.pipe)
        st.fault = FaultCase.build()

    def round(self, st):
        pipe = st.pipe
        records, times = [], []
        for i, e in st.subjects:
            t0 = speed.clock()
            records.append(pipe.enroll(e, pipe.gen_user_params(i)))
            times.append(speed.clock() - t0)
        saved = tempfile.mkdtemp(prefix="enroll-", dir=st.workdir)
        pl.save_gallery(records, pipe.ctx, pipe.params_store, saved)
        loaded, store, _ = pl.load_gallery(saved, pipe.ctx)
        return (saved, loaded, store), times

    def check(self, st, out) -> tuple:
        saved, loaded, store = out
        resaved = tempfile.mkdtemp(prefix="resave-", dir=st.workdir)
        try:
            pl.save_gallery(loaded, st.pipe.ctx, store, resaved)
            identical = same_tree(saved, resaved)
            st.bytes_per_record = dir_bytes(saved) / len(loaded)
        finally:
            shutil.rmtree(saved, ignore_errors=True)
            shutil.rmtree(resaved, ignore_errors=True)
        # Save -> load -> save must be byte-identical and return every record;
        # each reloaded record must then match its own enrolment sample.
        failed = len(st.subjects)
        if identical and [rec.subject_id for rec in loaded] == [e.subject_id for _, e in st.subjects]:
            failed = 0
            for (_, e), rec in zip(st.subjects, loaded):
                ranked = st.pipe.identify(e, [rec])
                failed += ref.failed_comparisons(ranked, {e.subject_id: 1.0}, st.tau)
        fault = st.fault.self_match_failed()
        return len(st.subjects) + 1, failed + fault, fault

    def count(self, st) -> dict:
        pipe = st.pipe
        counts = count_he(lambda: [pipe.enroll(e, pipe.gen_user_params(i)) for i, e in st.subjects], len(st.subjects))
        i, e = st.subjects[0]
        record = pipe.enroll(e, pipe.gen_user_params(i))
        counts["depth"] = count_he(lambda: pipe.identify(e, [record]), 1)["depth"]
        return counts

    def layer_metrics(self, st) -> dict:
        return {
            "invsqrt.den_edge_margin_log2": st.min_margin,
            "invsqrt.escapes_left_out": st.escapes,
            "pipeline.gallery_bytes_per_record": st.bytes_per_record,
        }


def same_tree(a, b) -> bool:
    """True when two directories hold the same relative files with the same bytes."""
    fa = sorted(p.relative_to(a) for p in Path(a).rglob("*") if p.is_file())
    fb = sorted(p.relative_to(b) for p in Path(b).rglob("*") if p.is_file())
    if fa != fb:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, [str(p) for p in fa], shallow=False)
    return not mismatch and not errors


@dataclass
class LeakageState:
    seed: int
    dataset: list = None


class Leakage:
    """One run_leakage_suite call over all six variants on a labelled set."""

    name = "leakage"
    setups = 30
    fhe_variants = ("mrl+fhe", "mrl+polyprotect+fhe")
    test_share = 0.3  # the suite holds out 30 % of the samples as its test split

    def setup(self, seed, workdir, span=no_span) -> LeakageState:
        st = LeakageState(seed)
        with span("setup.dataset"):
            st.dataset = pl.gen_synthetic_dataset(
                pl.SyntheticSpec(num_ids=50, samples_per_id=16, attribute_correlation=0.6, seed=seed)
            )
        return st

    def teardown(self, st):
        pass

    def prepare(self, st, trace=None):
        pass

    def _suite(self, st, dataset):
        # A fresh context per call: every suite in a run sees the same nonces.
        ctx = be.EncryptionContext(128, 16, key_id=f"leakage-{st.seed}", nonce_seed=st.seed)
        return lk.run_leakage_suite(dataset, lk.VARIANTS, ctx, seed=st.seed)

    def round(self, st):
        t0 = speed.clock()
        reports = self._suite(st, st.dataset)
        return reports, [speed.clock() - t0]

    def check(self, st, reports) -> tuple:
        attrs = sorted(pl.ATTRIBUTE_CLASSES)
        cells = {(r.variant, r.attribute): r for r in reports}
        n_test = max(1, round(self.test_share * len(st.dataset)))
        failed = 0
        for variant in lk.VARIANTS:
            for attr in attrs:
                r = cells.get((variant, attr))
                base = cells.get(("none", attr))
                failed += r is None or base is None or not cell_ok(r, base, n_test, variant in self.fhe_variants)
        return len(lk.VARIANTS) * len(attrs), failed, 0

    def count(self, st) -> dict:
        # One sample per identity keeps every attribute's classes in the split.
        subset = st.dataset[:: len(st.dataset) // 50]
        return count_he(lambda: self._suite(st, subset), len(subset))

    def layer_metrics(self, st) -> dict:
        return {}


def cell_ok(r, base, n_test: int, fhe: bool) -> bool:
    """The checks one (variant, attribute) cell of a leakage report must pass."""
    values = (r.a_o, r.a_p, r.r_o, r.r_p, r.chance)
    if not all(0.0 <= v <= 1.0 for v in values) or r.a_o != base.a_p or r.a_o == 0.0:
        return False
    if abs(r.pg - (r.a_o - r.a_p)) > 1e-12 or abs(r.sr - (r.a_o - r.a_p) / r.a_o) > 1e-12:
        return False
    if r.variant == "none" and r.a_p < r.chance + 0.20:
        return False
    if fhe and r.a_p > r.chance + 3.0 * math.sqrt(r.chance * (1.0 - r.chance) / n_test):
        return False
    return True


WORKLOADS = {w.name: w for w in (Identify(), Enroll(), Leakage())}
