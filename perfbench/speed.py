"""Machine-speed calibration for the end-to-end timings.

The benchmark runs on a few cores of a shared host.  The speed of those cores
drifts by tens of percent over seconds to minutes, and two cores differ at the
same moment, so the wall time of fixed work varies between runs by far more
than any change worth detecting: five 45-second identify runs of the same code
gave medians from 821 to 1,299 ms.  Longer runs do not narrow that, since the
drift is slower than a run.

A reference kernel, owned by the benchmark and independent of polyfhe, is
therefore timed every PERIOD_S seconds throughout the run, from a SIGALRM
handler, so it runs on the same core and in the same seconds as the work
around it.  Its mix follows the backend's hot path, which dominates identify
and enroll: arithmetic and rotations on 128-element arrays under the
interpreter, and small objects.  Its data stays small, so that its own time
hardly depends on what the program leaves in the caches.  (Of the kernels
tried, this one followed identify's probe time best; one with SHA-256 and
matrix-vector products followed it worse, and none follows the attacker
training in the leakage suite as closely, since that streams tens of MiB per
epoch, so leakage timings keep more of the host's drift.)  A timed span is then
reported at reference speed:

    span_ns * REF_KERNEL_NS / (mean kernel time in and around the span)

and the time the handler itself took inside the span is left out (`clock`).
REF_KERNEL_NS is the kernel's typical time on the 2-vCPU machine the reference
figures in the README come from, so the figures read as milliseconds and
seconds of that machine on a quiet moment.  The kernel and REF_KERNEL_NS are
fixed: changing either changes every end-to-end timing and is a change to the
benchmark, not to the program.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

import numpy as np

PERIOD_S = 0.1
REF_KERNEL_NS = 2_200_000

_rng = np.random.default_rng(20240425)
_A = _rng.standard_normal(128)
_B = _rng.standard_normal(128)


def kernel() -> float:
    """The fixed reference work; returns a value so nothing is skipped."""
    a, acc = _A, 0.0
    for k in range(150):
        a = np.roll(a * _B + _A, 3)
        slot = {"slots": a, "k": k}
        acc += float(slot["slots"][0])
    return acc


_paused_ns = 0  # handler time so far; clock() leaves it out
_samples_t: list = []  # wall time of each kernel sample (perf_counter_ns)
_samples_ns: list = []  # its duration
_busy = False


def clock() -> int:
    """perf_counter_ns without the time the calibration handler has taken."""
    return time.perf_counter_ns() - _paused_ns


def _handler(signum, frame):
    global _paused_ns, _busy
    if _busy:
        return
    _busy = True
    collecting = gc.isenabled()
    gc.disable()  # a collection here would time the program's heap, not the kernel
    try:
        t0 = time.perf_counter_ns()
        kernel()
        t1 = time.perf_counter_ns()
        _samples_t.append(t0)
        _samples_ns.append(t1 - t0)
        _paused_ns += time.perf_counter_ns() - t0
    finally:
        if collecting:
            gc.enable()
        _busy = False


class Calibration:
    """Times the kernel every PERIOD_S seconds while the block runs, and
    brings spans timed inside it to reference speed."""

    def __enter__(self):
        _samples_t.clear()
        _samples_ns.clear()
        self._old = signal.signal(signal.SIGALRM, _handler)
        _handler(signal.SIGALRM, None)  # a first sample before any span
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    @staticmethod
    def at_reference(spans) -> list:
        """Each (wall t0, wall t1, duration by clock()) span at reference
        speed, by the samples from one period before t0 to one period after
        t1 (the nearest sample when there is none in that window)."""
        margin = int(PERIOD_S * 1e9)
        out = []
        for t0, t1, ns in spans:
            lo = bisect.bisect_left(_samples_t, t0 - margin)
            hi = bisect.bisect_right(_samples_t, t1 + margin)
            if lo == hi:
                lo = min(lo, len(_samples_t) - 1)
                hi = lo + 1
            window = _samples_ns[lo:hi]
            out.append(ns * REF_KERNEL_NS * len(window) / sum(window))
        return out

    @staticmethod
    def kernel_ns() -> list:
        return list(_samples_ns)
