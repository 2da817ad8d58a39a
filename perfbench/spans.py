"""Spans and op counts taken from outside the polyfhe package.

A Tracer replaces chosen public functions of the layer modules with wrappers
that record one span per call: its name, its duration and, through a stack,
the span that encloses it.  polyfhe modules import one another's functions by
name (``from .backend import add``), so the wrapper is installed on every
polyfhe module attribute bound to the function, and calls are caught wherever
they are made.  Leaving the ``with`` block puts the originals back.

Spans are folded into per-name totals as they close, so a run of millions of
backend calls keeps a few numbers per function instead of millions of spans.
A span's self time is its duration minus the durations of the spans it
directly encloses; the self times of a span and of everything nested in it
therefore add up to that span's duration exactly.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from contextlib import contextmanager

LAYERS = ("backend", "summation", "polyprotect", "invsqrt", "similarity", "pipeline", "leakage")

# The backend's ciphertext op functions and the HE count each one feeds.  Each
# call acts on one ciphertext today; a backend that acts on several per call
# (batched slot vectors) needs the counter to count ciphertexts, not calls.
HE_OPS = {
    "rotations": "backend.rotate_left",
    "ct_mults": "backend.mult",
    "pt_mults": "backend.mult_plain",
    "encryptions": "backend.encrypt",
    "adds": "backend.add",
}


def public_functions(layers=LAYERS) -> dict:
    """{"layer.name": function} for every public function a layer module defines."""
    out = {}
    for layer in layers:
        mod = importlib.import_module(f"polyfhe.{layer}")
        for name, obj in vars(mod).items():
            if isinstance(obj, types.FunctionType) and not name.startswith("_") and obj.__module__ == mod.__name__:
                out[f"{layer}.{name}"] = obj
    return out


class Tracer:
    """Per-name span totals for calls into the given functions.

    functions maps span names to the functions to wrap; amounts optionally
    maps a span name to f(args, result) -> number, summed per name (bytes
    serialized, windows protected, depth of a result, ...).  stats[name] is
    [calls, total_ns, self_ns, amount].
    """

    def __init__(self, functions: dict, amounts: dict = None):
        self.functions = functions
        self.amounts = amounts or {}
        self.clock = time.perf_counter_ns
        self.stats = {name: [0, 0, 0, 0] for name in functions}
        self._stack = [0]  # child-duration accumulators; [0] is the root
        self._wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, fn in functions.items()}
        self._undo = []

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = self.clock
        amount = self.amounts.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - stack.pop()
                stack[-1] += dt
            if amount is not None:
                stat[3] += amount(args, out)
            return out

        return span

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around a block of calls."""
        stat = self.stats.setdefault(name, [0, 0, 0, 0])
        stack = self._stack
        stack.append(0)
        t0 = self.clock()
        try:
            yield
        finally:
            dt = self.clock() - t0
            stat[0] += 1
            stat[1] += dt
            stat[2] += dt - stack.pop()
            stack[-1] += dt

    @property
    def root_ns(self) -> int:
        """Total duration of all outermost spans so far."""
        return self._stack[0]

    def take(self) -> dict:
        """Return the totals so far and start again from zero."""
        snap = {name: tuple(stat) for name, stat in self.stats.items()}
        for stat in self.stats.values():
            stat[:] = [0, 0, 0, 0]
        self._stack[0] = 0
        return snap

    def __enter__(self):
        if self._undo:
            raise RuntimeError("tracer is already installed")
        for mod in [m for name, m in sys.modules.items() if name == "polyfhe" or name.startswith("polyfhe.")]:
            for attr, value in list(vars(mod).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    self._undo.append((mod, attr, value))
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()
        return False
