"""Intra-ciphertext summation kernels and their benchmark harness.

Three ways to sum the first n slots of a batched ciphertext without element
access: naive rotate-and-accumulate (n-1 rotations), a DFT DC-component
linear transform (n-1 rotations, n plaintext mults), and fold-and-add
(ceil(log2 n) rotations).  All three leave the total in slot 0; naive also
replicates it across every slot when n equals the capacity (windows wrap the
whole ring).  broadcast_slot0 copies slot 0 into the leading slots.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass

import numpy as np

from .backend import EncryptionContext, SlotVector, add, decrypt, encrypt, mult_plain, rotate_left


@dataclass
class SumBenchRow:
    """One benchmark measurement: op counts and wall time for (n, method)."""

    n: int
    method: str
    rotations: int
    mults: int
    wall_ns: int


def _check_n(c: SlotVector, n: int):
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > c.ctx.slot_capacity:
        raise ValueError("n exceeds slot capacity")


def naive_add_all(c: SlotVector, n: int) -> SlotVector:
    """Sum the first n slots by accumulating n-1 single rotations.

    Expects the data in the first n slots and zeros elsewhere.  Slot 0 of the
    result holds the sum; when n equals the slot capacity the rotations wrap
    the full ring and every slot holds the sum.
    """
    _check_n(c, n)
    acc = c
    for i in range(1, n):
        acc = add(acc, rotate_left(c, i))
    return acc


def fold_add_all(c: SlotVector, n: int) -> SlotVector:
    """Sum the first n slots with ceil(log2 n) power-of-two rotations.

    For every start j, slot j of the result holds the sum of slots
    [j, j + 2^ceil(log2 n)) of the input, cyclically over the capacity, in
    the same order of additions whatever j is.  So with zeros in slots
    n .. 2^ceil(log2 n) (callers zero-pad) slot 0 holds the sum of the first
    n slots, and data starting at any slot j sums into slot j; several
    n-wide blocks at least 2^ceil(log2 n) apart are summed by one call.  The
    loop runs the final rotate-by-1 step inclusively: the halving recursion
    needs offsets 2^(k-1) .. 2^0 to cover every slot, and stopping one step
    early leaves the sum incomplete for n > 2.
    """
    _check_n(c, n)
    k = (n - 1).bit_length()
    acc = c
    for i in range(k - 1, -1, -1):
        acc = add(acc, rotate_left(acc, 1 << i))
    return acc


def dft_sum(c: SlotVector, n: int) -> SlotVector:
    """Sum the first n slots as the DC component of a DFT linear transform.

    Evaluates the all-ones DFT row by the diagonal method: for each offset d,
    rotate by d and mask slot 0, then add everything up.  Costs n-1 rotations
    and n plaintext mults, and one depth level.
    """
    _check_n(c, n)
    cap = c.ctx.slot_capacity
    e0 = np.zeros(cap, dtype=np.float64)
    e0[0] = 1.0
    acc = mult_plain(c, e0)
    for d in range(1, n):
        acc = add(acc, mult_plain(rotate_left(c, d), e0))
    return acc


def broadcast_slot0(c: SlotVector, count: int) -> SlotVector:
    """Replicate slot 0 into the first `count` slots (zeros elsewhere).

    One plaintext mask mult (a depth level) plus count-1 rotations.
    """
    cap = c.ctx.slot_capacity
    if not 1 <= count <= cap:
        raise ValueError("count must be in 1..capacity")
    e0 = np.zeros(cap, dtype=np.float64)
    e0[0] = 1.0
    masked = mult_plain(c, e0)
    acc = masked
    for i in range(1, count):
        acc = add(acc, rotate_left(masked, cap - i))
    return acc


_KERNELS = {"naive": naive_add_all, "dft": dft_sum, "fold": fold_add_all}


def bench_summation(sizes, ctx: EncryptionContext, seed: int = 0, repeats: int = 3) -> list[SumBenchRow]:
    """Time all three kernels on random inputs of each size.

    One row per (size, method); wall time is the median of `repeats` runs,
    op counts are the context's ledger difference around one untimed run
    (mults counts ciphertext and plaintext mults together).
    """
    rng = np.random.default_rng(seed)
    rows = []
    for n in sizes:
        if n > ctx.slot_capacity:
            raise ValueError(f"size {n} exceeds slot capacity {ctx.slot_capacity}")
        data = rng.uniform(-1.0, 1.0, n)
        sv = encrypt(data, ctx)
        for method, kernel in _KERNELS.items():
            before = ctx.ops.copy()
            out = kernel(sv, n)
            ops = ctx.ops - before
            expected = float(data.sum())
            if not math.isclose(decrypt(out, ctx)[0], expected, rel_tol=1e-9, abs_tol=1e-9):
                raise AssertionError(f"kernel {method} disagrees with plain sum at n={n}")
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter_ns()
                kernel(sv, n)
                times.append(time.perf_counter_ns() - t0)
            mults = ops["ct_mults"] + ops["pt_mults"]
            rows.append(SumBenchRow(n, method, ops["rotations"], mults, int(np.median(times))))
    return rows


def write_bench_csv(rows, path):
    """Write benchmark rows as CSV: n,method,rotations,mults,wall_ns."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["n", "method", "rotations", "mults", "wall_ns"])
        for r in rows:
            w.writerow([r.n, r.method, r.rotations, r.mults, r.wall_ns])
