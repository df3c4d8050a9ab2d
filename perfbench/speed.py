"""Machine-speed calibration: times in reference seconds.

The benchmark runs on a share of a few cores of a shared host, and the
speed of that share drifts by 20-40% within minutes, for wall time and for
CPU time alike.  That drift is larger than any bound a benchmark could keep,
so every time the benchmark reports is calibrated: next to the timed work it
runs a fixed piece of pure-Python work (`unit`) that does not touch polydiam,
and scales the measured wall time by how fast that reference ran.

    reference seconds = wall seconds * NOMINAL_UNIT_NS / (wall ns of one unit, measured alongside)

A reference second is the time of 1e9 / NOMINAL_UNIT_NS reference units,
which is about one second of wall time on a 2-vCPU VM at its usual speed.
A program change cannot move the reference; only the machine does, and it
moves the reference and the program alike.  Measured on such a VM, over
runs whose raw speed spread by half, the scaled throughput spread by 3%.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter_ns

NOMINAL_UNIT_NS = 5_000_000


def unit() -> Fraction:
    """One reference unit: rational arithmetic, tuples, a dict and a sort,
    the kinds of work polydiam's own code does."""
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i, i + 7) * Fraction(3, i + 1)
    table: dict[tuple[int, int], int] = {}
    for i in range(3000):
        table[(i * 7919) % 997, i % 3] = i
    sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    return total


def measure(units: int) -> int:
    """Wall ns of `units` reference units.

    The cyclic garbage collector is paused meanwhile, so garbage the
    program under test left behind is not collected on the reference's
    clock (the units make no cycles of their own).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter_ns()
        for _ in range(units):
            unit()
        return perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()


def units_for(ns: int, share: float) -> int:
    """Units that take about `share` of `ns` at nominal speed (at least one)."""
    return max(1, round(share * ns / NOMINAL_UNIT_NS))


def scale(ref_ns: int, units: int) -> float:
    """Factor from wall time to reference time, given a reference measurement."""
    return units * NOMINAL_UNIT_NS / ref_ns
