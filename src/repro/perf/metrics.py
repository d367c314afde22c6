"""Performance metrics: MLUP/s and kernel timing helpers.

"The presented performance results are measured in MLUP/s, which stands
for million lattice cell updates per second."
"""

from __future__ import annotations

import math
import statistics
import time

__all__ = ["mlups", "call_seconds", "measure_kernel_rate"]


def mlups(cells: int, seconds: float) -> float:
    """Million lattice-cell updates per second."""
    if seconds <= 0:
        raise ValueError("seconds must be positive")
    return cells / seconds / 1.0e6


def call_seconds(fn, *, min_time: float = 0.25, max_repeats: int = 50) -> float:
    """Median wall seconds of one call of the zero-argument *fn*.

    One explicit **untimed warm-up call** runs first and never enters
    calibration or the samples.  A cold first call is systematically
    slower than steady state (cache/allocator effects for the NumPy
    rungs, ``dlopen`` cost for the compiled rungs — potentially *orders
    of magnitude*), so a kernel must not calibrate against it.

    The batch size is then auto-ranged like :mod:`timeit`: starting from
    one call per batch, the batch grows geometrically until a single
    batch meets the per-sample time target ``min_time / max_repeats``,
    then batches are sampled until *min_time* of wall time accumulates
    (or *max_repeats* samples are taken).  The median sample is robust
    against scheduler hiccups.
    """
    fn()

    target = min_time / max_repeats
    calls = 1
    while True:  # auto-range the batch size on warm steady-state calls
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        dt = time.perf_counter() - t0
        if dt >= target * 0.5:
            break
        calls = max(calls * 2, math.ceil(calls * target / max(dt, 1e-9)))
    samples: list[float] = [dt / calls]
    total = dt
    while total < min_time and len(samples) < max_repeats:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        dt = time.perf_counter() - t0
        samples.append(dt / calls)
        total += dt
    return statistics.median(samples)


def measure_kernel_rate(
    fn,
    cells: int,
    *,
    min_time: float = 0.25,
    max_repeats: int = 50,
) -> float:
    """MLUP/s of a zero-argument kernel invocation updating *cells*,
    from the median seconds per call of :func:`call_seconds`."""
    return mlups(cells, call_seconds(fn, min_time=min_time,
                                     max_repeats=max_repeats))
