"""Small statistics helpers shared by the driver and the compare tool."""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only when at least this many samples lie
#: beyond it (choosing-metrics guide, section 1).
MIN_SAMPLES_BEYOND = 10


def samples_beyond(n: int, p: float) -> int:
    """How many of *n* samples lie beyond the *p*-th percentile."""
    return math.floor(n * (1.0 - p / 100.0))


def percentile(samples, p: float) -> float:
    """*p*-th percentile (0 < p < 100) by linear interpolation.

    Refuses a percentile that fewer than :data:`MIN_SAMPLES_BEYOND`
    samples lie beyond: the tail would be set by a handful of values.
    """
    xs = sorted(samples)
    if not 0.0 < p < 100.0:
        raise ValueError(f"percentile must lie in (0, 100), got {p}")
    beyond = samples_beyond(len(xs), p)
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{p:g} of {len(xs)} samples has only {beyond} beyond it; "
            f"need {MIN_SAMPLES_BEYOND}"
        )
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


#: Share of the samples :func:`quiet` averages.
QUIET_SHARE = 0.10


def quiet(samples) -> float:
    """Mean of the fastest tenth of *samples* (at least one sample).

    Interference from the host's other tenants only ever adds time, so -
    as ``timeit`` does with its minimum - a micro-measurement is
    estimated from its fastest repetitions: what the call costs when the
    machine is left alone.  A tenth rather than the single minimum keeps
    one lucky sample from setting the value.
    """
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    k = max(1, int(len(xs) * QUIET_SHARE))
    return sum(xs[:k]) / k


def spread(values) -> float:
    """Run-to-run spread as a share of the median.

    Inter-quartile distance (``statistics.quantiles(n=4)``, the rule the
    pipeline applies to ten runs) with four or more values, the full
    range with two or three, 0 with one.
    """
    xs = [float(v) for v in values]
    if len(xs) < 2:
        return 0.0
    med = statistics.median(xs)
    if med == 0:
        return 0.0
    if len(xs) >= 4:
        q = statistics.quantiles(xs, n=4)
        return abs((q[2] - q[0]) / med)
    return abs((max(xs) - min(xs)) / med)


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse *new* is than *base* as a share of *base*
    (negative when it is better)."""
    if base == 0:
        return 0.0 if new == 0 else math.inf
    change = (new - base) / abs(base)
    return change if better == "lower" else -change
