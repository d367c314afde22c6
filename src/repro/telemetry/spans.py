"""Derived span analyses: overlap efficiency, imbalance, pipe latency.

Raw spans (:meth:`repro.telemetry.timing.TimingTree.spans`) are a
timeline; this module turns them into the three numbers the paper's
performance story rests on:

* :func:`overlap_efficiency` — the Fig. 8 reproduction as a number: the
  fraction of ghost-exchange wall time that is *hidden* under compute
  running concurrently on other ranks (Algorithm 2's entire purpose).
* :func:`per_rank_imbalance` — max/avg/stddev of per-rank step time,
  the exact signal a :mod:`repro.grid.balance` rebalancer needs (the
  paper's scaling sections argue from this skew).
* :func:`pipe_latency_histogram` — per-phase latency distribution of
  the process backend's pipe messages (``comm/pipe/send`` /
  ``recv``), the ROADMAP's requested profile of why the process backend
  loses to threads at small core counts.

:func:`tracing_section` bundles all three into the RunReport
``"tracing"`` section (validated by
:func:`repro.telemetry.report.validate_run_report`).
"""

from __future__ import annotations

import math

__all__ = [
    "COMPUTE_PREFIX",
    "EXCHANGE_PREFIXES",
    "PIPE_PREFIX",
    "STEP_SCOPE",
    "merge_intervals",
    "overlap_seconds",
    "overlap_efficiency",
    "per_rank_imbalance",
    "pipe_latency_histogram",
    "tracing_section",
]

#: Scope prefix of kernel-sweep spans (``compute/phi``, ``compute/mu``...).
COMPUTE_PREFIX = "compute"
#: Scopes of the ghost-exchange routines (field-level, not pipe-level).
EXCHANGE_PREFIXES = ("comm/phi", "comm/mu")
#: Scope prefix of process-backend pipe control phases.
PIPE_PREFIX = "comm/pipe"
#: Scope of the whole-step spans the distributed solver records.
STEP_SCOPE = "step"


def _is_compute(scope: str) -> bool:
    return scope == COMPUTE_PREFIX or scope.startswith(COMPUTE_PREFIX + "/")


def _is_exchange(scope: str) -> bool:
    return any(
        scope == p or scope.startswith(p + "/") for p in EXCHANGE_PREFIXES
    )


def merge_intervals(intervals) -> list[tuple[float, float]]:
    """Union of ``(t0, t1)`` intervals as a sorted disjoint list."""
    merged: list[list[float]] = []
    for t0, t1 in sorted((float(a), float(b)) for a, b in intervals):
        if t1 <= t0:
            continue
        if merged and t0 <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], t1)
        else:
            merged.append([t0, t1])
    return [(a, b) for a, b in merged]


def overlap_seconds(t0: float, t1: float, merged) -> float:
    """Seconds of ``[t0, t1]`` covered by a merged interval union."""
    total = 0.0
    for a, b in merged:
        if b <= t0:
            continue
        if a >= t1:
            break
        total += min(b, t1) - max(a, t0)
    return total


def overlap_efficiency(spans) -> dict:
    """Fraction of exchange wall time hidden under peer compute.

    For every exchange span on rank *r*, the hidden part is its
    wall-clock intersection with the union of compute spans of **other**
    ranks: communication is only truly hidden when someone else is
    computing through it (within one rank the exchange blocks the step).
    Returns totals, the efficiency ratio and a per-rank breakdown.
    """
    compute_by_rank: dict[int, list[tuple[float, float]]] = {}
    exchanges = []
    for s in spans:
        if _is_compute(s.scope):
            compute_by_rank.setdefault(s.rank, []).append(
                (s.t_start, s.t_end)
            )
        elif _is_exchange(s.scope):
            exchanges.append(s)
    merged_by_rank = {
        r: merge_intervals(iv) for r, iv in compute_by_rank.items()
    }
    total = 0.0
    hidden = 0.0
    per_rank: dict[str, dict] = {}
    for s in exchanges:
        peers = merge_intervals(
            iv
            for r, merged in merged_by_rank.items()
            if r != s.rank
            for iv in merged
        )
        dur = max(0.0, s.t_end - s.t_start)
        # clipped pieces can sum an ulp past the span; capped, the
        # efficiency is <= 1 exactly, as the report schema demands
        hid = min(dur, overlap_seconds(s.t_start, s.t_end, peers))
        total += dur
        hidden += hid
        row = per_rank.setdefault(
            str(s.rank), {"exchange_seconds": 0.0, "hidden_seconds": 0.0}
        )
        row["exchange_seconds"] += dur
        row["hidden_seconds"] += hid
    for row in per_rank.values():
        row["efficiency"] = (
            row["hidden_seconds"] / row["exchange_seconds"]
            if row["exchange_seconds"] > 0 else 0.0
        )
    return {
        "exchange_seconds": total,
        "hidden_seconds": hidden,
        "efficiency": hidden / total if total > 0 else 0.0,
        "per_rank": per_rank,
    }


def per_rank_imbalance(spans, scope: str = STEP_SCOPE) -> dict:
    """Max/avg/stddev of per-rank total time in *scope* spans.

    With the solver's per-step spans this is the load-imbalance readout:
    ``ratio`` is max-over-avg (1.0 = perfectly balanced), the quantity a
    dynamic load balancer would drive toward 1.
    """
    totals: dict[int, float] = {}
    counts: dict[int, int] = {}
    for s in spans:
        if s.scope != scope:
            continue
        totals[s.rank] = totals.get(s.rank, 0.0) + max(
            0.0, s.t_end - s.t_start
        )
        counts[s.rank] = counts.get(s.rank, 0) + 1
    if not totals:
        return {
            "scope": scope, "per_rank": {}, "max": 0.0, "min": 0.0,
            "avg": 0.0, "stddev": 0.0, "ratio": 0.0,
        }
    values = list(totals.values())
    avg = sum(values) / len(values)
    var = sum((v - avg) ** 2 for v in values) / len(values)
    return {
        "scope": scope,
        "per_rank": {
            str(r): {"seconds": totals[r], "spans": counts[r]}
            for r in sorted(totals)
        },
        "max": max(values),
        "min": min(values),
        "avg": avg,
        "stddev": math.sqrt(var),
        "ratio": max(values) / avg if avg > 0 else 0.0,
    }


#: Histogram bin edges in microseconds (log-spaced, open-ended top bin).
_LATENCY_EDGES_US = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1e3, 2e3, 5e3, 1e4, 1e5, 1e6,
)


def pipe_latency_histogram(spans, *, edges_us=_LATENCY_EDGES_US) -> dict | None:
    """Latency histogram of the pipe control phases, per phase.

    Buckets each ``comm/pipe/<phase>`` span duration into log-spaced
    microsecond bins (``counts[i]`` holds durations ``< edges_us[i]``;
    the final bucket is everything larger).  Returns ``None`` when no
    pipe spans exist (thread backend), so the report section stays
    honest about what was measured.
    """
    phases: dict[str, list[int]] = {}
    totals: dict[str, dict] = {}
    n_bins = len(edges_us) + 1
    seen = False
    for s in spans:
        if not s.scope.startswith(PIPE_PREFIX + "/"):
            continue
        seen = True
        phase = s.scope[len(PIPE_PREFIX) + 1:]
        us = max(0.0, s.t_end - s.t_start) * 1e6
        counts = phases.setdefault(phase, [0] * n_bins)
        for i, edge in enumerate(edges_us):
            if us < edge:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
        tot = totals.setdefault(
            phase, {"calls": 0, "total_us": 0.0, "max_us": 0.0}
        )
        tot["calls"] += 1
        tot["total_us"] += us
        tot["max_us"] = max(tot["max_us"], us)
    if not seen:
        return None
    for phase, tot in totals.items():
        tot["avg_us"] = tot["total_us"] / tot["calls"]
    return {
        "unit": "us",
        "edges_us": list(edges_us),
        "counts": phases,
        "summary": totals,
    }


def tracing_section(spans, dropped: int) -> dict:
    """Build the RunReport ``"tracing"`` section from gathered spans.

    *dropped* counts the spans the ranks folded out of their timelines
    (:attr:`~repro.telemetry.timing.TimingTree.dropped`), so a truncated
    trace is visible in the report rather than silently partial.
    """
    return {
        "enabled": True,
        "spans": len(spans),
        "dropped": int(dropped),
        "overlap": overlap_efficiency(spans),
        "imbalance": per_rank_imbalance(spans),
        "pipe_latency": pipe_latency_histogram(spans),
    }
