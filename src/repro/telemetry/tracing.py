"""Chrome trace-event export of a run's spans.

Every timed scope of a rank is one :class:`~repro.telemetry.timing.Span`
``(scope, rank, tid, t_start, t_end, args)`` of its
:class:`~repro.telemetry.timing.TimingTree`; the timing tree aggregates
them into count/total/min/max, blind to *when* things happened: whether
the Algorithm 2 exchange actually hides under a peer's compute, how
per-rank step times skew over a run, or what the process backend's pipe
control messages cost individually.  This module exports the spans
themselves as a Chrome trace-event JSON document that
``chrome://tracing`` / Perfetto render as a per-rank timeline.

A telemetered call returns its spans when it is traced:
``RunTelemetry(trace=True)``, or ``REPRO_TRACE`` truthy (anything but
empty, ``0``, ``off`` or ``none``) with ``trace=None``.  The run then
writes ``trace-<run_id>.json`` next to its report.

Timestamps are ``time.perf_counter()`` — on Linux a system-wide
monotonic clock, so spans recorded by separate OS processes (the simmpi
process backend) share one timeline and cross-rank overlap analysis
(:mod:`repro.telemetry.spans`) is meaningful without clock alignment.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.telemetry.timing import Span

__all__ = [
    "Span",
    "spans_to_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "load_chrome_trace",
]


def spans_to_chrome_trace(spans, *, time_origin: float | None = None) -> dict:
    """Convert spans to a Chrome trace-event JSON document.

    Complete (``"ph": "X"``) duration events with microsecond
    timestamps relative to the earliest span, one ``pid`` per rank (plus
    ``process_name`` metadata so the timeline labels read ``rank N``).
    Drop the result into ``chrome://tracing`` or https://ui.perfetto.dev.
    """
    spans = list(spans)
    if time_origin is None:
        time_origin = min((s.t_start for s in spans), default=0.0)
    events = []
    for pid in sorted({s.rank for s in spans}):
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": f"rank {pid}"},
        })
    for s in spans:
        event = {
            "name": s.scope,
            "cat": s.scope.split("/", 1)[0],
            "ph": "X",
            "ts": (s.t_start - time_origin) * 1e6,
            "dur": max(0.0, (s.t_end - s.t_start) * 1e6),
            "pid": s.rank,
            "tid": s.tid,
        }
        if s.args:
            event["args"] = dict(s.args)
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(doc: dict) -> None:
    """Raise :class:`ValueError` unless *doc* is a usable trace document.

    Structural checks matching what ``chrome://tracing`` / Perfetto
    require of the JSON object format: a ``traceEvents`` array whose
    duration events carry name/ph/pid/tid and non-negative numeric
    ``ts``/``dur``.
    """
    if not isinstance(doc, dict):
        raise ValueError("trace document must be a JSON object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace document must carry a traceEvents array")
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                raise ValueError(f"traceEvents[{i}] misses {key!r}")
        if not isinstance(ev["name"], str) or not ev["name"]:
            raise ValueError(f"traceEvents[{i}].name must be a string")
        if ev["ph"] == "X":
            for key in ("ts", "dur"):
                value = ev.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    raise ValueError(
                        f"traceEvents[{i}].{key} must be a non-negative "
                        "number"
                    )
        if "args" in ev and not isinstance(ev["args"], dict):
            raise ValueError(f"traceEvents[{i}].args must be an object")


def write_chrome_trace(path, spans_or_doc) -> Path:
    """Validate and persist a trace (atomic temp-file + rename)."""
    if isinstance(spans_or_doc, dict):
        doc = spans_or_doc
    else:
        doc = spans_to_chrome_trace(spans_or_doc)
    validate_chrome_trace(doc)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(doc) + "\n")
    os.replace(tmp, path)
    return path


def load_chrome_trace(path) -> dict:
    """Read and validate a trace-event JSON file."""
    doc = json.loads(Path(path).read_text())
    validate_chrome_trace(doc)
    return doc
