"""Span tracing: bounded ring-buffer span recording + Chrome trace export.

The telemetry timing trees (PR 3) aggregate each scope into
count/total/min/max — enough for a Fig. 8-style breakdown, but blind to
*when* things happened: whether the Algorithm 2 exchange actually hides
under a peer's compute, how per-rank step times skew over a run, or what
the process backend's pipe control messages cost individually.  This
module records the raw timeline: every timed scope becomes a
:class:`Span` ``(scope, rank, tid, t_start, t_end, args)`` in a bounded
ring buffer, exportable as a Chrome trace-event JSON document that
``chrome://tracing`` / Perfetto render as a real per-rank timeline.

Tracing is **opt-in and near-zero cost when off**: the hot path carries
one ``is None`` check per timed scope (the :class:`TimingTree` holds
``tracer=None`` unless a recorder was attached).  Activation is
environment-driven, through :class:`repro.settings.Settings`, so no call
site changes per run:

``REPRO_TRACE``
    Truthy (anything but empty, ``0``, ``off`` or ``none``) enables
    span recording for telemetry-enabled runs.
``REPRO_TRACE_SAMPLE``
    Keep one of every N offered spans (default 1 = keep all).
``REPRO_TRACE_BUFFER``
    Ring-buffer capacity in spans per rank (default 65536); the oldest
    spans are dropped first and the drop count is reported.

Timestamps are ``time.perf_counter()`` — on Linux a system-wide
monotonic clock, so spans recorded by separate OS processes (the simmpi
process backend) share one timeline and cross-rank overlap analysis
(:mod:`repro.telemetry.spans`) is meaningful without clock alignment.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque, namedtuple
from pathlib import Path

from repro.settings import DEFAULT_TRACE_BUFFER, Settings

__all__ = [
    "Span",
    "SpanRecorder",
    "trace_enabled",
    "recorder_from_env",
    "recorder_from_settings",
    "spans_to_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "load_chrome_trace",
    "DEFAULT_BUFFER",
]

#: Default ring-buffer capacity (spans per rank).  A 2-rank smoke run
#: emits a few hundred spans; a long traced campaign rolls over instead
#: of growing without bound.
DEFAULT_BUFFER = DEFAULT_TRACE_BUFFER

#: One recorded scope execution.  ``args`` is ``None`` or a small dict of
#: JSON-ready annotations (bytes moved, step index, ...).  Plain
#: namedtuple: cheap to create in the hot path and pickles compactly into
#: the rank's result.
Span = namedtuple("Span", ["scope", "rank", "tid", "t_start", "t_end", "args"])


def trace_enabled(override: bool | None = None) -> bool:
    """Resolve the tracing switch (*override* beats ``REPRO_TRACE``)."""
    if override is not None:
        return bool(override)
    return Settings.from_env().trace


class SpanRecorder:
    """Bounded, sampled recorder of timed spans on one rank.

    Thread-safe: the distributed solver's side threads (fault timers,
    watchdog beacons) may record concurrently with the step loop.  The
    buffer is a ring — when full, the **oldest** spans are dropped and
    counted, so a long run keeps its most recent window rather than its
    first seconds.
    """

    def __init__(self, rank: int = 0, *, buffer_size: int = DEFAULT_BUFFER,
                 sample: int = 1):
        if buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        if sample < 1:
            raise ValueError("sample must be >= 1 (keep 1 of every N)")
        self.rank = int(rank)
        self.sample = int(sample)
        self.buffer_size = int(buffer_size)
        self._spans: deque[Span] = deque(maxlen=self.buffer_size)
        self._offered = 0
        self._recorded = 0
        self._dropped = 0
        self._lock = threading.Lock()
        self._tids: dict[int, int] = {}  # thread ident -> small stable id

    def _tid(self) -> int:
        ident = threading.get_ident()
        tid = self._tids.get(ident)
        if tid is None:
            tid = len(self._tids)
            self._tids[ident] = tid
        return tid

    def record(self, scope: str, t_start: float, t_end: float,
               **args) -> None:
        """Record one span with explicit start/end timestamps."""
        with self._lock:
            self._offered += 1
            if self.sample > 1 and (self._offered - 1) % self.sample:
                return
            self._recorded += 1
            if len(self._spans) == self.buffer_size:
                self._dropped += 1  # ring is full: the oldest span falls off
            self._spans.append(Span(
                scope, self.rank, self._tid(),
                float(t_start), float(t_end), args or None,
            ))

    def record_duration(self, scope: str, seconds: float, **args) -> None:
        """Record a span measured externally, ending now."""
        now = time.perf_counter()
        self.record(scope, now - seconds, now, **args)

    def __len__(self) -> int:
        return len(self._spans)

    def spans(self) -> list[Span]:
        """Snapshot of the buffered spans (oldest first)."""
        with self._lock:
            return list(self._spans)

    def drain(self) -> list[Span]:
        """Return and clear the buffered spans (stats are kept)."""
        with self._lock:
            out = list(self._spans)
            self._spans.clear()
            return out

    def stats(self) -> dict:
        """Accounting of the recorder: offered / sampled / dropped."""
        with self._lock:
            return {
                "rank": self.rank,
                "offered": self._offered,
                "recorded": self._recorded,
                "dropped": self._dropped,
                "sample": self.sample,
                "buffer_size": self.buffer_size,
            }


def recorder_from_settings(
    settings: Settings,
    rank: int = 0,
    *,
    trace: bool | None = None,
    sample: int | None = None,
    buffer_size: int | None = None,
) -> SpanRecorder | None:
    """Build a :class:`SpanRecorder` if tracing is on, else ``None``.

    Explicit keyword values beat the corresponding *settings*
    (``REPRO_TRACE`` / ``REPRO_TRACE_SAMPLE`` / ``REPRO_TRACE_BUFFER``),
    so drivers can force tracing per run (the fig8 benchmark does) while
    the env var flips whole sessions.
    """
    if not (settings.trace if trace is None else trace):
        return None
    return SpanRecorder(
        rank,
        sample=settings.trace_sample if sample is None else int(sample),
        buffer_size=(
            settings.trace_buffer if buffer_size is None
            else int(buffer_size)
        ),
    )


def recorder_from_env(rank: int = 0, **knobs) -> SpanRecorder | None:
    """:func:`recorder_from_settings` of the process environment."""
    return recorder_from_settings(Settings.from_env(), rank, **knobs)


# -- Chrome trace-event export ------------------------------------------------


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
