"""Telemetry subsystem: timing trees, structured events, run reports.

The paper's evaluation (Figs. 5-9) exists because waLBerla can *measure
itself*: every sweep and exchange functor is timed on every rank, the
timings are reduced across up to 262,144 cores, and the merged breakdown
is what the figures plot.  This package reproduces that observability
substrate:

* :mod:`repro.telemetry.timing` — hierarchical :class:`TimingTree` of
  named scopes (count/total/min/avg/max), the waLBerla ``TimingTree``
  correspondence;
* :mod:`repro.telemetry.reduce` — merging of the per-rank trees into one
  breakdown with per-rank min/avg/max;
* :mod:`repro.telemetry.events` — versioned JSON-lines event records,
  kept in memory per rank and merged into one time-ordered stream;
* :mod:`repro.telemetry.counters` — counters/gauges, rolling MLUP/s
  window and the per-step :class:`Heartbeat` sampler;
* :mod:`repro.telemetry.report` — versioned, schema-validated JSON run
  reports (the ``BENCH_*.json`` performance trajectory);
* :mod:`repro.telemetry.tracing` — opt-in (``REPRO_TRACE=1``) bounded
  span recording of every timed scope, exported as Chrome trace-event /
  Perfetto JSON timelines;
* :mod:`repro.telemetry.spans` — span-derived analyses: overlap
  efficiency (the Fig. 8 number), per-rank step-time imbalance and the
  process-backend pipe-latency histogram;
* :mod:`repro.telemetry.session` — :class:`RunTelemetry`, the opt-in
  switch drivers accept, and :class:`RankTelemetry`, one rank's share
  of a telemetry-enabled call.

Everything a rank records — its tree, counters, events and spans — is
plain data it returns with its call's result; the caller's
:class:`RunTelemetry` merges it.  Library modules log through
``logging.getLogger(__name__)`` and never configure handlers themselves.
"""

from repro.telemetry.counters import (
    Counter,
    Gauge,
    Heartbeat,
    MetricsRegistry,
    RollingRate,
)
from repro.telemetry.events import (
    EVENT_SCHEMA_VERSION,
    EventLog,
    merge_event_logs,
    read_events,
    validate_event,
)
from repro.telemetry.reduce import as_reduced, merge_rank_trees, merge_reduced
from repro.telemetry.report import (
    RUN_REPORT_SCHEMA,
    RUN_REPORT_VERSION,
    build_run_report,
    config_hash,
    load_run_report,
    validate_run_report,
    write_run_report,
)
from repro.telemetry.session import RankTelemetry, RunTelemetry
from repro.telemetry.spans import (
    overlap_efficiency,
    per_rank_imbalance,
    pipe_latency_histogram,
    tracing_section,
)
from repro.telemetry.timing import TimerStats, TimingNode, TimingTree
from repro.telemetry.tracing import (
    Span,
    SpanRecorder,
    load_chrome_trace,
    recorder_from_env,
    spans_to_chrome_trace,
    trace_enabled,
    validate_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "TimerStats",
    "TimingNode",
    "TimingTree",
    "as_reduced",
    "merge_reduced",
    "merge_rank_trees",
    "EVENT_SCHEMA_VERSION",
    "EventLog",
    "read_events",
    "merge_event_logs",
    "validate_event",
    "Counter",
    "Gauge",
    "RollingRate",
    "MetricsRegistry",
    "Heartbeat",
    "RUN_REPORT_VERSION",
    "RUN_REPORT_SCHEMA",
    "config_hash",
    "build_run_report",
    "validate_run_report",
    "write_run_report",
    "load_run_report",
    "RankTelemetry",
    "RunTelemetry",
    "Span",
    "SpanRecorder",
    "trace_enabled",
    "recorder_from_env",
    "spans_to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "load_chrome_trace",
    "overlap_efficiency",
    "per_rank_imbalance",
    "pipe_latency_histogram",
    "tracing_section",
]
