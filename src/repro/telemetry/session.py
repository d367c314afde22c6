"""Run-level telemetry configuration and its per-rank share.

:class:`RunTelemetry` is the one knob a driver exposes: pass an instance
to :meth:`repro.distributed.solver.DistributedSimulation.run` (or
:func:`repro.resilience.campaign.run_campaign`) and the run collects a
per-rank :class:`~repro.telemetry.timing.TimingTree`, records structured
events, samples counters and emits a :mod:`~repro.telemetry.report` JSON
summary.  Pass ``None`` (the default) and the hot path runs exactly as
before — telemetry is strictly opt-in, so it cannot regress an
untelemetered benchmark.

:class:`RankTelemetry` is what one rank records during one such call:
plain data — tree, counters, events, spans — that the rank returns with
its result (its events ride its exception when the call fails).  No
record costs a message of its own: :meth:`RunTelemetry.finish` merges
the returned records into the result, and the :class:`RunTelemetry`
instance keeps the run's one event stream.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from pathlib import Path

from repro.telemetry.counters import Heartbeat, MetricsRegistry
from repro.telemetry.events import EventLog, merge_event_logs
from repro.telemetry.reduce import merge_rank_trees
from repro.telemetry.timing import TimingTree

__all__ = ["RankTelemetry", "RunTelemetry"]

logger = logging.getLogger(__name__)


@dataclass
class RunTelemetry:
    """Configuration of one telemetry-enabled run.

    Parameters
    ----------
    directory:
        Where the merged event stream (``events-merged.jsonl``), the run
        report and the Chrome trace land.  ``None`` keeps everything in
        memory only (tests, short-lived runs).
    run_id:
        Identifier stamped into the run report and file names.
    heartbeat_every:
        Steps between ``heartbeat`` events (counters are updated every
        step regardless).
    trace:
        Span tracing switch (see :mod:`repro.telemetry.tracing`).
        ``None`` (default) defers to the ``REPRO_TRACE`` setting of the
        run's world; ``True`` / ``False`` force it per run.  When on, every
        rank records timestamped spans of its timed scopes, the spans
        return with each rank's result and are exported as a Chrome
        trace-event JSON next to the run report, and the report gains a
        ``"tracing"`` section (overlap efficiency, per-rank imbalance,
        pipe latency).
    trace_sample:
        Keep one of every N spans (``None`` → ``REPRO_TRACE_SAMPLE``,
        default keep all).
    trace_buffer:
        Per-rank span ring-buffer capacity (``None`` →
        ``REPRO_TRACE_BUFFER``).
    """

    directory: str | Path | None = None
    run_id: str = "run"
    heartbeat_every: int = 1
    trace: bool | None = None
    trace_sample: int | None = None
    trace_buffer: int | None = None

    def __post_init__(self) -> None:
        if self.directory is not None:
            self.directory = Path(self.directory)
        if self.heartbeat_every < 1:
            raise ValueError("heartbeat_every must be >= 1")
        #: The run's one event stream: what the caller emits itself (the
        #: campaign driver) plus every record its ranks returned.
        self.events = EventLog()

    def __getstate__(self) -> dict:
        # A rank's command carries the configuration, never the stream.
        state = dict(self.__dict__)
        del state["events"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.events = EventLog()

    def open_tracer(self, comm):
        """:class:`~repro.telemetry.tracing.SpanRecorder` of *comm*'s rank.

        ``None`` when tracing is off — the instance knobs override the
        ``REPRO_TRACE*`` settings of *comm*'s world.
        """
        from repro.telemetry.tracing import recorder_from_settings

        return recorder_from_settings(
            comm.settings, comm.rank, trace=self.trace,
            sample=self.trace_sample, buffer_size=self.trace_buffer,
        )

    def trace_path(self) -> Path | None:
        """Where the Chrome trace-event JSON lands (``None`` in-memory)."""
        if self.directory is None:
            return None
        return self.directory / f"trace-{self.run_id}.json"

    def events_path(self) -> Path | None:
        """Where the merged event stream lands (``None`` in-memory)."""
        if self.directory is None:
            return None
        return self.directory / "events-merged.jsonl"

    def absorb(self, extras: list) -> None:
        """Add the event records of the ranks' *extras* to the stream."""
        for extra in extras:
            self.events.records.extend(extra.get("events") or ())

    def merge_events(self) -> list[dict]:
        """The run's event stream, ordered by ``(ts, rank, seq)``; also
        written to :meth:`events_path` when the session has a directory."""
        return merge_event_logs(self.events.records, self.events_path())

    def event_stats(self) -> dict:
        """The run report's ``events`` section (writes the stream)."""
        path = self.events_path()
        return {
            "count": len(self.merge_events()),
            "path": None if path is None else str(path),
        }

    def report_path(self) -> Path | None:
        if self.directory is None:
            return None
        return self.directory / f"report-{self.run_id}.json"

    def finish(self, result, extras: list, *, config: dict, steps: int,
               wall: float, fault_plan=None) -> None:
        """Merge the ranks' :meth:`RankTelemetry.finish` records into
        *result* (``timing``, ``counters``, ``spans``, ``trace_path``,
        ``report``) and their events into the stream, and write the
        stream, run report and Chrome trace when the session has a
        directory.  *config* is the run's configuration record; its
        ``shape`` and ``n_ranks`` size the report.
        """
        from repro.telemetry.report import build_run_report, write_run_report

        extras = [extra or {} for extra in extras]
        self.absorb(extras)
        result.timing = merge_rank_trees([e["tree"] for e in extras])
        counters: dict = {}
        for extra in extras:
            for name, value in extra.get("counters", {}).items():
                if name.startswith("mlups"):
                    counters[name] = max(counters.get(name, 0.0), value)
                else:
                    counters[name] = counters.get(name, 0) + value
        result.counters = counters

        cells = math.prod(config["shape"])
        tracing_stats = None
        traced = [e for e in extras if e.get("spans") is not None]
        if traced:
            from repro.telemetry.spans import tracing_section
            from repro.telemetry.tracing import write_chrome_trace

            spans = [s for e in traced for s in e["spans"]]
            tracing_stats = tracing_section(
                spans, [e["trace_stats"] for e in traced]
            )
            result.spans = spans
            trace_path = self.trace_path()
            if trace_path is not None:
                result.trace_path = write_chrome_trace(trace_path, spans)
                logger.info("chrome trace written to %s", result.trace_path)
        result.report = build_run_report(
            run_id=self.run_id,
            config=config,
            grid_shape=config["shape"],
            n_ranks=config["n_ranks"],
            steps=steps,
            wall_seconds=wall,
            mlups=steps * cells / wall / 1.0e6 if wall > 0 else 0.0,
            timings=result.timing,
            counters=counters,
            event_stats=self.event_stats(),
            fault_stats=None if fault_plan is None else fault_plan.summary(),
            tracing_stats=tracing_stats,
        )
        path = self.report_path()
        if path is not None:
            write_run_report(path, result.report)
            logger.info("run report written to %s", path)


class RankTelemetry:
    """What one rank records during one call of a telemetry-enabled run.

    Opening it starts the rank's :class:`TimingTree` (with a span tracer
    when tracing is on), event log, :class:`MetricsRegistry` and
    :class:`Heartbeat`, and emits ``run_start``.  :attr:`before_step` and
    :attr:`after_step` are the step hooks ``(step, time)`` it needs: the
    whole-step span (tracing only) and the heartbeat.  The call then
    ends in :meth:`finish` — counters, ``run_end`` and the rank's
    records — or in :meth:`fail`.  Neither calls on the communicator.
    """

    def __init__(self, telemetry: RunTelemetry, comm, *, steps: int,
                 step0: int, blocks: int, cells: int):
        self.comm = comm
        self.tree = TimingTree(tracer=telemetry.open_tracer(comm))
        self.tracer = self.tree.tracer
        self.events = EventLog(comm.rank)
        self.registry = MetricsRegistry()
        self.heartbeat = Heartbeat(
            self.registry, cells_per_step=cells,
            every=telemetry.heartbeat_every, events=self.events,
        )
        self._transport0 = None
        self._step_began = 0.0
        # Whole-step spans go to the tracer only (not the tree), so the
        # aggregated breakdown keeps its shape; per-rank step totals are
        # the imbalance signal of the report's "tracing" section.
        spans = self.tracer is not None
        self.before_step = [self._span_start] if spans else []
        self.after_step = [self._span_end] if spans else []
        self.after_step.append(self._heartbeat)
        self.events.emit(
            "run_start", steps=steps, step0=step0, blocks=blocks, cells=cells,
        )

    def _span_start(self, step: int, t: float) -> None:
        self._step_began = time.perf_counter()

    def _span_end(self, step: int, t: float) -> None:
        self.tracer.record(
            "step", self._step_began, time.perf_counter(), step=step
        )

    def _heartbeat(self, step: int, t: float) -> None:
        self.heartbeat.sample(global_step=step)

    def loop_started(self) -> None:
        """Snapshot the transport counters (process backend): what
        :meth:`finish` reports is the step loop's steady-state control
        traffic, set-up and initial exchanges excluded."""
        if hasattr(self.comm, "transport_counters"):
            self._transport0 = self.comm.transport_counters()

    def fail(self, exc: BaseException) -> list[dict]:
        """Log ``rank_failed``; the rank's event records, for the caller."""
        self.events.emit("rank_failed", "ERROR", error=repr(exc))
        return self.events.records

    def finish(self, steps: int, exchanges: dict) -> dict:
        """End the call: the rank's ``extra`` record for
        :meth:`RunTelemetry.finish`.

        *exchanges* maps a field name to the
        :class:`~repro.distributed.halo.ExchangeTimer` of its ghost
        exchanges.
        """
        comm, registry, events = self.comm, self.registry, self.events
        timers = list(exchanges.values())
        registry.counter("halo_bytes").add(sum(t.bytes for t in timers))
        registry.counter("halo_messages").add(sum(t.messages for t in timers))
        if self._transport0 is not None:
            # zeros on the thread backend, so report shapes agree
            before, after = self._transport0, comm.transport_counters()
            registry.counter("pipe_messages").add(
                after["pipe_messages"] - before["pipe_messages"])
        events.emit(
            "run_end",
            steps_done=steps,
            comm_seconds=sum(t.seconds for t in timers),
            **{f"exchange_{name}": t.stats() for name, t in exchanges.items()},
        )
        spans = trace_stats = None
        if self.tracer is not None:
            spans, trace_stats = self.tracer.drain(), self.tracer.stats()
        return {
            "tree": self.tree.to_dict(),
            "counters": registry.snapshot(),
            "events": events.records,
            "spans": spans,
            "trace_stats": trace_stats,
        }
