"""Counters, gauges and the per-step heartbeat.

The paper's runs are steered by a handful of live quantities: cells
updated (the MLUP/s numerator), bytes moved through the ghost-layer
exchange, and failure counts.  This module provides the accumulators —
:class:`Counter`, :class:`Gauge`, :class:`RollingRate` — bundled in a
:class:`MetricsRegistry`, plus :class:`Heartbeat`, whose
:meth:`~Heartbeat.sample` a driver registers as a post-step hook so the
registry is updated (and optionally emitted as ``heartbeat`` events)
once per time step without touching the sweeps themselves.
"""

from __future__ import annotations

import threading
import time
from collections import deque

__all__ = [
    "Counter",
    "Gauge",
    "RollingRate",
    "MetricsRegistry",
    "Heartbeat",
]


class Counter:
    """Monotonic accumulator (thread-safe)."""

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def add(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only increase; use a Gauge")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """Last-written value (thread-safe)."""

    def __init__(self) -> None:
        self._value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


class RollingRate:
    """Cell-updates-per-second over a sliding window of samples.

    Each :meth:`sample` records ``(timestamp, cells_done_total)``;
    :meth:`mlups` reads the rate across the window — the live MLUP/s
    readout a long campaign watches for slowdowns (cache pollution,
    shrinking window, sick node).
    """

    def __init__(self, window: int = 32):
        if window < 2:
            raise ValueError("window must hold at least 2 samples")
        self._samples: deque[tuple[float, int]] = deque(maxlen=window)
        self._lock = threading.Lock()

    def sample(self, cells_total: int, *, now: float | None = None) -> None:
        with self._lock:
            self._samples.append(
                (time.perf_counter() if now is None else now, int(cells_total))
            )

    def mlups(self) -> float:
        """Window rate in MLUP/s (0 until the window has nonzero width).

        Zero-width windows are a real occurrence, not a corner case: the
        first sample, two samples landing in the same clock tick (coarse
        timers, injected ``now=`` values), or a heartbeat firing twice
        without measurable progress.  None of them may divide by zero —
        the rate reads over the *earliest sample whose timestamp
        strictly precedes the newest*, and reports 0.0 while the whole
        window is still degenerate.
        """
        with self._lock:
            if len(self._samples) < 2:
                return 0.0
            t1, c1 = self._samples[-1]
            t0 = c0 = None
            for ts, cs in self._samples:
                if ts < t1:
                    t0, c0 = ts, cs
                    break
        if t0 is None or t1 <= t0:
            return 0.0
        return (c1 - c0) / (t1 - t0) / 1.0e6


class MetricsRegistry:
    """Named counters and gauges of one run (plus one rolling rate)."""

    def __init__(self, *, window: int = 32):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self.rate = RollingRate(window=window)
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            c = self._counters.get(name)
            if c is None:
                c = Counter()
                self._counters[name] = c
            return c

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            g = self._gauges.get(name)
            if g is None:
                g = Gauge()
                self._gauges[name] = g
            return g

    def snapshot(self) -> dict:
        """JSON-ready dump of every counter and gauge."""
        with self._lock:
            out = {name: c.value for name, c in self._counters.items()}
            out.update(
                {name: g.value for name, g in self._gauges.items()}
            )
        out["mlups_window"] = self.rate.mlups()
        return out


class Heartbeat:
    """Per-step sampler of a run's progress.

    Every :meth:`sample` advances the ``cells_updated`` counter by
    *cells_per_step*, feeds the rolling MLUP/s window, and (every
    *every*-th call) emits a ``heartbeat`` event with the current
    snapshot.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        cells_per_step: int,
        every: int = 1,
        events=None,
    ):
        if every < 1:
            raise ValueError("every must be >= 1")
        self.registry = registry
        self.cells_per_step = int(cells_per_step)
        self.every = every
        self.events = events
        self._ticks = 0

    def sample(self, **extra) -> None:
        self._ticks += 1
        cells = self.registry.counter("cells_updated")
        cells.add(self.cells_per_step)
        self.registry.rate.sample(cells.value)
        self.registry.gauge("mlups").set(self.registry.rate.mlups())
        if self.events is not None and self._ticks % self.every == 0:
            self.events.emit(
                "heartbeat",
                step=self._ticks,
                cells_updated=cells.value,
                mlups=self.registry.rate.mlups(),
                **extra,
            )
