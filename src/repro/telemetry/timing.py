"""Hierarchical timing trees (waLBerla style).

waLBerla times every sweep and ghost-exchange functor through a
``TimingTree``: named scopes accumulate call count, total, min and max
wall time, nested scopes form a tree, and the per-process trees are
reduced across all MPI ranks into one breakdown —
the data behind the paper's Fig. 8 "time spent in communication"
measurement on up to 262,144 cores.  This module reproduces that
substrate for the simulated runtime:

* :class:`TimerStats` — count / total / min / max accumulator,
* :class:`TimingTree` — nested named scopes (``with tree.scope("phi")``).

Each rank returns its tree's :meth:`TimingTree.to_dict` with its call's
result; :mod:`repro.telemetry.reduce` merges the returned trees.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["TimerStats", "TimingNode", "TimingTree"]


@dataclass
class TimerStats:
    """Accumulated statistics of one named timer."""

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = 0.0

    def record(self, seconds: float) -> None:
        """Add one measured duration."""
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    @property
    def avg(self) -> float:
        """Mean seconds per call (0 when never called)."""
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "TimerStats") -> None:
        """Fold another accumulator of the *same* timer into this one."""
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "avg": self.avg,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TimerStats":
        stats = cls(
            count=int(d["count"]), total=float(d["total"]),
            max=float(d["max"]),
        )
        stats.min = float(d["min"]) if stats.count else float("inf")
        return stats


@dataclass
class TimingNode:
    """One scope of a :class:`TimingTree`."""

    name: str
    stats: TimerStats = field(default_factory=TimerStats)
    children: dict = field(default_factory=dict)

    def child(self, name: str) -> "TimingNode":
        node = self.children.get(name)
        if node is None:
            node = TimingNode(name)
            self.children[name] = node
        return node

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            **self.stats.to_dict(),
            "children": {k: v.to_dict() for k, v in self.children.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TimingNode":
        node = cls(name=d.get("name", ""), stats=TimerStats.from_dict(d))
        node.children = {
            k: cls.from_dict(v) for k, v in d.get("children", {}).items()
        }
        return node

    def merge(self, other: "TimingNode") -> None:
        """Recursively fold *other* (same scope name) into this node."""
        self.stats.merge(other.stats)
        for name, child in other.children.items():
            self.child(name).merge(child)


class TimingTree:
    """Nested named timing scopes with min/avg/max/count accumulators.

    Scopes open with :meth:`start` / close with :meth:`stop` (or the
    :meth:`scope` context manager); a scope started while another is open
    becomes its child, so repeated step loops build a stable tree whose
    totals are the per-functor breakdown of the run.  Externally measured
    durations enter through :meth:`record` — this is what the step's
    sweeps, exchanges and guard use.

    An optional :class:`~repro.telemetry.tracing.SpanRecorder` attached
    as *tracer* additionally receives every completed scope as a
    timestamped span (full ``/``-path, start and end), feeding the
    Chrome-trace timeline export.  With ``tracer=None`` (the default)
    the only added cost per measurement is one attribute check, keeping
    the untraced hot path at its pre-tracing speed.
    """

    def __init__(self, tracer=None) -> None:
        self.root = TimingNode("")
        self._stack: list[tuple[TimingNode, float]] = []
        self.tracer = tracer

    # -- scope management -------------------------------------------------

    @property
    def _current(self) -> TimingNode:
        return self._stack[-1][0] if self._stack else self.root

    def start(self, name: str) -> None:
        """Open a child scope of the currently open scope."""
        node = self._current.child(name)
        self._stack.append((node, time.perf_counter()))

    def stop(self, name: str | None = None) -> float:
        """Close the innermost scope; returns its measured seconds."""
        if not self._stack:
            raise RuntimeError("no timing scope is open")
        node, t0 = self._stack.pop()
        if name is not None and node.name != name:
            self._stack.append((node, t0))
            raise RuntimeError(
                f"scope mismatch: open scope is {node.name!r}, "
                f"stop({name!r}) requested"
            )
        now = time.perf_counter()
        dt = now - t0
        node.stats.record(dt)
        if self.tracer is not None:
            path = "/".join(
                [n.name for n, _ in self._stack] + [node.name]
            )
            self.tracer.record(path, t0, now)
        return dt

    @contextmanager
    def scope(self, name: str):
        """``with tree.scope("phi_sweep"): ...`` — timed nested scope."""
        self.start(name)
        try:
            yield self
        finally:
            self.stop(name)

    def time_call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a scope; returns its result."""
        with self.scope(name):
            return fn(*args, **kwargs)

    def record(self, path: str | tuple, seconds: float, *,
               span_args: dict | None = None) -> None:
        """Add an externally measured duration under *path*.

        *path* is a scope name or a ``/``-separated chain, always
        resolved **from the root** (independent of any open scopes), so
        instrumentation scattered across helpers lands at stable paths,
        e.g. ``"comm/phi"``.  *span_args* annotates the traced span
        (bytes moved, step index, ...) when a tracer is attached; the
        aggregated tree ignores it.
        """
        parts = path.split("/") if isinstance(path, str) else list(path)
        node = self.root
        for part in parts:
            node = node.child(part)
        node.stats.record(seconds)
        if self.tracer is not None:
            self.tracer.record_duration(
                "/".join(parts), seconds, **(span_args or {})
            )

    # -- queries ----------------------------------------------------------

    def node(self, path: str) -> TimingNode:
        """Look up a node by ``/``-separated path from the root."""
        node = self.root
        for part in path.split("/"):
            if part not in node.children:
                raise KeyError(f"no timing scope at {path!r}")
            node = node.children[part]
        return node

    def __contains__(self, path: str) -> bool:
        try:
            self.node(path)
            return True
        except KeyError:
            return False

    def flatten(self) -> dict[str, TimerStats]:
        """``path -> TimerStats`` for every scope, depth-first."""
        out: dict[str, TimerStats] = {}

        def walk(node: TimingNode, prefix: str) -> None:
            for name, child in node.children.items():
                path = f"{prefix}/{name}" if prefix else name
                out[path] = child.stats
                walk(child, path)

        walk(self.root, "")
        return out

    def to_dict(self) -> dict:
        """JSON-serializable nested representation."""
        return self.root.to_dict()

    @classmethod
    def from_dict(cls, d: dict) -> "TimingTree":
        tree = cls()
        tree.root = TimingNode.from_dict(d)
        return tree

    def merge(self, other: "TimingTree") -> None:
        """Fold another tree (e.g. a later run) into this one."""
        self.root.merge(other.root)

    def reset(self) -> None:
        """Drop all accumulated scopes (open scopes must be closed)."""
        if self._stack:
            raise RuntimeError("cannot reset while scopes are open")
        self.root = TimingNode("")

