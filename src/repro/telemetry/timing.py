"""Per-rank timing record (waLBerla ``TimingTree`` style).

waLBerla times every sweep and ghost-exchange functor through a
``TimingTree``: named scopes accumulate call count, total, min and max
wall time, and the per-process trees are reduced across all MPI ranks
into one breakdown — the data behind the paper's Fig. 8 "time spent in
communication" measurement on up to 262,144 cores.  Here one rank's
record of one call is a single bounded list of spans; every view of it
is derived:

* :class:`TimingTree` — :meth:`~TimingTree.record` appends one span per
  measurement; :meth:`~TimingTree.to_dict` folds the spans into the
  per-path count / total / min / max tree, and
  :meth:`~TimingTree.spans` returns them as the timeline of the Chrome
  trace (:mod:`repro.telemetry.tracing`) and the span analyses
  (:mod:`repro.telemetry.spans`).
* :class:`TimerStats` / :class:`TimingNode` — the folded accumulators.

Each rank returns its tree's :meth:`TimingTree.to_dict` with its call's
result; :mod:`repro.telemetry.reduce` merges the returned trees.
"""

from __future__ import annotations

import threading
import time
from collections import namedtuple
from dataclasses import dataclass, field, replace

__all__ = ["CAPACITY", "Span", "TimerStats", "TimingNode", "TimingTree"]

#: Spans a rank keeps.  One more folds the oldest half into the tree's
#: aggregates and counts it as dropped from the timeline, so the tree
#: stays exact for any call length and the newest half is always kept.
CAPACITY = 65536

#: One recorded scope execution.  ``args`` is ``None`` or a small dict of
#: JSON-ready annotations (bytes moved, step index, ...).  Plain
#: namedtuple: pickles compactly into the rank's result.
Span = namedtuple("Span", ["scope", "rank", "tid", "t_start", "t_end", "args"])


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

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "avg": self.avg,
        }


@dataclass
class TimingNode:
    """One scope of a folded :class:`TimingTree`."""

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


class TimingTree:
    """One rank's timing record: a bounded list of spans.

    :meth:`record` is the only writer.  A path is ``/``-separated and
    always resolved from the root (``"comm/phi"``), so instrumentation
    scattered across helpers lands at stable paths.  Side threads (fault
    timers sending under ``comm/pipe/send``) record concurrently with the
    step loop; one lock orders every append, fold and read.
    """

    def __init__(self, rank: int = 0) -> None:
        self.rank = int(rank)
        #: Spans folded out of the timeline on overflow.
        self.dropped = 0
        # (path, thread ident, end, seconds, args) of each kept span
        self._spans: list[tuple] = []
        self._folded: dict[str, TimerStats] = {}
        self._tids: dict[int, int] = {}  # thread ident -> small stable id
        self._lock = threading.Lock()

    def record(self, path: str, seconds: float, **args) -> None:
        """Append one span of *seconds* under *path*, ending now; *args*
        annotate it (bytes moved, step index, ...)."""
        span = (path, threading.get_ident(), time.perf_counter(), seconds,
                args or None)
        with self._lock:
            self._spans.append(span)
            if len(self._spans) > CAPACITY:
                half = len(self._spans) // 2
                for old in self._spans[:half]:
                    stats = self._folded.get(old[0])
                    if stats is None:
                        stats = self._folded[old[0]] = TimerStats()
                    stats.record(old[3])
                del self._spans[:half]
                self.dropped += half

    def spans(self) -> list[Span]:
        """The kept spans (oldest first) as :class:`Span` records."""
        tids = self._tids
        with self._lock:
            return [
                Span(path, self.rank, tids.setdefault(ident, len(tids)),
                     end - seconds, end, args)
                for path, ident, end, seconds, args in self._spans
            ]

    def to_dict(self) -> dict:
        """The tree folded from every record, as nested plain dicts."""
        with self._lock:
            folded = [(p, replace(s)) for p, s in self._folded.items()]
            kept = list(self._spans)
        root = TimingNode("")

        def node(path: str) -> TimingNode:
            at = root
            for part in path.split("/"):
                at = at.child(part)
            return at

        for path, stats in folded:
            node(path).stats = stats
        for path, _tid, _end, seconds, _args in kept:
            node(path).stats.record(seconds)
        return root.to_dict()
