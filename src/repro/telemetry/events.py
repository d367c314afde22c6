"""Structured run events as JSON lines.

Every notable runtime occurrence — step progress, guard trips, fault
injections, checkpoint writes, campaign relaunches — is recorded as
one self-describing JSON object per line.  Each simulated rank writes its
own file (``events-rank0000.jsonl`` ...) so no locking crosses rank
boundaries, and rank 0 merges them into a single time-ordered stream
after the run, mirroring how the paper's production logs are collected
per node and merged by the job system.

Event schema (version ``1``) — every record carries exactly these keys:

``v``
    schema version (int),
``seq``
    per-log monotonically increasing sequence number,
``ts``
    UNIX timestamp (float seconds),
``rank``
    emitting simulated rank,
``level``
    severity name (``DEBUG`` / ``INFO`` / ``WARNING`` / ``ERROR``),
``kind``
    event type (``heartbeat``, ``guard_trip``, ``checkpoint``, ``fault``,
    ``restart``, ``log``, ...),
``data``
    kind-specific payload object.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from pathlib import Path

from repro.telemetry.logsetup import RankTagFilter, current_rank

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "EventLog",
    "EventLogHandler",
    "attach_log_events",
    "read_events",
    "merge_event_logs",
    "validate_event",
]

EVENT_SCHEMA_VERSION = 1

_EVENT_KEYS = ("v", "seq", "ts", "rank", "level", "kind", "data")


def validate_event(record: dict) -> None:
    """Raise :class:`ValueError` unless *record* matches the v1 schema."""
    missing = [k for k in _EVENT_KEYS if k not in record]
    if missing:
        raise ValueError(f"event record lacks keys {missing}: {record}")
    if int(record["v"]) != EVENT_SCHEMA_VERSION:
        raise ValueError(f"unsupported event schema version {record['v']}")
    if not isinstance(record["kind"], str) or not record["kind"]:
        raise ValueError(f"event kind must be a non-empty string: {record}")
    if not isinstance(record["data"], dict):
        raise ValueError(f"event data must be an object: {record}")


class EventLog:
    """Append-only structured event sink (file-backed or in-memory).

    With a *directory*, events stream to
    ``<directory>/events-rank<NNNN>.jsonl`` (line-buffered, one JSON
    object per line); without one, they accumulate in :attr:`records`
    only — useful for tests and for in-process consumers.  Thread-safe:
    one lock guards the sequence counter and the write.
    """

    def __init__(self, directory=None, *, rank: int | None = None):
        self.rank = current_rank() if rank is None else int(rank)
        self.directory = Path(directory) if directory is not None else None
        self.records: list[dict] = []
        self._seq = 0
        self._lock = threading.Lock()
        self._fh = None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self.path = self.directory / f"events-rank{self.rank:04d}.jsonl"
            self._fh = open(self.path, "a", buffering=1)
        else:
            self.path = None

    def emit(self, kind: str, level: str = "INFO", /, **data) -> dict:
        """Record one event; returns the full record."""
        with self._lock:
            record = {
                "v": EVENT_SCHEMA_VERSION,
                "seq": self._seq,
                "ts": time.time(),
                "rank": self.rank,
                "level": level,
                "kind": kind,
                "data": data,
            }
            self._seq += 1
            self.records.append(record)
            if self._fh is not None:
                self._fh.write(json.dumps(record) + "\n")
        return record

    def count(self, kind: str | None = None) -> int:
        """Number of recorded events (optionally of one *kind*)."""
        if kind is None:
            return len(self.records)
        return sum(1 for r in self.records if r["kind"] == kind)

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class EventLogHandler(logging.Handler):
    """Forwards stdlib log records into an :class:`EventLog`.

    Records become ``kind="log"`` events whose payload carries the logger
    name and rendered message, so library modules that only use
    ``logging`` still show up in the structured stream.
    """

    def __init__(self, event_log: EventLog, level: int = logging.INFO):
        super().__init__(level)
        self.event_log = event_log
        self.addFilter(RankTagFilter())

    def emit(self, record: logging.LogRecord) -> None:
        try:
            self.event_log.emit(
                "log",
                record.levelname,
                logger=record.name,
                message=record.getMessage(),
                origin_rank=getattr(record, "rank", 0),
            )
        except Exception:  # pragma: no cover - never break the caller
            self.handleError(record)


def attach_log_events(
    event_log: EventLog,
    *,
    logger: str = "repro",
    level: int = logging.INFO,
) -> EventLogHandler:
    """Capture a logger subtree into *event_log*; returns the handler.

    The caller detaches with ``logging.getLogger(logger).removeHandler``
    (or via :func:`detach`) when the run ends.
    """
    handler = EventLogHandler(event_log, level)
    target = logging.getLogger(logger)
    if target.level == logging.NOTSET or target.level > level:
        target.setLevel(level)
    target.addHandler(handler)
    return handler


def read_events(path) -> list[dict]:
    """Parse one JSON-lines event file, validating every record."""
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            validate_event(record)
            out.append(record)
    return out


def merge_event_logs(directory, *, out_name: str = "events-merged.jsonl") -> list[dict]:
    """Merge all per-rank event files of *directory* into one stream.

    Records are ordered by ``(ts, rank, seq)`` — wall-clock first, with
    the deterministic per-rank sequence breaking ties — and written to
    ``<directory>/<out_name>``.  Returns the merged list.
    """
    directory = Path(directory)
    records: list[dict] = []
    for path in sorted(directory.glob("events-rank*.jsonl")):
        records.extend(read_events(path))
    records.sort(key=lambda r: (r["ts"], r["rank"], r["seq"]))
    if out_name:
        with open(directory / out_name, "w") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
    return records
