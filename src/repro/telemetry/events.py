"""Structured run events as JSON lines.

Every notable runtime occurrence — step progress, guard trips, fault
injections, checkpoint writes, campaign relaunches — is recorded as
one self-describing JSON object.  Each simulated rank records its own
events in memory during a call and returns them with the call's result
(or, when the call fails, on the rank's exception), so no file or lock
crosses rank boundaries.  The caller's
:class:`~repro.telemetry.session.RunTelemetry` keeps the run's one
stream, merged time-ordered and written as ``events-merged.jsonl``,
one JSON object per line, when the session has a directory.

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
    ``restart``, ...),
``data``
    kind-specific payload object.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "EventLog",
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
    """Append-only in-memory event sink of one rank.

    Events accumulate in :attr:`records`, plain dicts that travel with a
    call's result.  Thread-safe: one lock guards the sequence counter and
    the append.
    """

    def __init__(self, rank: int = 0):
        self.rank = int(rank)
        self.records: list[dict] = []
        self._seq = 0
        self._lock = threading.Lock()

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
        return record

    def count(self, kind: str | None = None) -> int:
        """Number of recorded events (optionally of one *kind*)."""
        if kind is None:
            return len(self.records)
        return sum(1 for r in self.records if r["kind"] == kind)


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


def merge_event_logs(records, path=None) -> list[dict]:
    """Order event *records* of any ranks into one stream.

    Records are ordered by ``(ts, rank, seq)`` — wall-clock first, with
    the deterministic per-rank sequence breaking ties.  With a *path*,
    the stream is also written there as JSON lines.  Returns the merged
    list.
    """
    merged = sorted(records, key=lambda r: (r["ts"], r["rank"], r["seq"]))
    if path is not None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for record in merged:
                fh.write(json.dumps(record) + "\n")
    return merged
