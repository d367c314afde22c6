"""In-memory spans of the benchmark's own calls into each layer.

The driver records one span around every call it makes into a layer of
the program (construct, warm-up, segment, verify, each micro-measurement,
each ``run_spmd`` harness).  Spans live in a list until the workload
ends; nothing is written while anything is being timed.  Spans *inside*
the program are a later change — these bracket it from outside.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path


class SpanRecorder:
    """Nested spans on the ``perf_counter`` clock of one process."""

    def __init__(self, workload: str, enabled: bool = True) -> None:
        self.workload = workload
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, segment: int | None = None):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "segment": segment,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def self_times(spans: list[dict]) -> dict[str, dict]:
    """Per span name: call count, total and self seconds.

    A span's self time is its duration minus the part its child spans
    cover; children of one parent run one after another here, so that
    part is the sum of their durations.
    """
    child_total = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_total[s["parent"]] += s["end"] - s["start"]
    out: dict[str, dict] = {}
    for i, s in enumerate(spans):
        dur = s["end"] - s["start"]
        row = out.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child_total[i]
    return out


def write_json(path: Path, obj, indent: int | None = None) -> None:
    """Write *obj* as JSON (temp file then rename)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(obj, indent=indent))
    os.replace(tmp, path)
