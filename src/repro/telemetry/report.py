"""Machine-readable run reports (versioned JSON performance summaries).

The paper compares configurations through standardized throughput numbers
(MLUP/s per figure, per machine); phase-field benchmarking follow-ups
compare *codes* the same way.  A :data:`RUN_REPORT_VERSION` JSON document
is this repo's interchange format: every benchmark and every telemetry-
enabled run emits one, and the CI pipeline archives them as the
performance trajectory (``BENCH_*.json``).

A report is built with :func:`build_run_report`, checked with
:func:`validate_run_report` (a pure-stdlib walk of the JSON-Schema
document :data:`RUN_REPORT_SCHEMA`, which external tooling can use as
it is) and persisted with :func:`write_run_report`.
``python -m repro.telemetry.report FILE...`` validates existing reports,
e.g. in CI.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from pathlib import Path

__all__ = [
    "RUN_REPORT_VERSION",
    "RUN_REPORT_SCHEMA",
    "config_hash",
    "build_run_report",
    "validate_run_report",
    "write_run_report",
    "load_run_report",
    "summarize_run_report",
]

RUN_REPORT_VERSION = 1

_SCHEMA_NAME = "repro.run_report"

#: JSON-Schema document of the report format: what
#: :func:`validate_run_report` checks, and what external validators read.
RUN_REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "repro run report",
    "type": "object",
    "required": [
        "schema", "version", "run_id", "created", "config", "config_hash",
        "grid", "ranks", "steps", "wall_seconds", "mlups", "timings",
        "counters", "guards", "faults", "events",
    ],
    "properties": {
        "schema": {"const": _SCHEMA_NAME},
        "version": {"const": RUN_REPORT_VERSION},
        "run_id": {"type": "string", "minLength": 1},
        "created": {"type": "number"},
        "config": {"type": "object"},
        "config_hash": {"type": "string", "pattern": "^[0-9a-f]{12}$"},
        "grid": {
            "type": "object",
            "required": ["shape", "cells"],
            "properties": {
                "shape": {"type": "array", "items": {"type": "integer"}},
                "cells": {"type": "integer", "minimum": 0},
            },
        },
        "ranks": {"type": "integer", "minimum": 1},
        "steps": {"type": "integer", "minimum": 0},
        "wall_seconds": {"type": "number", "minimum": 0},
        "mlups": {"type": "number", "minimum": 0},
        "timings": {"type": ["object", "null"]},
        "counters": {"type": "object"},
        "guards": {
            "type": "object",
            "required": ["rollbacks", "restarts", "violations"],
        },
        "faults": {
            "type": "object",
            "required": ["fired", "pending"],
        },
        "events": {
            "type": "object",
            "required": ["count", "path"],
        },
        "elastic": {
            "type": "object",
            "required": [
                "rank_failures", "shrinks", "final_ranks",
                "io_retries", "checkpoints_skipped",
            ],
            "properties": {
                "rank_failures": {"type": "integer", "minimum": 0},
                "shrinks": {"type": "integer", "minimum": 0},
                "final_ranks": {"type": "integer", "minimum": 1},
                "io_retries": {"type": "integer", "minimum": 0},
                "checkpoints_skipped": {"type": "integer", "minimum": 0},
            },
        },
        "liveness": {
            "type": "object",
            "required": [
                "hangs_detected", "stalls_injected",
                "deadlines_enabled", "watchdog_enabled",
            ],
            "properties": {
                "hangs_detected": {"type": "integer", "minimum": 0},
                "stalls_injected": {"type": "integer", "minimum": 0},
                "deadlines_enabled": {"type": "boolean"},
                "watchdog_enabled": {"type": "boolean"},
            },
        },
        "tracing": {
            "type": "object",
            "required": ["enabled", "spans", "dropped", "overlap",
                         "imbalance"],
            "properties": {
                "enabled": {"type": "boolean"},
                "spans": {"type": "integer", "minimum": 0},
                "dropped": {"type": "integer", "minimum": 0},
                "overlap": {
                    "type": "object",
                    "required": ["exchange_seconds", "hidden_seconds",
                                 "efficiency"],
                    "properties": {
                        "exchange_seconds": {"type": "number", "minimum": 0},
                        "hidden_seconds": {"type": "number", "minimum": 0},
                        "efficiency": {"type": "number", "minimum": 0,
                                       "maximum": 1},
                    },
                },
                "imbalance": {
                    "type": "object",
                    "required": ["per_rank", "max", "avg", "stddev",
                                 "ratio"],
                    "properties": {
                        "per_rank": {"type": "object"},
                        "max": {"type": "number", "minimum": 0},
                        "avg": {"type": "number", "minimum": 0},
                        "stddev": {"type": "number", "minimum": 0},
                        "ratio": {"type": "number", "minimum": 0},
                    },
                },
                "pipe_latency": {"type": ["object", "null"]},
            },
        },
        "series": {"type": "object"},
    },
}


def config_hash(config: dict) -> str:
    """Short stable hash of a JSON-serializable configuration dict.

    Canonical JSON (sorted keys, no whitespace variation) hashed with
    SHA-256 and truncated to 12 hex digits — enough to tell two run
    configurations apart in a trajectory of reports.
    """
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def build_run_report(
    *,
    run_id: str,
    config: dict,
    grid_shape,
    n_ranks: int,
    steps: int,
    wall_seconds: float,
    mlups: float,
    timings: dict | None = None,
    counters: dict | None = None,
    guard_stats: dict | None = None,
    fault_stats: dict | None = None,
    event_stats: dict | None = None,
    elastic_stats: dict | None = None,
    liveness_stats: dict | None = None,
    tracing_stats: dict | None = None,
    series: dict | None = None,
    created: float | None = None,
) -> dict:
    """Assemble a schema-valid run report dict.

    *timings* is a merged reduced timing tree
    (:mod:`repro.telemetry.reduce`); *series* carries optional figure data (e.g. the Fig. 6 ladder table).
    *elastic_stats* — rank-failure/shrink/I-O-retry accounting from a
    campaign — adds the optional ``elastic`` section.
    *liveness_stats* — hang-detection and degradation accounting from
    the deadline/watchdog layer — adds the optional ``liveness``
    section.  *tracing_stats* — the span-derived overlap / imbalance /
    pipe-latency analyses of :func:`repro.telemetry.spans.tracing_section`
    — adds the optional ``tracing`` section.  *created* defaults to the
    current time — pass a fixed value for byte-reproducible reports.
    """
    shape = [int(s) for s in grid_shape]
    cells = 1
    for s in shape:
        cells *= s
    report = {
        "schema": _SCHEMA_NAME,
        "version": RUN_REPORT_VERSION,
        "run_id": str(run_id),
        "created": time.time() if created is None else float(created),
        "config": config,
        "config_hash": config_hash(config),
        "grid": {"shape": shape, "cells": cells},
        "ranks": int(n_ranks),
        "steps": int(steps),
        "wall_seconds": float(wall_seconds),
        "mlups": float(mlups),
        "timings": timings,
        "counters": counters or {},
        "guards": {
            "rollbacks": 0, "restarts": 0, "violations": [],
            **(guard_stats or {}),
        },
        "faults": {"fired": [], "pending": 0, **(fault_stats or {})},
        "events": {"count": 0, "path": None, **(event_stats or {})},
    }
    if elastic_stats is not None:
        report["elastic"] = {
            "rank_failures": 0, "shrinks": 0, "final_ranks": int(n_ranks),
            "io_retries": 0, "checkpoints_skipped": 0, **elastic_stats,
        }
    if liveness_stats is not None:
        report["liveness"] = {
            "hangs_detected": 0, "stalls_injected": 0,
            "deadlines_enabled": False, "watchdog_enabled": False,
            **liveness_stats,
        }
    if tracing_stats is not None:
        report["tracing"] = {
            "enabled": True, "spans": 0, "dropped": 0,
            "overlap": {"exchange_seconds": 0.0, "hidden_seconds": 0.0,
                        "efficiency": 0.0},
            "imbalance": {"per_rank": {}, "max": 0.0, "min": 0.0,
                          "avg": 0.0, "stddev": 0.0, "ratio": 0.0},
            "pipe_latency": None,
            **tracing_stats,
        }
    if series is not None:
        report["series"] = series
    validate_run_report(report)
    return report


#: JSON-Schema ``type`` names and the Python values they admit.
_TYPES = {
    "object": dict, "array": list, "string": str, "boolean": bool,
    "null": type(None), "integer": int, "number": (int, float),
}


def _is_type(value, name: str) -> bool:
    if isinstance(value, bool):
        return name == "boolean"
    return isinstance(value, _TYPES[name])


def _check(value, schema: dict, path: str) -> None:
    """Walk *value* against *schema* (the keywords
    :data:`RUN_REPORT_SCHEMA` uses); *path* names it in errors."""

    def require(cond: bool, msg: str) -> None:
        if not cond:
            raise ValueError(f"invalid run report: {path} {msg}")

    types = schema.get("type")
    if types is not None:
        types = [types] if isinstance(types, str) else types
        require(any(_is_type(value, t) for t in types),
                f"must be {' or '.join(types)}")
    if "const" in schema:
        require(value == schema["const"],
                f"is {value!r}, expected {schema['const']!r}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            require(key in value, f"misses key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                _check(value[key], sub, f"{path}.{key}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _check(item, schema["items"], f"{path}[{i}]")
    if _is_type(value, "number"):
        if "minimum" in schema:
            require(value >= schema["minimum"],
                    f"must be >= {schema['minimum']}")
        if "maximum" in schema:
            require(value <= schema["maximum"],
                    f"must be <= {schema['maximum']}")
    if isinstance(value, str):
        require(len(value) >= schema.get("minLength", 0),
                f"must have at least {schema.get('minLength')} characters")
        if "pattern" in schema:
            require(re.search(schema["pattern"], value) is not None,
                    f"must match {schema['pattern']!r}")


def validate_run_report(report: dict) -> None:
    """Raise :class:`ValueError` unless *report* matches the v1 schema.

    Walks :data:`RUN_REPORT_SCHEMA` in pure stdlib, so the library and
    CI validate without ``jsonschema`` installed; the one rule outside
    the schema is that ``config_hash`` is the hash of ``config``.
    """
    _check(report, RUN_REPORT_SCHEMA, "report")
    if report["config_hash"] != config_hash(report["config"]):
        raise ValueError(
            "invalid run report: config_hash does not match config"
        )


def write_run_report(path, report: dict) -> Path:
    """Validate and persist a report (atomic temp-file + rename)."""
    validate_run_report(report)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return path


def load_run_report(path) -> dict:
    """Read and validate a report file."""
    report = json.loads(Path(path).read_text())
    validate_run_report(report)
    return report


def _flatten_timings(timings: dict) -> list[tuple[str, dict]]:
    """``(path, stats)`` rows of a cross-rank-reduced timing tree."""
    rows: list[tuple[str, dict]] = []

    def walk(node: dict, prefix: str) -> None:
        for name, child in node.get("children", {}).items():
            path = f"{prefix}/{name}" if prefix else name
            rows.append((path, child))
            walk(child, path)

    walk(timings, "")
    return rows


def summarize_run_report(report: dict) -> list[str]:
    """Human-readable summary lines of a validated run report.

    Top timing scopes by total seconds (with per-rank imbalance when the
    reduced tree carries it), counters, and one line per optional
    section (guards / faults / elastic / liveness / tracing) — the
    ``--summary`` mode of the CLI.
    """
    lines = [
        f"run {report['run_id']}  config {report['config_hash']}  "
        f"ranks {report['ranks']}  steps {report['steps']}  "
        f"mlups {report['mlups']:.3f}  wall {report['wall_seconds']:.3f}s",
    ]
    timings = report.get("timings")
    if timings:
        rows = sorted(
            _flatten_timings(timings),
            key=lambda r: -float(r[1].get("total", 0.0)),
        )
        lines.append("timing scopes (top by total seconds):")
        lines.append(
            f"  {'scope':<28}{'count':>8}{'total':>10}{'avg':>10}"
            f"{'rank max/avg':>14}"
        )
        for path, stats in rows[:12]:
            count = int(stats.get("count", stats.get("calls", 0)))
            total = float(stats.get("total", 0.0))
            avg = total / count if count else 0.0
            rank_avg = float(stats.get("rank_avg", 0.0))
            skew = (
                f"{float(stats.get('rank_max', 0.0)) / rank_avg:>13.2f}x"
                if rank_avg > 0 else f"{'-':>14}"
            )
            lines.append(
                f"  {path:<28}{count:>8}{total:>10.4f}{avg:>10.6f}{skew}"
            )
    counters = report.get("counters") or {}
    if counters:
        lines.append("counters:")
        for name in sorted(counters):
            value = counters[name]
            shown = f"{value:.3f}" if isinstance(value, float) else str(value)
            lines.append(f"  {name:<28}{shown:>16}")
    guards = report["guards"]
    lines.append(
        f"guards: rollbacks {guards['rollbacks']}  "
        f"restarts {guards['restarts']}  "
        f"violations {len(guards['violations'])}"
    )
    faults = report["faults"]
    lines.append(
        f"faults: fired {len(faults['fired'])}  pending {faults['pending']}"
    )
    if "elastic" in report:
        e = report["elastic"]
        lines.append(
            f"elastic: rank_failures {e['rank_failures']}  "
            f"shrinks {e['shrinks']}  final_ranks {e['final_ranks']}  "
            f"io_retries {e['io_retries']}  "
            f"checkpoints_skipped {e['checkpoints_skipped']}"
        )
    if "liveness" in report:
        lv = report["liveness"]
        lines.append(
            f"liveness: hangs {lv['hangs_detected']}  "
            f"stalls {lv['stalls_injected']}  "
            f"deadlines {'on' if lv['deadlines_enabled'] else 'off'}  "
            f"watchdog {'on' if lv['watchdog_enabled'] else 'off'}"
        )
    if "tracing" in report:
        tr = report["tracing"]
        overlap = tr["overlap"]
        imbalance = tr["imbalance"]
        lines.append(
            f"tracing: spans {tr['spans']}  dropped {tr['dropped']}  "
            f"overlap efficiency {overlap['efficiency']:.3f} "
            f"({overlap['hidden_seconds']:.4f}s of "
            f"{overlap['exchange_seconds']:.4f}s exchange hidden)  "
            f"step imbalance {imbalance['ratio']:.2f}x"
        )
    return lines


def _main(argv: list[str]) -> int:
    summary = False
    files: list[str] = []
    for arg in argv:
        if arg == "--summary":
            summary = True
        elif arg in ("-h", "--help"):
            files = []
            break
        else:
            files.append(arg)
    if not files:
        print("usage: python -m repro.telemetry.report [--summary] "
              "FILE [FILE...]\n"
              "Validate run-report JSON files against schema "
              f"{_SCHEMA_NAME} v{RUN_REPORT_VERSION}; --summary prints a "
              "human-readable table per report instead of one ok-line.")
        return 0 if argv else 2
    failed = 0
    for name in files:
        try:
            report = load_run_report(name)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"FAIL {name}: {exc}")
            failed += 1
        else:
            if summary:
                print(f"=== {name} ===")
                print("\n".join(summarize_run_report(report)))
            else:
                print(f"ok   {name}: run_id={report['run_id']} "
                      f"mlups={report['mlups']:.3f} ranks={report['ranks']}")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(_main(sys.argv[1:]))
