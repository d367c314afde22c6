"""Run reports: build, validate, persist, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.telemetry.report import (
    RUN_REPORT_SCHEMA,
    RUN_REPORT_VERSION,
    build_run_report,
    config_hash,
    load_run_report,
    summarize_run_report,
    validate_run_report,
    write_run_report,
)

CONFIG = {"shape": [8, 8, 16], "kernel": "buffered", "n_ranks": 2}


def make_report(**overrides):
    kwargs = dict(
        run_id="t1",
        config=CONFIG,
        grid_shape=(8, 8, 16),
        n_ranks=2,
        steps=5,
        wall_seconds=1.25,
        mlups=0.42,
        created=1_700_000_000.0,
    )
    kwargs.update(overrides)
    return build_run_report(**kwargs)


class TestBuildAndValidate:
    def test_minimal_report_is_valid(self):
        report = make_report()
        validate_run_report(report)
        assert report["version"] == RUN_REPORT_VERSION
        assert report["grid"] == {"shape": [8, 8, 16], "cells": 1024}
        assert report["guards"] == {
            "rollbacks": 0, "restarts": 0, "violations": [],
        }
        assert report["faults"] == {"fired": [], "pending": 0}

    def test_schema_doc_covers_required_keys(self):
        required = set(RUN_REPORT_SCHEMA["required"])
        assert required <= set(make_report())

    def test_config_hash_matches_config(self):
        report = make_report()
        assert report["config_hash"] == config_hash(CONFIG)
        tampered = dict(report, config={**CONFIG, "kernel": "basic"})
        with pytest.raises(ValueError, match="config_hash"):
            validate_run_report(tampered)

    def test_config_hash_key_order_independent(self):
        a = {"x": 1, "y": [1, 2]}
        b = {"y": [1, 2], "x": 1}
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash({"x": 2, "y": [1, 2]})

    def test_validate_rejects_missing_and_wrong(self):
        report = make_report()
        broken = {k: v for k, v in report.items() if k != "mlups"}
        with pytest.raises(ValueError):
            validate_run_report(broken)
        with pytest.raises(ValueError):
            validate_run_report(dict(report, schema="something.else"))
        with pytest.raises(ValueError):
            validate_run_report(dict(report, version=RUN_REPORT_VERSION + 1))

    def test_optional_sections(self):
        report = make_report(
            timings={"name": "", "count": 0, "total": 0.0, "call_min": 0.0,
                     "call_max": 0.0, "rank_min": 0.0, "rank_max": 0.0,
                     "rank_avg": 0.0, "n_ranks": 2, "children": {}},
            counters={"cells_updated": 5120},
            guard_stats={"restarts": 2},
            series={"ladder": {"basic": 1.0}},
        )
        validate_run_report(report)
        assert report["guards"]["restarts"] == 2
        assert report["guards"]["rollbacks"] == 0  # defaults survive merge
        assert report["series"]["ladder"]["basic"] == 1.0


class TestPersistence:
    def test_write_load_round_trip(self, tmp_path):
        report = make_report()
        path = tmp_path / "report.json"
        write_run_report(path, report)
        again = load_run_report(path)
        assert again == report

    def test_load_validates(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "repro.run_report"}))
        with pytest.raises(ValueError):
            load_run_report(path)

    def test_deterministic_bytes_under_fixed_created(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_run_report(a, make_report())
        write_run_report(b, make_report())
        assert a.read_bytes() == b.read_bytes()

    def test_cli_validates(self, tmp_path, capsys):
        from repro.telemetry.report import _main

        path = tmp_path / "r.json"
        write_run_report(path, make_report())
        assert _main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "t1" in out

        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert _main([str(bad)]) == 1

    def test_cli_module_validates_committed_reports(self):
        # `python -m repro.telemetry.report` must run the module once:
        # importing the package may not pre-load it, or runpy warns and
        # the module (with its schema) exists twice
        root = Path(__file__).resolve().parent.parent
        files = sorted((root / "benchmarks" / "results").glob("BENCH_*.json"))
        assert files
        src = str(root / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-m", "repro.telemetry.report", *map(str, files)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        ok = [line for line in done.stdout.splitlines()
              if line.startswith("ok ")]
        assert len(ok) == len(files)
        for path in files:
            assert any(str(path) in line for line in ok)


TRACING = {
    "spans": 40,
    "overlap": {"exchange_seconds": 0.02, "hidden_seconds": 0.015,
                "efficiency": 0.75},
    "imbalance": {"per_rank": {"0": {"seconds": 0.1, "spans": 5},
                               "1": {"seconds": 0.12, "spans": 5}},
                  "max": 0.12, "min": 0.1, "avg": 0.11,
                  "stddev": 0.01, "ratio": 1.09},
}


class TestTracingSection:
    def test_tracing_stats_merge_and_validate(self):
        report = make_report(tracing_stats=TRACING)
        validate_run_report(report)
        tracing = report["tracing"]
        assert tracing["enabled"] is True
        assert tracing["dropped"] == 0  # default survives the merge
        assert tracing["pipe_latency"] is None
        assert tracing["overlap"]["efficiency"] == 0.75

    def test_absent_by_default(self):
        assert "tracing" not in make_report()

    def test_validate_rejects_broken_tracing(self):
        report = make_report(tracing_stats=TRACING)
        for mutate in (
            lambda t: t.update(spans=-1),
            lambda t: t.update(enabled="yes"),
            lambda t: t["overlap"].update(efficiency=1.5),
            lambda t: t["overlap"].pop("hidden_seconds"),
            lambda t: t.update(pipe_latency=[1, 2]),
            lambda t: t["imbalance"].update(ratio=-0.1),
        ):
            broken = json.loads(json.dumps(report))
            mutate(broken["tracing"])
            with pytest.raises(ValueError, match="tracing"):
                validate_run_report(broken)


class TestSummary:
    def _full_report(self):
        return make_report(
            timings={
                "name": "", "count": 0, "total": 0.0, "call_min": 0.0,
                "call_max": 0.0, "rank_min": 0.0, "rank_max": 0.0,
                "rank_avg": 0.0, "n_ranks": 2,
                "children": {
                    "compute": {
                        "name": "compute", "count": 10, "total": 2.0,
                        "call_min": 0.1, "call_max": 0.3,
                        "rank_min": 0.9, "rank_max": 1.1, "rank_avg": 1.0,
                        "n_ranks": 2, "children": {},
                    },
                    "comm": {
                        "name": "comm", "count": 10, "total": 0.5,
                        "call_min": 0.01, "call_max": 0.1,
                        "rank_min": 0.2, "rank_max": 0.3, "rank_avg": 0.25,
                        "n_ranks": 2, "children": {},
                    },
                },
            },
            counters={"cells_updated": 5120, "mlups": 0.42},
            tracing_stats=TRACING,
        )

    def test_summary_lines(self):
        lines = summarize_run_report(self._full_report())
        text = "\n".join(lines)
        assert "run t1" in lines[0] and "ranks 2" in lines[0]
        # scopes sorted by total: compute before comm
        assert text.index("compute") < text.index("comm")
        assert "cells_updated" in text
        assert "overlap efficiency 0.750" in text
        assert "step imbalance 1.09x" in text

    def test_summary_minimal_report(self):
        # no timings/counters/optional sections: header + guards + faults
        lines = summarize_run_report(make_report())
        assert len(lines) == 3
        assert "tracing" not in "\n".join(lines)

    def test_cli_summary_mode(self, tmp_path, capsys):
        from repro.telemetry.report import _main

        path = tmp_path / "r.json"
        write_run_report(path, self._full_report())
        assert _main(["--summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "timing scopes" in out
        assert "overlap efficiency" in out
        assert "ok   " not in out  # summary replaces the ok-line

        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert _main(["--summary", str(bad)]) == 1
