"""Perf-regression history: entries, baselines, verdicts, CLI.

ISSUE 8 acceptance: the history CLI ingests the committed
``BENCH_*.json`` reports, writes ``history.jsonl``, and a synthetic 2x
slowdown against an established baseline is flagged as a regression.
"""

import json

import pytest

from repro.perf.history import (
    _main,
    append_history,
    detect_regressions,
    entry_from_report,
    flatten_metrics,
    load_history,
    machine_fingerprint,
)
from repro.telemetry.report import build_run_report, write_run_report


def make_report(mlups=10.0, wall=2.0, run_id="bench-x", smoke=False,
                series=None, created=None, **kwargs):
    report = build_run_report(
        run_id=run_id,
        config={"benchmark": run_id, "smoke": smoke},
        grid_shape=(8, 8, 8),
        n_ranks=1,
        steps=4,
        wall_seconds=wall,
        mlups=mlups,
        series=series,
        **kwargs,
    )
    if created is not None:
        report["created"] = created
    return report


class TestFingerprint:
    def test_stable_and_short(self):
        fp = machine_fingerprint()
        assert fp == machine_fingerprint()
        assert len(fp) == 12
        int(fp, 16)  # hex


class TestFlattenMetrics:
    def test_top_level_series_and_tracing(self):
        report = make_report(
            mlups=12.5, wall=3.0,
            series={
                "phi": {"interface": {"basic": 0.5}},
                "curve": [1, 2, 3],       # lists are not trend scalars
                "flag": {"smoke": True},  # booleans are not metrics
            },
            tracing_stats={"overlap": {"exchange_seconds": 1.0,
                                       "hidden_seconds": 0.8,
                                       "efficiency": 0.8}},
        )
        metrics = flatten_metrics(report)
        assert metrics["mlups"] == 12.5
        assert metrics["wall_seconds"] == 3.0
        assert metrics["series/phi/interface/basic"] == 0.5
        assert metrics["tracing/overlap_efficiency"] == 0.8
        assert "series/curve" not in metrics
        assert "series/flag/smoke" not in metrics


class TestEntriesAndAppend:
    def test_entry_shape(self):
        entry = entry_from_report(make_report(), source="a.json")
        assert entry["series_key"] == (
            f"bench-x@{entry['config_hash']}@{machine_fingerprint()}"
        )
        assert entry["smoke"] is False
        assert entry["source"] == "a.json"
        assert entry["metrics"]["mlups"] == 10.0

    def test_append_dedupes_and_loads(self, tmp_path):
        path = tmp_path / "history.jsonl"
        entry = entry_from_report(make_report(created=100.0))
        assert len(append_history(path, [entry])) == 1
        assert len(append_history(path, [entry])) == 0  # idempotent
        later = entry_from_report(make_report(created=200.0))
        assert len(append_history(path, [entry, later])) == 1
        assert len(load_history(path)) == 2

    def test_load_missing_is_empty(self, tmp_path):
        assert load_history(tmp_path / "nope.jsonl") == []

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text('{"not": "an entry"}\n')
        with pytest.raises(ValueError):
            load_history(path)


def series_of(mlups_values, *, smoke=False, wall=None):
    """History entries of one series: one entry per mlups value."""
    return [
        entry_from_report(make_report(
            mlups=m, smoke=smoke, created=float(100 + i),
            wall=2.0 if wall is None else wall[i],
        ))
        for i, m in enumerate(mlups_values)
    ]


def verdict_of(verdicts, metric):
    (v,) = [v for v in verdicts if v["metric"] == metric]
    return v


class TestDetectRegressions:
    def test_synthetic_2x_slowdown_is_flagged(self):
        # Five steady runs at 10 MLUP/s, then one at 5 — the acceptance
        # criterion's injected 2x slowdown.
        entries = series_of([10.0, 10.1, 9.9, 10.0, 10.2, 5.0])
        v = verdict_of(detect_regressions(entries), "mlups")
        assert v["verdict"] == "regression"
        assert v["ratio"] == pytest.approx(0.5, abs=0.01)
        assert v["baseline"] == pytest.approx(10.0, abs=0.2)

    def test_durations_regress_upward(self):
        # wall_seconds doubling is also a regression (lower is better).
        entries = series_of([10.0] * 5 + [10.0],
                            wall=[2.0, 2.0, 2.1, 1.9, 2.0, 4.2])
        v = verdict_of(detect_regressions(entries), "wall_seconds")
        assert v["verdict"] == "regression"

    def test_steady_series_is_ok_and_speedup_improves(self):
        entries = series_of([10.0, 10.2, 9.8, 10.1])
        assert verdict_of(detect_regressions(entries),
                          "mlups")["verdict"] == "ok"
        entries = series_of([10.0, 10.0, 10.0, 25.0])
        assert verdict_of(detect_regressions(entries),
                          "mlups")["verdict"] == "improved"

    def test_first_entry_is_new(self):
        entries = series_of([10.0])
        assert verdict_of(detect_regressions(entries),
                          "mlups")["verdict"] == "new"

    def test_median_shrugs_off_one_outlier(self):
        # one slow run inside the window must not drag the baseline
        entries = series_of([10.0, 1.0, 10.0, 10.0, 10.0, 9.5])
        assert verdict_of(detect_regressions(entries),
                          "mlups")["verdict"] == "ok"

    def test_window_limits_baseline(self):
        # old fast epoch beyond the window is forgotten
        entries = series_of([100.0, 100.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.1])
        v = verdict_of(detect_regressions(entries, window=5), "mlups")
        assert v["verdict"] == "ok"

    def test_smoke_flag_is_carried(self):
        entries = series_of([10.0] * 5 + [5.0], smoke=True)
        v = verdict_of(detect_regressions(entries), "mlups")
        assert v["verdict"] == "regression"
        assert v["smoke"] is True

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            detect_regressions([], window=0)
        with pytest.raises(ValueError):
            detect_regressions([], threshold=1.5)


class TestCli:
    def _write_bench(self, directory, name, **kwargs):
        write_run_report(directory / f"BENCH_{name}.json",
                         make_report(run_id=f"bench-{name}", **kwargs))

    def test_ingests_directory_and_is_idempotent(self, tmp_path, capsys):
        results = tmp_path / "results"
        self._write_bench(results, "a", mlups=10.0, created=100.0)
        self._write_bench(results, "b", mlups=20.0, created=100.0)
        history = tmp_path / "history.jsonl"
        assert _main([str(results), "--history", str(history)]) == 0
        assert "2 new entries" in capsys.readouterr().out
        assert len(load_history(history)) == 2
        assert _main([str(results), "--history", str(history)]) == 0
        assert "0 new entries" in capsys.readouterr().out

    def test_ingests_committed_results(self, tmp_path):
        from pathlib import Path

        results = Path(__file__).parent.parent / "benchmarks" / "results"
        history = tmp_path / "history.jsonl"
        assert _main([str(results), "--history", str(history)]) == 0
        entries = load_history(history)
        assert entries  # the committed BENCH_*.json all ingest cleanly
        assert all("@" in e["series_key"] for e in entries)

    def test_gate_fails_on_non_smoke_regression(self, tmp_path):
        results = tmp_path / "results"
        history = tmp_path / "history.jsonl"
        for i, m in enumerate([10.0, 10.0, 10.0, 10.0, 10.0]):
            self._write_bench(results, "x", mlups=m, created=100.0 + i)
            assert _main([str(results), "--history", str(history),
                          "--gate"]) == 0
        self._write_bench(results, "x", mlups=5.0, created=200.0)
        assert _main([str(results), "--history", str(history),
                      "--gate"]) == 1
        # without --gate the regression only warns
        self._write_bench(results, "x", mlups=5.0, created=201.0)
        assert _main([str(results), "--history", str(history)]) == 0

    def test_gate_treats_a_dropped_series_as_retired(self, tmp_path, capsys):
        # A benchmark that stops emitting a series (fig7's
        # legacy_pipe_messages_per_step, once the legacy path was gone)
        # retires it: no verdict, no gate failure — the old entries stay
        # on file as the record.
        results = tmp_path / "results"
        history = tmp_path / "history.jsonl"
        both = {"halo_pipe_messages_per_step": 8.0,
                "legacy_pipe_messages_per_step": 64.0}
        for i in range(3):
            self._write_bench(results, "x", series=both, created=100.0 + i)
            assert _main([str(results), "--history", str(history),
                          "--gate"]) == 0
        capsys.readouterr()
        self._write_bench(results, "x", created=200.0,
                          series={"halo_pipe_messages_per_step": 8.0})
        assert _main([str(results), "--history", str(history),
                      "--gate"]) == 0
        out = capsys.readouterr().out
        assert "series/halo_pipe_messages_per_step" in out
        assert "legacy" not in out
        assert "regression" not in out
        kept = [e["metrics"] for e in load_history(history)]
        assert "series/legacy_pipe_messages_per_step" in kept[0]
        assert "series/legacy_pipe_messages_per_step" not in kept[-1]

    def test_gate_ignores_smoke_regressions(self, tmp_path):
        results = tmp_path / "results"
        history = tmp_path / "history.jsonl"
        for i, m in enumerate([10.0, 10.0, 10.0, 10.0, 10.0, 5.0]):
            self._write_bench(results, "x", mlups=m, smoke=True,
                              created=100.0 + i)
            _main([str(results), "--history", str(history)])
        assert _main([str(results), "--history", str(history),
                      "--gate"]) == 0

    def test_invalid_reports_are_skipped(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "BENCH_bad.json").write_text('{"schema": "wrong"}')
        history = tmp_path / "history.jsonl"
        assert _main([str(results), "--history", str(history)]) == 2
        assert "skipping" in capsys.readouterr().err

    def test_entries_json_round_trip(self, tmp_path):
        path = tmp_path / "history.jsonl"
        append_history(path, [entry_from_report(make_report())])
        for line in path.read_text().splitlines():
            entry = json.loads(line)
            assert entry["version"] == 1
