"""Tests of the benchmark harness itself (not of the program's speed).

    PYTHONPATH=src python -m pytest benchmarks/e2e

They sit outside tier-1's ``testpaths``: the quick run starts worker
processes and takes about half a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import compare, run, spans, stats  # noqa: E402
from benchmarks.e2e import workloads as W  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_cli(*args, cwd=ROOT, script=E2E / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("quick") / "result.json"
    proc = run_cli("--quick", "--seed", 3, "--out", out)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(out.read_text()), out.parent, proc.stdout


# --------------------------------------------------------------------- #
# BENCHMARK.json against the contract and against workloads.py
# --------------------------------------------------------------------- #

def test_benchmark_json_keys_and_limits(benchmark_json):
    b = benchmark_json
    assert set(b) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}
    assert b["paths"] == ["benchmarks/e2e"]
    assert b["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert b["run_seconds"] == run.DEFAULT_SECONDS
    assert isinstance(b["run_seconds"], int) and 1 <= b["run_seconds"] <= 60
    assert 2 <= len(b["workloads"]) <= 8
    assert 1 <= len(b["end_to_end"]) <= 16
    assert 1 <= len(b["per_layer"]) <= 128
    # the pipeline makes 4 + 22 x workloads runs inside 3420 s
    runs = 4 + 22 * len(b["workloads"])
    assert runs * (b["run_seconds"] + 8) < 3420
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer")
             for e in b[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for wl in b["workloads"]:
        assert set(wl) == {"name", "why"}
        assert len(wl["why"]) <= 200 and "\n" not in wl["why"]
    for metric in b["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    for metric in b["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in b["end_to_end"])}]


def test_benchmark_json_matches_definition(benchmark_json):
    b = benchmark_json
    assert [(w["name"], w["why"]) for w in b["workloads"]] == [
        (w.name, w.why) for w in W.WORKLOADS]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in b["end_to_end"]] == [m[:4] for m in W.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in b["per_layer"]] == list(W.PER_LAYER)


# --------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------- #

def test_percentile_needs_ten_samples_beyond():
    assert stats.percentile(range(40), 75) == pytest.approx(29.25)
    with pytest.raises(ValueError, match="beyond"):
        stats.percentile(range(39), 75)
    with pytest.raises(ValueError, match="beyond"):
        stats.percentile(range(100), 95)
    assert stats.samples_beyond(42, 75) == 10


def test_quiet_is_the_mean_of_the_fastest_tenth():
    assert stats.quiet([5.0, 1.0, 9.0]) == 1.0
    assert stats.quiet(range(100, 0, -1)) == pytest.approx(5.5)
    with pytest.raises(ValueError):
        stats.quiet([])


def test_spread_follows_the_pipeline_rule():
    import statistics

    values = [10.0, 10.4, 9.8, 10.1, 10.2, 9.9, 10.0, 10.3, 10.6, 9.7]
    q = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx(
        (q[2] - q[0]) / statistics.median(values))
    assert stats.spread([10.0, 11.0, 10.5]) == pytest.approx(1.0 / 10.5)
    assert stats.spread([3.0]) == 0.0


def test_self_time_subtracts_children():
    rec = spans.SpanRecorder("w")
    with rec.span("outer"):
        with rec.span("inner", segment=0):
            pass
        with rec.span("inner", segment=1):
            pass
    rows = spans.self_times(rec.spans)
    assert rows["inner"]["count"] == 2
    assert rows["outer"]["self_s"] == pytest.approx(
        rows["outer"]["total_s"] - rows["inner"]["total_s"])
    assert {s["parent"] for s in rec.spans} == {None, 0}
    assert set(rec.spans[1]) == {"name", "start", "end", "parent",
                                 "workload", "segment"}
    off = spans.SpanRecorder("w", enabled=False)
    with off.span("x"):
        pass
    assert off.spans == []


def _side(value, spread=0.0):
    return {"value": value, "spread": spread, "runs": 4}


def test_compare_verdicts():
    assert compare.verdict(_side(1.0), _side(1.05), "higher", 0.1) == "same"
    assert compare.verdict(_side(1.0), _side(0.85), "higher", 0.1) == "worse"
    assert compare.verdict(_side(1.0), _side(1.2), "higher", 0.1) == "better"
    assert compare.verdict(_side(10.0), _side(11.5), "lower", 0.1) == "worse"
    assert compare.verdict(_side(1.0, 0.2), _side(1.02), "higher", 0.1) == "unresolved"


def test_compare_sets_of_runs(quick_result, tmp_path):
    result, _, _ = quick_result

    def write_set(name, factors):
        directory = tmp_path / name
        directory.mkdir()
        for i, factor in enumerate(factors):
            run_i = json.loads(json.dumps(result))
            run_i["end_to_end"]["thread-2r"]["metrics"]["mlups"]["value"] *= factor
            (directory / f"run-{i}.json").write_text(json.dumps(run_i))
        (directory / "trace-thread-2r.json").write_text("[]")  # not a result
        return str(directory)

    base = write_set("base", [1.0, 1.01, 0.99, 1.02])
    assert compare.main([base, base]) == 0
    rows = compare.compare(compare.load_set(base), compare.load_set(base))
    row = next(r for r in rows
               if (r["workload"], r["metric"]) == ("thread-2r", "mlups"))
    assert row["verdict"] == "same" and 0 < row["spread_base"] < 0.05
    assert compare.main([base, write_set("slow", [0.5, 0.51, 0.49, 0.5])]) == 1
    noisy = write_set("noisy", [0.6, 1.0, 1.4, 1.0])
    rows = compare.compare(compare.load_set(base), compare.load_set(noisy))
    row = next(r for r in rows
               if (r["workload"], r["metric"]) == ("thread-2r", "mlups"))
    assert row["verdict"] == "unresolved"


# --------------------------------------------------------------------- #
# the driver end to end
# --------------------------------------------------------------------- #

def test_quick_run_is_schema_valid(quick_result):
    result, out_dir, stdout = quick_result
    assert result["wall_seconds"] < 60
    prov = result["provenance"]
    for key in ("nproc", "cpu_model", "python", "numpy", "compiled_backend",
                "git_commit", "seed", "workloads", "passes"):
        assert key in prov
    assert prov["seed"] == 3
    assert {n: c["S"] for n, c in prov["workloads"].items()} == {
        w.name: w.steps for w in W.WORKLOADS}
    e2e_units = {m[0]: m[1] for m in W.END_TO_END}
    layer_units = {m[0]: m[1] for m in W.PER_LAYER}
    for wl in W.WORKLOADS:
        end = result["end_to_end"][wl.name]
        assert end["failed"] == 0 and end["fail_frac"] == 0.0, end["errors"]
        assert end["attempted"] == end["n_samples"] == 3
        assert {k: v["unit"] for k, v in end["metrics"].items()} == e2e_units
        assert all(v["value"] > 0 for v in end["metrics"].values())
        assert end["diagnostics"]["mlups_quiet"] >= end["metrics"]["mlups"]["value"]
        layer = result["per_layer"][wl.name]
        assert layer["failed"] == 0, layer["errors"]
        assert {k: v["unit"] for k, v in layer["metrics"].items()} == layer_units
        trace = json.loads((out_dir / f"trace-{wl.name}.json").read_text())
        assert {s["workload"] for s in trace} == {wl.name}
        assert any(s["name"] == "segment" for s in trace)
        assert wl.name in stdout
    assert result["end_to_end"]["smallblocks-process-overlap"]["verify"][
        "max_abs_err_phi"] <= W.REFERENCE_TOL
    if not prov["oversubscribed"]:
        assert set(result["derived"]) == {
            "scaling.thread_2r_eff", "scaling.process_2r_eff",
            "scaling.process_over_thread"}


def test_pipeline_form_prints_one_result_object(tmp_path):
    proc = run_cli("--workload", "smallblocks-thread-campaign", "--seed", 5,
                   "--seconds", 1, "--trace", 0, "--quick",
                   "--out", tmp_path / "r.json")
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {m[0] for m in W.END_TO_END}
    assert all(set(v) == {"value", "unit"} for v in line["metrics"].values())


def test_corrupted_field_is_counted_as_failure(tmp_path):
    proc = run_cli("--workload", "thread-2r", "--trace", 0, "--quick",
                   "--corrupt", "thread-2r", "--out", tmp_path / "r.json")
    assert proc.returncode == 1
    result = json.loads((tmp_path / "r.json").read_text())
    end = result["end_to_end"]["thread-2r"]
    assert end["fail_frac"] > 0 and end["errors"]


def test_same_seed_same_inputs():
    run.pin_environment()
    a = W.make_inputs((16, 16, 32), 7)
    b = W.make_inputs((16, 16, 32), 7)
    c = W.make_inputs((16, 16, 32), 8)
    assert all((x == y).all() for x, y in zip(a, b))
    assert not (a[0] == c[0]).all() and not (a[1] == c[1]).all()
    assert W.check_state(W.interior(a[0]), W.interior(a[1])) is None


def test_exits_nonzero_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: no result line, exit code != 0."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(E2E, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_cli("--workload", "serial-1r", "--seed", 0, "--seconds", 1,
                   "--trace", 0, cwd=tmp_path,
                   script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
