"""Span tracing: recorder, Chrome export, derived analyses, solver wiring.

ISSUE 8 acceptance: with tracing on, a 2-rank distributed run on *both*
simmpi backends exports a valid Chrome trace-event JSON with per-rank
compute and exchange spans, and the RunReport gains a validated
``"tracing"`` section (overlap efficiency, per-rank imbalance, pipe
latency on the process backend).  With tracing off nothing is recorded,
written or reported.
"""

import json

import pytest

from repro.core.nucleation import smooth_phase_field, voronoi_initial_condition
from repro.distributed import DistributedSimulation
from repro.telemetry import RunTelemetry
from repro.telemetry.report import validate_run_report
from repro.telemetry.spans import (
    merge_intervals,
    overlap_efficiency,
    overlap_seconds,
    per_rank_imbalance,
    pipe_latency_histogram,
    tracing_section,
)
from repro.telemetry.timing import TimingTree
from repro.telemetry.tracing import (
    Span,
    SpanRecorder,
    load_chrome_trace,
    recorder_from_env,
    spans_to_chrome_trace,
    trace_enabled,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.thermo.system import TernaryEutecticSystem


def span(scope, t0, t1, rank=0, **args):
    return Span(scope, rank, 0, t0, t1, args or None)


class TestSpanRecorder:
    def test_records_spans_with_args(self):
        rec = SpanRecorder(rank=3)
        rec.record("comm/phi", 1.0, 2.0, bytes=512)
        (s,) = rec.spans()
        assert s.scope == "comm/phi"
        assert s.rank == 3
        assert (s.t_start, s.t_end) == (1.0, 2.0)
        assert s.args == {"bytes": 512}

    def test_ring_buffer_drops_oldest_and_counts(self):
        rec = SpanRecorder(buffer_size=4)
        for i in range(10):
            rec.record(f"s{i}", float(i), float(i) + 0.5)
        spans = rec.spans()
        assert [s.scope for s in spans] == ["s6", "s7", "s8", "s9"]
        stats = rec.stats()
        assert stats["offered"] == 10
        assert stats["recorded"] == 10
        assert stats["dropped"] == 6

    def test_sampling_keeps_one_of_n(self):
        rec = SpanRecorder(sample=3)
        for i in range(9):
            rec.record(f"s{i}", float(i), float(i) + 0.5)
        assert [s.scope for s in rec.spans()] == ["s0", "s3", "s6"]
        stats = rec.stats()
        assert stats["offered"] == 9
        assert stats["recorded"] == 3
        assert stats["dropped"] == 0

    def test_drain_clears_buffer_but_keeps_stats(self):
        rec = SpanRecorder()
        rec.record("a", 0.0, 1.0)
        assert len(rec.drain()) == 1
        assert rec.spans() == []
        stats = rec.stats()
        assert stats["recorded"] == 1
        assert stats["dropped"] == 0  # drained spans were not *lost*

    def test_record_duration_backdates_start(self):
        rec = SpanRecorder()
        rec.record_duration("compile", 0.25)
        (s,) = rec.spans()
        assert s.t_end - s.t_start == pytest.approx(0.25)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SpanRecorder(buffer_size=0)
        with pytest.raises(ValueError):
            SpanRecorder(sample=0)


class TestEnvActivation:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert not trace_enabled()
        assert recorder_from_env(0) is None

    def test_env_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert trace_enabled()
        assert isinstance(recorder_from_env(0), SpanRecorder)
        monkeypatch.setenv("REPRO_TRACE", "0")
        assert not trace_enabled()

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert recorder_from_env(0, trace=False) is None
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert recorder_from_env(0, trace=True) is not None

    def test_knob_env_vars(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "4")
        monkeypatch.setenv("REPRO_TRACE_BUFFER", "128")
        rec = recorder_from_env(1)
        assert rec.sample == 4
        assert rec.buffer_size == 128
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "nope")
        with pytest.raises(ValueError):
            recorder_from_env(1)


class TestTimingTreeTracer:
    def test_scoped_measurement_becomes_span(self):
        rec = SpanRecorder()
        tree = TimingTree(tracer=rec)
        tree.start("comm")
        tree.start("phi")
        tree.stop()
        tree.stop()
        scopes = [s.scope for s in rec.spans()]
        assert scopes == ["comm/phi", "comm"]

    def test_record_path_becomes_span_with_args(self):
        rec = SpanRecorder()
        tree = TimingTree(tracer=rec)
        tree.record("comm/phi", 0.002, span_args={"bytes": 99})
        (s,) = rec.spans()
        assert s.scope == "comm/phi"
        assert s.args == {"bytes": 99}
        assert s.t_end - s.t_start == pytest.approx(0.002)

    def test_no_tracer_records_nothing(self):
        tree = TimingTree()
        tree.record("comm/phi", 0.002, span_args={"bytes": 99})
        assert tree.tracer is None  # and no AttributeError happened


class TestChromeExport:
    def test_round_trip(self, tmp_path):
        spans = [
            span("compute/phi", 1.0, 2.0, rank=0),
            span("comm/phi", 1.5, 2.5, rank=1, bytes=256),
        ]
        path = write_chrome_trace(tmp_path / "trace.json", spans)
        doc = load_chrome_trace(path)
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["pid"] for e in events} == {0, 1}
        named = {e["name"]: e for e in events}
        # timestamps are microseconds relative to the earliest span
        assert named["compute/phi"]["ts"] == pytest.approx(0.0)
        assert named["comm/phi"]["ts"] == pytest.approx(0.5e6)
        assert named["comm/phi"]["dur"] == pytest.approx(1.0e6)
        assert named["comm/phi"]["args"] == {"bytes": 256}
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {m["args"]["name"] for m in metas} == {"rank 0", "rank 1"}

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_chrome_trace([])
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "X"}]})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [
                {"name": "a", "ph": "X", "pid": 0, "tid": 0,
                 "ts": -1.0, "dur": 0.0},
            ]})
        # valid minimal document passes
        validate_chrome_trace(
            spans_to_chrome_trace([span("a", 0.0, 1.0)])
        )


class TestSpanAnalyses:
    def test_merge_and_overlap_seconds(self):
        merged = merge_intervals([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0),
                                  (5.0, 5.0)])
        assert merged == [(0.0, 2.0), (3.0, 4.0)]
        assert overlap_seconds(1.5, 3.5, merged) == pytest.approx(1.0)

    def test_overlap_efficiency_exact(self):
        # rank 1 computes over [0, 4]; rank 0's exchange [1, 3] is fully
        # hidden, rank 1's own exchange [5, 6] is not (no peer compute).
        spans = [
            span("compute/phi", 0.0, 4.0, rank=1),
            span("comm/phi", 1.0, 3.0, rank=0),
            span("comm/mu", 5.0, 6.0, rank=1),
        ]
        result = overlap_efficiency(spans)
        assert result["exchange_seconds"] == pytest.approx(3.0)
        assert result["hidden_seconds"] == pytest.approx(2.0)
        assert result["efficiency"] == pytest.approx(2.0 / 3.0)
        assert result["per_rank"]["0"]["efficiency"] == pytest.approx(1.0)
        assert result["per_rank"]["1"]["efficiency"] == pytest.approx(0.0)

    def test_own_rank_compute_does_not_hide(self):
        spans = [
            span("compute/phi", 0.0, 4.0, rank=0),
            span("comm/phi", 1.0, 3.0, rank=0),
        ]
        assert overlap_efficiency(spans)["efficiency"] == 0.0

    def test_per_rank_imbalance_exact(self):
        spans = [
            span("step", 0.0, 1.0, rank=0),
            span("step", 1.0, 2.0, rank=0),
            span("step", 0.0, 3.0, rank=1),
        ]
        result = per_rank_imbalance(spans)
        assert result["per_rank"]["0"] == {"seconds": 2.0, "spans": 2}
        assert result["per_rank"]["1"] == {"seconds": 3.0, "spans": 1}
        assert result["max"] == 3.0
        assert result["avg"] == pytest.approx(2.5)
        assert result["ratio"] == pytest.approx(1.2)
        assert result["stddev"] == pytest.approx(0.5)

    def test_pipe_histogram_buckets_and_none(self):
        assert pipe_latency_histogram([span("comm/phi", 0.0, 1.0)]) is None
        spans = [
            span("comm/pipe/send", 0.0, 3e-6),     # 3 us -> bin "< 5"
            span("comm/pipe/send", 0.0, 400e-6),   # 400 us -> bin "< 500"
            span("comm/pipe/recv", 0.0, 2.0),      # 2 s -> open top bin
        ]
        hist = pipe_latency_histogram(spans)
        assert hist["unit"] == "us"
        send = hist["counts"]["send"]
        assert send[hist["edges_us"].index(5.0)] == 1
        assert send[hist["edges_us"].index(500.0)] == 1
        assert hist["counts"]["recv"][-1] == 1
        assert hist["summary"]["send"]["calls"] == 2
        assert hist["summary"]["recv"]["max_us"] == pytest.approx(2e6)

    def test_tracing_section_shape(self):
        section = tracing_section(
            [span("step", 0.0, 1.0)],
            [{"dropped": 2, "sample": 4}, {"dropped": 1, "sample": 4}],
        )
        assert section["enabled"] is True
        assert section["spans"] == 1
        assert section["dropped"] == 3
        assert section["sample"] == 4
        assert section["pipe_latency"] is None


@pytest.fixture(scope="module")
def initial_state():
    system = TernaryEutecticSystem()
    phi0, mu0 = voronoi_initial_condition(
        system, (8, 8, 16), solid_height=5, n_seeds=4
    )
    return system, smooth_phase_field(phi0, 2), mu0


def _traced_run(initial_state, tmp_path, backend, **kwargs):
    system, phi0, mu0 = initial_state
    sim = DistributedSimulation(
        (8, 8, 16), (2, 1, 1), system=system, kernel="buffered",
        n_ranks=2, backend=backend, **kwargs,
    )
    telemetry = RunTelemetry(directory=tmp_path, run_id="traced",
                             trace=True)
    return sim.run(3, phi0, mu0, telemetry=telemetry), telemetry


class TestDistributedTracing:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_two_rank_traced_run(self, initial_state, tmp_path, backend):
        res, telemetry = _traced_run(initial_state, tmp_path, backend)
        validate_run_report(res.report)
        tracing = res.report["tracing"]
        assert tracing["enabled"] is True
        assert tracing["spans"] > 0
        assert 0.0 <= tracing["overlap"]["efficiency"] <= 1.0
        assert tracing["overlap"]["exchange_seconds"] > 0
        assert sorted(tracing["imbalance"]["per_rank"]) == ["0", "1"]
        assert tracing["imbalance"]["ratio"] >= 1.0
        # every rank's spans came back with its own result, in rank order
        ranks = [span.rank for span in res.spans]
        assert sorted(set(ranks)) == [0, 1]
        assert ranks == sorted(ranks)
        assert tracing["spans"] == len(res.spans)
        # exported Chrome trace: valid, both ranks, compute AND exchange
        assert res.trace_path == telemetry.trace_path()
        doc = load_chrome_trace(res.trace_path)
        by_rank = {}
        for ev in doc["traceEvents"]:
            if ev["ph"] == "X":
                by_rank.setdefault(ev["pid"], set()).add(
                    ev["name"].split("/")[0]
                )
        assert sorted(by_rank) == [0, 1]
        for rank, cats in by_rank.items():
            assert {"compute", "comm", "step"} <= cats, (rank, cats)

    def test_process_backend_records_pipe_spans(self, initial_state,
                                                tmp_path):
        res, _ = _traced_run(initial_state, tmp_path, "process")
        hist = res.report["tracing"]["pipe_latency"]
        assert hist is not None
        assert {"send", "recv"} <= set(hist["summary"])
        assert all(t["calls"] > 0 for t in hist["summary"].values())

    def test_overlap_schedule_traces(self, initial_state, tmp_path):
        res, _ = _traced_run(initial_state, tmp_path, "thread",
                             overlap=True)
        tracing = res.report["tracing"]
        assert 0.0 <= tracing["overlap"]["efficiency"] <= 1.0
        scopes = {s.scope for s in res.spans}
        assert "compute/mu_local" in scopes  # Algorithm 2 split ran

    def test_trace_off_by_default(self, initial_state, tmp_path,
                                  monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        system, phi0, mu0 = initial_state
        sim = DistributedSimulation((8, 8, 16), (2, 1, 1), system=system,
                                    kernel="buffered", n_ranks=2)
        telemetry = RunTelemetry(directory=tmp_path, run_id="plain")
        res = sim.run(2, phi0, mu0, telemetry=telemetry)
        assert "tracing" not in res.report
        assert res.spans is None
        assert res.trace_path is None
        assert not (tmp_path / "trace-plain.json").exists()

    def test_traced_run_fields_match_untraced(self, initial_state,
                                              tmp_path):
        import numpy as np

        system, phi0, mu0 = initial_state
        sim = DistributedSimulation((8, 8, 16), (2, 1, 1), system=system,
                                    kernel="buffered", n_ranks=2)
        plain = sim.run(3, phi0, mu0)
        traced, _ = _traced_run(initial_state, tmp_path, "thread")
        np.testing.assert_array_equal(plain.phi, traced.phi)
        np.testing.assert_array_equal(plain.mu, traced.mu)

    def test_sampled_trace_reports_sample(self, initial_state, tmp_path):
        system, phi0, mu0 = initial_state
        sim = DistributedSimulation((8, 8, 16), (2, 1, 1), system=system,
                                    kernel="buffered", n_ranks=2)
        telemetry = RunTelemetry(directory=tmp_path, run_id="sampled",
                                 trace=True, trace_sample=2)
        res = sim.run(3, phi0, mu0, telemetry=telemetry)
        tracing = res.report["tracing"]
        assert tracing["sample"] == 2
        doc = json.loads(res.trace_path.read_text())
        validate_chrome_trace(doc)
