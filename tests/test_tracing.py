"""Span tracing: the span record, Chrome export, derived analyses, solver
wiring.

With tracing on, a 2-rank distributed run on *both* simmpi backends
exports a valid Chrome trace-event JSON with per-rank compute and
exchange spans, and the RunReport gains a validated ``"tracing"``
section (overlap efficiency, per-rank imbalance, pipe latency on the
process backend).  Traced or not, a telemetered call records the same
spans, from which its timing tree is folded; with tracing off none is
returned, written or reported, and an untelemetered call records
nothing.
"""

import gc
import weakref
from collections import Counter

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
from repro.telemetry import timing
from repro.telemetry.timing import TimingTree
from repro.telemetry.tracing import (
    Span,
    load_chrome_trace,
    spans_to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.thermo.system import TernaryEutecticSystem


def span(scope, t0, t1, rank=0, **args):
    return Span(scope, rank, 0, t0, t1, args or None)


class TestSpanRecorder:
    """The rank's one timing record: :class:`TimingTree` spans."""

    def test_records_spans_with_args(self):
        tree = TimingTree(rank=3)
        tree.record("comm/phi", 0.5, bytes=512)
        (s,) = tree.spans()
        assert s.scope == "comm/phi"
        assert s.rank == 3
        assert s.args == {"bytes": 512}

    def test_ring_buffer_drops_oldest_and_counts(self, monkeypatch):
        monkeypatch.setattr(timing, "CAPACITY", 4)
        tree = TimingTree()
        for i in range(10):
            tree.record(f"s{i}", 0.5)
        assert [s.scope for s in tree.spans()] == ["s6", "s7", "s8", "s9"]
        assert tree.dropped == 6
        # folded out of the timeline, still in the tree
        assert [tree.to_dict()["children"][f"s{i}"]["count"]
                for i in range(10)] == [1] * 10

    def test_record_duration_backdates_start(self):
        tree = TimingTree()
        tree.record("compile", 0.25)
        (s,) = tree.spans()
        assert s.t_end - s.t_start == pytest.approx(0.25)


class TestEnvActivation:
    """``REPRO_TRACE`` decides what a ``RunTelemetry(trace=None)`` call
    returns; an explicit ``trace`` beats it."""

    def test_off_by_default(self, initial_state, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        res = _run(initial_state, RunTelemetry())
        assert res.spans is None and "tracing" not in res.report

    def test_env_enables(self, initial_state, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        res = _run(initial_state, RunTelemetry())
        assert res.spans and res.report["tracing"]["spans"] == len(res.spans)
        monkeypatch.setenv("REPRO_TRACE", "0")
        assert _run(initial_state, RunTelemetry()).spans is None

    def test_override_beats_env(self, initial_state, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert _run(initial_state, RunTelemetry(trace=False)).spans is None
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert _run(initial_state, RunTelemetry(trace=True)).spans


class TestTimingTreeTracer:
    def test_record_path_becomes_span_with_args(self):
        tree = TimingTree()
        tree.record("comm/phi", 0.002, bytes=99)
        (s,) = tree.spans()
        assert s.scope == "comm/phi"
        assert s.args == {"bytes": 99}
        assert s.t_end - s.t_start == pytest.approx(0.002)
        phi = tree.to_dict()["children"]["comm"]["children"]["phi"]
        assert (phi["count"], phi["total"]) == (1, 0.002)

    def test_no_tracer_records_nothing(self, initial_state, monkeypatch):
        """An untelemetered call times nothing: no record is made."""
        calls = []
        real = TimingTree.record
        monkeypatch.setattr(
            TimingTree, "record",
            lambda self, *a, **k: calls.append(a) or real(self, *a, **k),
        )
        res = _run(initial_state, None)
        assert res.timing is None and calls == []
        _run(initial_state, RunTelemetry())
        assert calls


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
        section = tracing_section([span("step", 0.0, 1.0)], dropped=3)
        assert section["enabled"] is True
        assert section["spans"] == 1
        assert section["dropped"] == 3
        assert section["pipe_latency"] is None


@pytest.fixture(scope="module")
def initial_state():
    system = TernaryEutecticSystem()
    phi0, mu0 = voronoi_initial_condition(
        system, (8, 8, 16), solid_height=5, n_seeds=4
    )
    return system, smooth_phase_field(phi0, 2), mu0


def _run(initial_state, telemetry, backend="thread"):
    system, phi0, mu0 = initial_state
    sim = DistributedSimulation(
        (8, 8, 16), (2, 1, 1), system=system, kernel="buffered",
        n_ranks=2, backend=backend,
    )
    with sim:
        return sim.run(2, phi0, mu0, telemetry=telemetry)


def _counts(tree, prefix=""):
    """``path -> count`` of every scope of a merged timing tree."""
    out = {}
    for name, child in tree["children"].items():
        out[prefix + name] = child["count"]
        out.update(_counts(child, f"{prefix}{name}/"))
    return out


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

    def test_a_calls_records_go_with_it(self, initial_state, monkeypatch):
        """A rank's record is freed when its call ends, without waiting
        for the cyclic collector: a long campaign holds one call's
        spans, not every call's."""
        trees = []
        init = TimingTree.__init__

        def tracked(self, *args, **kwargs):
            init(self, *args, **kwargs)
            trees.append(weakref.ref(self))

        monkeypatch.setattr(TimingTree, "__init__", tracked)
        system, phi0, mu0 = initial_state
        gc.collect()
        gc.disable()
        try:
            with DistributedSimulation((8, 8, 16), (2, 1, 1), system=system,
                                       kernel="buffered", n_ranks=2) as sim:
                for _ in range(3):
                    sim.run(2, phi0, mu0, telemetry=RunTelemetry())
                alive = [ref() is not None for ref in trees]
        finally:
            gc.enable()
        assert len(alive) == 6
        assert not any(alive[:4])  # the calls before the last one

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

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_traced_and_untraced_trees_agree(self, initial_state, backend):
        """One record feeds both views: a traced and an untraced call
        fold the same tree, and the traced call's spans per scope are
        its tree's counts."""
        system, phi0, mu0 = initial_state
        with DistributedSimulation((8, 8, 16), (2, 1, 1), system=system,
                                   kernel="buffered", n_ranks=2,
                                   backend=backend) as sim:
            sim.run(1, phi0, mu0)  # launch the ranks outside both calls
            plain = sim.run(3, phi0, mu0, telemetry=RunTelemetry(trace=False))
            traced = sim.run(3, phi0, mu0, telemetry=RunTelemetry(trace=True))
        assert plain.spans is None
        a, b = _counts(plain.timing), _counts(traced.timing)
        assert a.keys() == b.keys()
        assert {"step", "compute/phi", "comm/mu"} <= a.keys()
        # a pipe drain is one poll loop, so how many there are follows
        # the ranks' timing; every other scope is counted per step
        steady = [p for p in a if p != "comm/pipe/recv"]
        assert [a[p] for p in steady] == [b[p] for p in steady]
        per_scope = Counter(s.scope for s in traced.spans)
        assert per_scope == Counter({p: n for p, n in b.items() if n})
        assert traced.report["tracing"]["dropped"] == 0

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
