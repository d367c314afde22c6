"""End-to-end telemetry: counters, runs, campaigns."""

import json

import numpy as np
import pytest

from repro.core.nucleation import smooth_phase_field, voronoi_initial_condition
from repro.distributed import DistributedSimulation
from repro.resilience.campaign import run_campaign
from repro.resilience.faults import Fault, FaultPlan
from repro.resilience.store import ShardedCheckpointStore
from repro.telemetry import (
    EventLog,
    Heartbeat,
    MetricsRegistry,
    RunTelemetry,
    read_events,
)
from repro.telemetry.report import validate_run_report
from repro.thermo.system import TernaryEutecticSystem

SHAPE = (8, 8, 12)


@pytest.fixture(scope="module")
def initial_state():
    system = TernaryEutecticSystem()
    phi0, mu0 = voronoi_initial_condition(
        system, SHAPE, solid_height=4, n_seeds=4
    )
    return system, smooth_phase_field(phi0, 2), mu0


class TestCountersAndHeartbeat:
    def test_heartbeat_advances_counters_and_emits(self):
        registry = MetricsRegistry()
        events = EventLog()
        hb = Heartbeat(registry, cells_per_step=100, every=2, events=events)
        for _ in range(4):
            hb.sample()
        snap = registry.snapshot()
        assert snap["cells_updated"] == 400
        assert snap["mlups"] > 0 and snap["mlups_window"] > 0
        assert events.count("heartbeat") == 2  # every 2nd tick

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c").add(-1)

    def test_rolling_rate_zero_width_windows(self):
        """Degenerate windows read 0.0 instead of dividing by zero.

        Same-tick samples are real occurrences (coarse clocks, injected
        ``now=`` values, a heartbeat firing twice without progress) and
        every snapshot calls ``mlups_window``.
        """
        from repro.telemetry.counters import RollingRate

        rate = RollingRate()
        assert rate.mlups() == 0.0          # empty window
        rate.sample(100, now=1.0)
        assert rate.mlups() == 0.0          # single sample
        rate.sample(200, now=1.0)
        assert rate.mlups() == 0.0          # zero-width pair
        rate.sample(300, now=1.0)
        assert rate.mlups() == 0.0          # still zero-width
        rate.sample(400, now=2.0)
        # earliest sample strictly before the newest anchors the rate
        assert rate.mlups() == pytest.approx((400 - 100) / 1.0 / 1e6)
        # trailing same-tick duplicates of the newest stamp still work
        rate.sample(500, now=2.0)
        assert rate.mlups() == pytest.approx((500 - 100) / 1.0 / 1e6)

    def test_snapshot_survives_zero_width_window(self):
        registry = MetricsRegistry()
        registry.rate.sample(10, now=5.0)
        registry.rate.sample(20, now=5.0)
        assert registry.snapshot()["mlups_window"] == 0.0


class TestDistributedRunTelemetry:
    def test_two_rank_run_produces_full_telemetry(
        self, tmp_path, initial_state
    ):
        system, phi0, mu0 = initial_state
        steps = 3
        d = DistributedSimulation(SHAPE, (2, 1, 1), system=system,
                                  kernel="buffered")
        telemetry = RunTelemetry(directory=tmp_path, run_id="demo")
        res = d.run(steps, phi0, mu0, guard=True, telemetry=telemetry)

        # merged timing tree: both ranks contributed, comm + compute split
        tree = res.timing
        assert tree is not None
        assert {"comm", "compute"} <= set(tree["children"])
        comp = tree["children"]["compute"]
        assert comp["n_ranks"] == 2
        phi_sweeps = comp["children"]["phi"]
        assert phi_sweeps["count"] == steps * 2  # per rank per step
        assert phi_sweeps["total"] > 0
        assert (
            phi_sweeps["rank_min"]
            <= phi_sweeps["rank_avg"]
            <= phi_sweeps["rank_max"]
        )

        # counters summed across ranks
        cells = int(np.prod(SHAPE))
        assert res.counters["cells_updated"] == steps * cells
        assert res.counters["halo_bytes"] > 0
        assert res.counters["halo_messages"] > 0

        # events: every rank's records in the merged stream, on disk too,
        # parseable + valid
        stream = read_events(tmp_path / "events-merged.jsonl")
        assert stream == telemetry.merge_events()
        per_rank = {
            rank: [r for r in stream if r["rank"] == rank] for rank in (0, 1)
        }
        for records in per_rank.values():
            kinds = [r["kind"] for r in records]
            assert kinds[0] == "run_start" and kinds[-1] == "run_end"
            assert kinds.count("heartbeat") == steps
        merged = [
            json.loads(line)
            for line in (tmp_path / "events-merged.jsonl").read_text().splitlines()
        ]
        assert len(merged) == sum(len(per_rank[r]) for r in (0, 1))

        # schema-valid run report with nonzero throughput
        validate_run_report(res.report)
        assert res.report["mlups"] > 0
        assert res.report["ranks"] == 2
        assert res.report["steps"] == steps
        assert (tmp_path / "report-demo.json").exists()

    def test_telemetry_off_leaves_result_bare(self, initial_state):
        system, phi0, mu0 = initial_state
        d = DistributedSimulation(SHAPE, (2, 1, 1), system=system,
                                  kernel="buffered")
        res = d.run(2, phi0, mu0)
        assert res.timing is None
        assert res.counters is None
        assert res.report is None

    @pytest.mark.parametrize("directory", [True, False],
                             ids=["directory", "in-memory"])
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_guard_trip_emits_event(self, tmp_path, initial_state, backend,
                                    directory):
        """A failed call's events come back on its ranks' exceptions and
        join the session's stream, with or without a directory."""
        from repro.resilience.errors import InvariantViolation

        system, phi0, mu0 = initial_state
        d = DistributedSimulation(SHAPE, (2, 1, 1), system=system,
                                  kernel="buffered", backend=backend)
        plan = FaultPlan([Fault("nan_inject", step=1, rank=0)])
        telemetry = RunTelemetry(directory=tmp_path if directory else None,
                                 run_id="trip")
        with pytest.raises(InvariantViolation):
            d.run(3, phi0, mu0, guard=True, fault_plan=plan,
                  telemetry=telemetry)
        stream = telemetry.merge_events()
        records = [r for r in stream if r["rank"] == 0]
        kinds = [r["kind"] for r in records]
        assert "fault" in kinds
        assert "guard_trip" in kinds
        trip = next(r for r in records if r["kind"] == "guard_trip")
        assert trip["level"] == "ERROR"
        assert trip["data"]["reason"]
        assert {r["rank"] for r in stream if r["kind"] == "rank_failed"} == {0, 1}
        if directory:
            assert read_events(tmp_path / "events-merged.jsonl") == stream


class TestCampaignTelemetry:
    def test_faulted_campaign_reports_restart(self, tmp_path, initial_state):
        system, phi0, mu0 = initial_state
        d = DistributedSimulation(SHAPE, (2, 1, 1), system=system,
                                  kernel="buffered")
        plan = FaultPlan([Fault("rank_kill", step=2, rank=1)])
        res = run_campaign(
            d, 4, phi0, mu0,
            store=ShardedCheckpointStore(tmp_path / "ck"),
            checkpoint_every=2,
            fault_plan=plan,
            telemetry=RunTelemetry(directory=tmp_path / "tel", run_id="camp"),
        )
        assert res.steps == 4
        assert res.restarts == 1

        # the finishing launch's 2-rank breakdown: it resumed from the
        # step-2 checkpoint, so it made the last 2 steps' compute calls
        comp = res.timing["children"]["compute"]
        assert comp["n_ranks"] == 2
        assert comp["children"]["phi"]["count"] == 2 * 2

        validate_run_report(res.report)
        assert res.report["guards"]["restarts"] == 1
        assert res.report["faults"]["fired"] == [
            {"kind": "rank_kill", "step": 2, "rank": 1}
        ]
        assert res.report["counters"]["checkpoints_written"] == res.checkpoints_written

        merged = (tmp_path / "tel" / "events-merged.jsonl").read_text()
        kinds = [json.loads(line)["kind"] for line in merged.splitlines()]
        assert "campaign_start" in kinds
        assert "checkpoint" in kinds
        assert "restart" in kinds
        assert "campaign_end" in kinds

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_sharded_campaign_counts_every_manifest(
        self, tmp_path, initial_state, backend
    ):
        """Shards are written and manifests published inside the ranks;
        their counts reach the caller's store — and the report — on
        either backend."""
        system, phi0, mu0 = initial_state
        d = DistributedSimulation(SHAPE, (2, 2, 3), system=system,
                                  kernel="buffered", n_ranks=2,
                                  backend=backend)
        store = ShardedCheckpointStore(tmp_path / "ck", keep=8)
        res = run_campaign(
            d, 8, phi0, mu0, store=store, checkpoint_every=2,
            telemetry=RunTelemetry(directory=tmp_path / "tel", run_id="sh"),
        )
        # the initial state plus one generation every two steps
        assert res.checkpoints_written == len(store.manifests()) == 5
        assert res.report["counters"]["checkpoints_written"] == res.checkpoints_written
        assert store.stats["manifests_published"] == 5
        assert store.stats["shards_written"] == 10

    def test_unfaulted_campaign_matches_plain_run(self, tmp_path, initial_state):
        system, phi0, mu0 = initial_state
        d = DistributedSimulation(SHAPE, (2, 1, 1), system=system,
                                  kernel="buffered")
        res = run_campaign(
            d, 4, phi0, mu0,
            store=ShardedCheckpointStore(tmp_path / "ck"),
            checkpoint_every=2,
            telemetry=RunTelemetry(directory=tmp_path / "tel", run_id="ok"),
        )
        ref = d.run(4, phi0, mu0)
        np.testing.assert_allclose(res.phi, ref.phi, rtol=0, atol=5e-7)
        assert res.restarts == 0
        assert res.report["guards"]["violations"] == []

    def test_campaign_report_is_the_finishing_launch_report(
        self, tmp_path, initial_state
    ):
        """The campaign report keeps what its finishing launch reported:
        the launch's config (backend included) plus ``campaign``, and
        the span tracing section."""
        system, phi0, mu0 = initial_state
        d = DistributedSimulation(SHAPE, (2, 1, 1), system=system,
                                  kernel="buffered")
        with d:
            plain = d.run(4, phi0, mu0, guard=True, telemetry=RunTelemetry())
        res = run_campaign(
            d, 4, phi0, mu0,
            store=ShardedCheckpointStore(tmp_path / "ck"),
            checkpoint_every=2,
            telemetry=RunTelemetry(trace=True, run_id="traced"),
        )
        validate_run_report(res.report)
        assert res.report["config"] == {
            **plain.report["config"], "campaign": True,
        }
        assert "backend" in res.report["config"]
        assert res.report["tracing"]["spans"] > 0

    def test_event_count_is_the_stream_length(self, tmp_path, initial_state):
        """The report's ``events.count`` reads the session's one stream,
        whether or not the session has a directory."""
        system, phi0, mu0 = initial_state
        counts = []
        for i, directory in enumerate((None, tmp_path / "tel")):
            d = DistributedSimulation(SHAPE, (2, 1, 1), system=system,
                                      kernel="buffered", backend="thread")
            telemetry = RunTelemetry(directory=directory)
            res = run_campaign(
                d, 4, phi0, mu0,
                store=ShardedCheckpointStore(tmp_path / f"ck{i}"),
                checkpoint_every=2, telemetry=telemetry,
            )
            counts.append(res.report["events"]["count"])
            assert counts[-1] == len(telemetry.merge_events())
        assert counts[0] == counts[1]
