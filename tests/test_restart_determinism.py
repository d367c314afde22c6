"""Restart determinism: checkpoint at N, restore, continue to M.

The continued run must match an uninterrupted run to the float32
rounding of the stored state — serial and distributed (including the
Algorithm 2 communication-hiding schedule).
"""

import numpy as np
import pytest

from repro.core.nucleation import smooth_phase_field, voronoi_initial_condition
from repro.core.solver import Simulation
from repro.distributed import DistributedSimulation
from repro.io.checkpoint import load_checkpoint, save_state
from repro.resilience import (
    Fault,
    FaultPlan,
    ShardedCheckpointStore,
    run_campaign,
)
from repro.thermo.system import TernaryEutecticSystem

SHAPE = (12, 20)
N, M = 4, 9  # checkpoint step, final step


@pytest.fixture(scope="module")
def setup():
    system = TernaryEutecticSystem()
    phi0, mu0 = voronoi_initial_condition(system, SHAPE, solid_height=7, n_seeds=4)
    phi0 = smooth_phase_field(phi0, 2)
    return system, phi0, mu0


def test_serial_restart_matches_uninterrupted(setup, tmp_path):
    system, phi0, mu0 = setup
    sim = Simulation(shape=SHAPE, system=system, kernel="buffered")
    sim.initialize(phi0, mu0)
    sim.step(N)
    path = tmp_path / "ck.npz"
    save_state(path, phi=sim.phi.interior_src, mu=sim.mu.interior_src,
               time=sim.time, step_count=sim.step_count)
    sim.step(M - N)  # uninterrupted continuation

    fresh = Simulation(
        shape=SHAPE, system=system, kernel="buffered",
        params=sim.params, temperature=sim.temperature,
    )
    fresh.load_state(load_checkpoint(path))
    assert fresh.step_count == N
    assert fresh.time == pytest.approx(N * sim.params.dt)
    fresh.step(M - N)
    np.testing.assert_allclose(
        fresh.phi.interior_src, sim.phi.interior_src, atol=1e-4
    )
    np.testing.assert_allclose(
        fresh.mu.interior_src, sim.mu.interior_src, atol=1e-4
    )


@pytest.mark.parametrize("overlap", [False, True])
def test_distributed_restart_matches_uninterrupted(setup, tmp_path, overlap):
    system, phi0, mu0 = setup
    dsim = DistributedSimulation(
        SHAPE, (2, 2), system=system, kernel="buffered", overlap=overlap
    )
    uninterrupted = dsim.run(M, phi0, mu0)

    first = dsim.run(N, phi0, mu0)
    path = tmp_path / f"overlap-{overlap}.npz"
    save_state(path, phi=first.phi, mu=first.mu, time=N * dsim.params.dt,
               step_count=N, z_offset=0, kernel=dsim.kernel)
    state = load_checkpoint(path)
    resumed = dsim.run(
        M - N, state["phi"], state["mu"],
        t0=state["time"], step0=state["step_count"],
    )
    np.testing.assert_allclose(resumed.phi, uninterrupted.phi, atol=1e-4)
    np.testing.assert_allclose(resumed.mu, uninterrupted.mu, atol=1e-4)


@pytest.mark.faults
def test_elastic_shrink_matches_checkpoint_restart(setup, tmp_path):
    """Acceptance: a campaign that loses a rank mid-run shrinks N -> N-1,
    resumes from the last committed sharded checkpoint and finishes with
    fields **bitwise identical** to an unfaulted run that checkpointed
    and restarted at the same step."""
    system, phi0, mu0 = setup
    dsim = DistributedSimulation(SHAPE, (2, 2), system=system, kernel="buffered")
    plan = FaultPlan([Fault(kind="kill_rank", step=5, rank=2)])
    print(plan.describe())
    store = ShardedCheckpointStore(tmp_path / "elastic")
    result = run_campaign(
        dsim, M, phi0, mu0, store=store, checkpoint_every=2, fault_plan=plan
    )
    assert result.steps == M
    assert result.rank_failures == 1
    assert result.shrinks == 1
    assert result.final_ranks == 3

    # reference: unfaulted 4-rank run that checkpoints and restarts at the
    # same boundary (step 4, the last commit before the step-5 kill)
    ref_dsim = DistributedSimulation(
        SHAPE, (2, 2), system=system, kernel="buffered"
    )
    first = ref_dsim.run(N, phi0, mu0)
    ref_store = ShardedCheckpointStore(tmp_path / "ref")
    ref_store.save_global(
        {"phi": first.phi, "mu": first.mu, "time": N * ref_dsim.params.dt,
         "step_count": N, "kernel": ref_dsim.kernel},
        forest=ref_dsim.forest, owner=ref_dsim.owner, n_ranks=ref_dsim.n_ranks,
    )
    state = ref_store.load_latest()
    reference = ref_dsim.run(
        M - N, state["phi"], state["mu"], t0=state["time"], step0=N
    )
    np.testing.assert_array_equal(result.phi, reference.phi)
    np.testing.assert_array_equal(result.mu, reference.mu)


def test_thread_campaign_reports_no_watchdog(setup, tmp_path, monkeypatch):
    """Only process worlds arm the watchdog: with the hang timeout set, a
    thread-backend campaign's report says the watchdog was off."""
    from repro.telemetry import RunTelemetry
    from repro.telemetry.report import validate_run_report

    monkeypatch.setenv("REPRO_SIMMPI_HANG_TIMEOUT", "1.5")
    system, phi0, mu0 = setup
    dsim = DistributedSimulation(
        SHAPE, (2, 2), system=system, kernel="buffered", backend="thread"
    )
    result = run_campaign(
        dsim, 2, phi0, mu0, store=ShardedCheckpointStore(tmp_path),
        checkpoint_every=2,
        telemetry=RunTelemetry(),
    )
    validate_run_report(result.report)
    assert result.report["liveness"]["watchdog_enabled"] is False
    assert result.report["config"]["settings"]["hang_timeout"] == 1.5


def test_campaign_rejects_a_plain_store(setup, tmp_path):
    """Campaigns checkpoint only in-run through the sharded store:
    anything else is refused before any world opens or any file is
    written."""
    import multiprocessing

    system, phi0, mu0 = setup
    dsim = DistributedSimulation(
        SHAPE, (2, 1), system=system, kernel="buffered", backend="process"
    )
    before = multiprocessing.active_children()
    with pytest.raises(TypeError, match="ShardedCheckpointStore"):
        run_campaign(dsim, 2, phi0, mu0, store=tmp_path)
    assert dsim.settings is None  # set when a world opens
    assert multiprocessing.active_children() == before
    assert list(tmp_path.iterdir()) == []


@pytest.mark.faults
@pytest.mark.hangs
@pytest.mark.timeout(600)
@pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="process-backend hang containment needs the fork start method",
)
def test_watchdog_contains_stalled_process_rank(setup, tmp_path, monkeypatch):
    """Acceptance (ISSUE 7): a rank that *hangs* (stops communicating
    without raising) mid-campaign on the process backend is detected by
    the liveness watchdog within the deadline, killed, the campaign
    shrinks 4 -> 3 and resumes from the newest sharded checkpoint with
    fields **bitwise identical** to a checkpoint-restarted reference —
    all in bounded wall-clock, nowhere near the stall's 30 s cap."""
    import json
    import time as _time

    from repro.telemetry import RunTelemetry
    from repro.telemetry.report import validate_run_report

    monkeypatch.setenv("REPRO_SIMMPI_HANG_TIMEOUT", "1.5")
    system, phi0, mu0 = setup
    dsim = DistributedSimulation(
        SHAPE, (2, 2), system=system, kernel="buffered", backend="process"
    )
    plan = FaultPlan([Fault(kind="rank_stall", step=5, rank=2, delay=30.0)])
    print(plan.describe())
    store = ShardedCheckpointStore(tmp_path / "elastic")
    t0 = _time.monotonic()
    result = run_campaign(
        dsim, M, phi0, mu0, store=store, checkpoint_every=2,
        fault_plan=plan,
        telemetry=RunTelemetry(directory=tmp_path / "tel", run_id="hang"),
    )
    elapsed = _time.monotonic() - t0
    assert elapsed < 120, f"containment took {elapsed:.1f}s"
    assert result.steps == M
    assert result.rank_failures == 1
    assert result.shrinks == 1
    assert result.final_ranks == 3
    assert len(result.faults_fired) == 1  # child fire mirrored to parent

    # the versioned report carries the liveness section
    validate_run_report(result.report)
    liveness = result.report["liveness"]
    assert liveness["hangs_detected"] == 1
    assert liveness["stalls_injected"] == 1
    assert liveness["watchdog_enabled"] is True

    # hang/timeout events appear in the merged event log
    merged = (tmp_path / "tel" / "events-merged.jsonl").read_text()
    kinds = [json.loads(line)["kind"] for line in merged.splitlines()]
    assert "hang_detected" in kinds
    assert "rank_failed" in kinds
    assert "comm_shrunk" in kinds

    # bitwise-identical resume: reference run checkpoints and restarts
    # at the same boundary (step 4, the last commit before the stall)
    ref_dsim = DistributedSimulation(
        SHAPE, (2, 2), system=system, kernel="buffered"
    )
    first = ref_dsim.run(N, phi0, mu0)
    ref_store = ShardedCheckpointStore(tmp_path / "ref")
    ref_store.save_global(
        {"phi": first.phi, "mu": first.mu, "time": N * ref_dsim.params.dt,
         "step_count": N, "kernel": ref_dsim.kernel},
        forest=ref_dsim.forest, owner=ref_dsim.owner, n_ranks=ref_dsim.n_ranks,
    )
    state = ref_store.load_latest()
    reference = ref_dsim.run(
        M - N, state["phi"], state["mu"], t0=state["time"], step0=N
    )
    np.testing.assert_array_equal(result.phi, reference.phi)
    np.testing.assert_array_equal(result.mu, reference.mu)


def test_distributed_chunked_equals_single_run(setup):
    """t0/step0 continuation without a checkpoint is exact (float64)."""
    system, phi0, mu0 = setup
    dsim = DistributedSimulation(SHAPE, (2, 1), system=system, kernel="buffered")
    whole = dsim.run(M, phi0, mu0)
    first = dsim.run(N, phi0, mu0)
    rest = dsim.run(
        M - N, first.phi, first.mu, t0=N * dsim.params.dt, step0=N
    )
    np.testing.assert_array_equal(rest.phi, whole.phi)
    np.testing.assert_array_equal(rest.mu, whole.mu)
