"""Fault-injected recovery suite (``pytest -m faults``).

Each test prints the fault plan (including its seed) so a failure report
carries everything needed to reproduce the exact schedule.
"""

import time as _time

import numpy as np
import pytest

from repro.core.nucleation import smooth_phase_field, voronoi_initial_condition
from repro.distributed import DistributedSimulation
from repro.resilience import (
    FAULT_KINDS,
    DivergenceError,
    Fault,
    FaultPlan,
    FaultyComm,
    InjectedFault,
    RetryPolicy,
    ShardedCheckpointStore,
    run_campaign,
)
from repro.simmpi.runtime import run_spmd
from repro.thermo.system import TernaryEutecticSystem

pytestmark = pytest.mark.faults

SHAPE = (12, 20)
STEPS = 8
SEED = 20150817  # printed via FaultPlan.describe on failure


@pytest.fixture(scope="module")
def setup():
    system = TernaryEutecticSystem()
    phi0, mu0 = voronoi_initial_condition(system, SHAPE, solid_height=7, n_seeds=4)
    phi0 = smooth_phase_field(phi0, 2)
    dsim = DistributedSimulation(SHAPE, (2, 1), system=system, kernel="buffered")
    reference = dsim.run(STEPS, phi0, mu0)
    return dsim, phi0, mu0, reference


class TestFaultPlan:
    def test_random_plans_are_seed_deterministic(self):
        a = FaultPlan.random(SEED, steps=10, n_ranks=4, n_faults=3)
        b = FaultPlan.random(SEED, steps=10, n_ranks=4, n_faults=3)
        assert a.faults == b.faults
        c = FaultPlan.random(SEED + 1, steps=10, n_ranks=4, n_faults=3)
        assert a.faults != c.faults

    def test_faults_fire_once(self):
        plan = FaultPlan([Fault(kind="nan_inject", step=2)], seed=SEED)
        assert plan.fires("nan_inject", step=2) is not None
        assert plan.fires("nan_inject", step=2) is None
        assert plan.pending() == []
        assert len(plan.fired()) == 1

    def test_rank_matching(self):
        plan = FaultPlan([Fault(kind="rank_kill", step=1, rank=2)], seed=SEED)
        assert plan.fires("rank_kill", step=1, rank=0) is None
        assert plan.fires("rank_kill", step=1, rank=2) is not None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault(kind="meteor_strike", step=1)

    def test_describe_names_seed(self):
        plan = FaultPlan([Fault(kind="msg_drop", step=3, rank=1)], seed=SEED)
        text = plan.describe()
        assert str(SEED) in text and "msg_drop" in text

    def test_hang_fault_kinds_exist(self):
        for kind in ("rank_stall", "rank_slow"):
            assert kind in FAULT_KINDS
            Fault(kind=kind, step=1)  # accepted by the validator

    def test_mark_fired_mirrors_a_remote_fire(self):
        # The process backend replays child-side fires into the parent's
        # plan copy so a campaign restart does not re-fire them.
        plan = FaultPlan([Fault(kind="rank_stall", step=5, rank=2)], seed=SEED)
        assert plan.mark_fired("rank_stall", 5, 2) is True
        assert plan.mark_fired("rank_stall", 5, 2) is False  # already spent
        assert plan.fires("rank_stall", step=5, rank=2) is None
        assert len(plan.fired()) == 1

    def test_on_fire_callback_reports_each_fire(self):
        plan = FaultPlan([Fault(kind="nan_inject", step=2)], seed=SEED)
        seen = []
        plan.on_fire = seen.append
        plan.fires("nan_inject", step=2)
        assert seen == [("nan_inject", 2, None)]


def _on_backend(dsim, backend):
    """The fixture's simulation, re-created on *backend*."""
    return DistributedSimulation(
        dsim.shape, dsim.forest.blocks_per_axis, system=dsim.system,
        kernel=dsim.kernel, backend=backend,
    )


class TestRecoveryMatrix:
    """Acceptance matrix: every fault kind recovers to the unfaulted result."""

    @pytest.mark.parametrize(
        "faults",
        [
            pytest.param([Fault(kind="rank_kill", step=5, rank=1)],
                         id="rank-kill"),
            pytest.param([Fault(kind="msg_corrupt", step=4, rank=0)],
                         id="corrupted-ghost-message"),
            pytest.param([Fault(kind="ckpt_truncate", step=6),
                          Fault(kind="rank_kill", step=7, rank=0)],
                         id="truncated-checkpoint"),
            pytest.param([Fault(kind="nan_inject", step=4, rank=1)],
                         id="nan-blow-up"),
        ],
    )
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_campaign_recovers_and_matches(self, setup, tmp_path, faults,
                                           backend):
        dsim, phi0, mu0, reference = setup
        plan = FaultPlan(faults, seed=SEED)
        print(plan.describe())
        store = ShardedCheckpointStore(tmp_path, keep=3, fault_plan=plan)
        result = run_campaign(
            _on_backend(dsim, backend), STEPS, phi0, mu0,
            store=store, checkpoint_every=3, fault_plan=plan,
        )
        assert result.restarts >= 1
        assert result.steps == STEPS
        assert len(result.faults_fired) == len(faults)
        # recovered run matches the unfaulted one within float32
        # restart rounding
        np.testing.assert_allclose(result.phi, reference.phi, atol=1e-5)
        np.testing.assert_allclose(result.mu, reference.mu, atol=1e-5)

    @pytest.mark.parametrize(
        "faults",
        [
            pytest.param([Fault(kind="msg_corrupt", step=4, rank=0)],
                         id="corrupted-ghost-message"),
            pytest.param([Fault(kind="nan_inject", step=4, rank=1)],
                         id="nan-blow-up"),
        ],
    )
    def test_compiled_campaign_recovers_and_matches(self, setup, tmp_path,
                                                    faults):
        """The NaN recoveries on the compiled rung, whose block sweeps
        report the non-finite values the guard trips on."""
        from repro.core.kernels import rung_available

        if not rung_available("compiled"):
            pytest.skip("no compiled kernel backend available")
        dsim, phi0, mu0, _reference = setup

        def compiled_sim():
            return DistributedSimulation(
                dsim.shape, dsim.forest.blocks_per_axis, system=dsim.system,
                kernel="compiled",
            )

        with compiled_sim() as plain:
            reference = plain.run(STEPS, phi0, mu0)
        plan = FaultPlan(faults, seed=SEED)
        print(plan.describe())
        result = run_campaign(
            compiled_sim(), STEPS, phi0, mu0,
            store=ShardedCheckpointStore(tmp_path, keep=3, fault_plan=plan),
            checkpoint_every=3, fault_plan=plan,
        )
        assert result.restarts >= 1
        assert result.steps == STEPS
        assert len(result.faults_fired) == len(faults)
        np.testing.assert_allclose(result.phi, reference.phi, atol=1e-5)
        np.testing.assert_allclose(result.mu, reference.mu, atol=1e-5)

    def test_delayed_message_does_not_stall_the_sender(self):
        # regression (ISSUE 7): msg_delay used to sleep inline on the
        # sending rank, stalling it — the opposite of a *late delivery*.
        plan = FaultPlan([Fault(kind="msg_delay", step=0, rank=0,
                                delay=0.4)], seed=SEED)

        def fn(comm):
            fc = FaultyComm(comm, plan)
            if comm.rank == 0:
                t0 = _time.monotonic()
                fc.send(np.arange(5.0), dest=1, tag=9)
                return _time.monotonic() - t0
            return comm.recv(0, tag=9)

        results = run_spmd(2, fn)
        assert results[0] < 0.3  # the send returned without the lag
        np.testing.assert_array_equal(results[1], np.arange(5.0))

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_delayed_message_is_harmless(self, setup, tmp_path, backend):
        dsim, phi0, mu0, reference = setup
        plan = FaultPlan([Fault(kind="msg_delay", step=4, rank=0)], seed=SEED)
        print(plan.describe())
        store = ShardedCheckpointStore(tmp_path, keep=3)
        result = run_campaign(
            _on_backend(dsim, backend), STEPS, phi0, mu0,
            store=store, checkpoint_every=3, fault_plan=plan,
        )
        assert result.restarts == 0
        np.testing.assert_array_equal(result.phi, reference.phi)
        np.testing.assert_array_equal(result.mu, reference.mu)

    def test_restart_budget_exhaustion_raises_structured(self, setup, tmp_path):
        dsim, phi0, mu0, _ = setup
        # more kills than the budget allows
        plan = FaultPlan(
            [Fault(kind="rank_kill", step=2, rank=0) for _ in range(4)],
            seed=SEED,
        )
        print(plan.describe())
        store = ShardedCheckpointStore(tmp_path, keep=3)
        with pytest.raises(DivergenceError) as info:
            run_campaign(
                dsim, STEPS, phi0, mu0,
                store=store, checkpoint_every=3,
                fault_plan=plan, max_restarts=2,
            )
        assert info.value.attempts == 2


class TestSpmdRetry:
    def test_run_spmd_annotates_failing_rank(self):
        def fn(comm):
            if comm.rank == 1:
                raise InjectedFault("rank_kill", rank=comm.rank)
            comm.barrier()

        with pytest.raises(InjectedFault) as info:
            run_spmd(2, fn)
        assert info.value.simmpi_rank == 1


class TestFaultyComm:
    def test_drop_raises_on_sender(self):
        plan = FaultPlan([Fault(kind="msg_drop", step=0, rank=0)], seed=SEED)

        def fn(comm):
            fc = FaultyComm(comm, plan)
            if comm.rank == 0:
                fc.send(np.ones(3), dest=1, tag=9)
            else:
                return comm.recv(0, tag=9)

        with pytest.raises(InjectedFault, match="msg_drop"):
            run_spmd(2, fn)

    def test_corrupt_poisons_payload(self):
        plan = FaultPlan([Fault(kind="msg_corrupt", step=0, rank=0)], seed=SEED)

        def fn(comm):
            fc = FaultyComm(comm, plan)
            if comm.rank == 0:
                fc.send(np.ones(6), dest=1, tag=9)
                return None
            return comm.recv(0, tag=9)

        results = run_spmd(2, fn)
        assert np.isnan(results[1]).any()
        assert not np.isnan(results[1]).all()

    # regression: message faults must hit every outgoing path, not just
    # blocking send — the overlap schedule uses isend, collectives carry
    # checkpoint entries and reductions

    def test_isend_drop_raises_on_sender(self):
        plan = FaultPlan([Fault(kind="msg_drop", step=0, rank=0)], seed=SEED)

        def fn(comm):
            fc = FaultyComm(comm, plan)
            if comm.rank == 0:
                req = fc.isend(np.ones(3), dest=1, tag=9)
                req.wait()
            else:
                return comm.recv(0, tag=9)

        with pytest.raises(InjectedFault, match="msg_drop"):
            run_spmd(2, fn)

    def test_sendrecv_corrupts_outgoing_payload(self):
        plan = FaultPlan([Fault(kind="msg_corrupt", step=0, rank=0)], seed=SEED)

        def fn(comm):
            fc = FaultyComm(comm, plan)
            other = 1 - comm.rank
            return fc.sendrecv(np.ones(6), dest=other, source=other, sendtag=9)

        results = run_spmd(2, fn)
        # rank 0's outgoing payload was poisoned, so rank 1 received NaNs;
        # rank 0 received rank 1's clean payload
        assert not np.isnan(results[0]).any()
        assert np.isnan(results[1]).any()

    def test_bcast_corrupts_at_root_only(self):
        plan = FaultPlan([Fault(kind="msg_corrupt", step=0, rank=0)], seed=SEED)

        def fn(comm):
            fc = FaultyComm(comm, plan)
            obj = np.ones(6) if comm.rank == 0 else None
            return fc.bcast(obj, root=0)

        results = run_spmd(3, fn)
        for received in results:
            assert np.isnan(received).any()

    def test_allreduce_drop_raises(self):
        plan = FaultPlan([Fault(kind="msg_drop", step=0, rank=1)], seed=SEED)

        def fn(comm):
            fc = FaultyComm(comm, plan)
            return fc.allreduce(np.ones(3))

        with pytest.raises(InjectedFault, match="msg_drop"):
            run_spmd(2, fn)

    def test_gather_corrupts_contribution(self):
        plan = FaultPlan([Fault(kind="msg_corrupt", step=0, rank=1)], seed=SEED)

        def fn(comm):
            fc = FaultyComm(comm, plan)
            return fc.gather(np.ones(6), root=0)

        results = run_spmd(2, fn)
        gathered = results[0]
        assert not np.isnan(gathered[0]).any()
        assert np.isnan(gathered[1]).any()


def _channel_pair(comm, plan):
    """A FaultyComm plus one halo channel in each direction (2 ranks)."""
    fc = FaultyComm(comm, plan)
    peer = 1 - comm.rank
    send = fc.register_halo(peer, 0, 6)
    return fc, send, fc.accept_halo(peer, 0)


@pytest.mark.parametrize("backend", ["thread", "process"])
class TestHaloChannelFaults:
    """Message faults on ghost traffic fire at the halo-channel notify —
    the path every run, faulted or not, exchanges ghosts through."""

    def test_drop_raises_on_sender(self, backend):
        plan = FaultPlan([Fault(kind="msg_drop", step=0, rank=0)], seed=SEED)

        def fn(comm):
            _, send, recv = _channel_pair(comm, plan)
            send.slot()[:] = 1.0
            send.notify(6)
            recv.wait()

        with pytest.raises(InjectedFault, match="msg_drop") as info:
            run_spmd(2, fn, backend=backend)
        assert info.value.simmpi_rank == 0

    def test_corrupt_poisons_the_packed_slot(self, backend):
        plan = FaultPlan([Fault(kind="msg_corrupt", step=0, rank=0)], seed=SEED)

        def fn(comm):
            _, send, recv = _channel_pair(comm, plan)
            send.slot()[:] = 1.0
            send.notify(4)      # only the packed prefix is poisoned
            return recv.wait().copy()

        results = run_spmd(2, fn, backend=backend)
        assert not np.isnan(results[0]).any()   # rank 1's slot is clean
        assert np.isnan(results[1][:4]).any()
        assert not np.isnan(results[1][:4]).all()
        assert not np.isnan(results[1][4:]).any()

    def test_delayed_notify_is_not_overtaken(self, backend):
        # A second notify overtaking the delayed one would be, by
        # design, a sequence-skew error on the receiver: it must wait
        # for the timer.  The first notify still returns at once (a late
        # delivery is not a stalled rank).
        plan = FaultPlan([Fault(kind="msg_delay", step=0, rank=0,
                                delay=0.4)], seed=SEED)

        def fn(comm):
            _, send, recv = _channel_pair(comm, plan)
            lags, got = [], []
            for round_ in range(2):
                send.slot()[:] = 10.0 * comm.rank + round_
                t0 = _time.monotonic()
                send.notify(6)
                lags.append(_time.monotonic() - t0)
            for round_ in range(2):
                got.append(float(recv.wait()[0]))
            return lags, got

        results = run_spmd(2, fn, backend=backend)
        (first, second), got0 = results[0]
        assert first < 0.3 <= second
        assert got0 == [10.0, 11.0]
        assert results[1][1] == [0.0, 1.0]

    def test_fault_injected_run_registers_halo_channels(
        self, backend, setup, tmp_path
    ):
        """A run with a fault plan takes the production exchange path."""
        from repro.telemetry import RunTelemetry

        dsim, phi0, mu0, reference = setup
        plan = FaultPlan([Fault(kind="msg_delay", step=1, rank=1)], seed=SEED)
        telemetry = RunTelemetry(directory=tmp_path)
        result = _on_backend(dsim, backend).run(
            STEPS, phi0, mu0, fault_plan=plan, telemetry=telemetry,
        )
        registered = [e for e in telemetry.merge_events()
                      if e["kind"] == "halo_channels_registered"]
        assert len(registered) == 2
        assert all(e["data"]["channels"] > 0 for e in registered)
        assert "halo_channels" not in result.report["config"]
        assert len(plan.fired()) == 1
        np.testing.assert_array_equal(result.phi, reference.phi)


def test_killed_process_rank_leaves_no_halo_segment(setup, tmp_path):
    """A process-backend rank_kill mid-run tears the world down with its
    halo channels registered; once the campaign relaunched and finished,
    no ``repro-smm-<dead pid>-*`` segment may be left in /dev/shm."""
    import os

    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm on this platform")

    def segments():
        return {n for n in os.listdir("/dev/shm") if n.startswith("repro-smm-")}

    dsim, phi0, mu0, reference = setup
    before = segments()
    plan = FaultPlan([Fault(kind="rank_kill", step=5, rank=1)], seed=SEED)
    print(plan.describe())
    result = run_campaign(
        _on_backend(dsim, "process"), STEPS, phi0, mu0,
        store=ShardedCheckpointStore(tmp_path, keep=3), checkpoint_every=3,
        fault_plan=plan,
    )
    assert result.restarts == 1
    np.testing.assert_allclose(result.phi, reference.phi, atol=1e-5)
    assert segments() - before == set()


class TestElasticCampaign:
    """kill_rank shrinks the campaign; checkpoint I/O faults are retried."""

    def _sim(self):
        system = TernaryEutecticSystem()
        phi0, mu0 = voronoi_initial_condition(
            system, SHAPE, solid_height=7, n_seeds=4
        )
        phi0 = smooth_phase_field(phi0, 2)
        dsim = DistributedSimulation(
            SHAPE, (2, 2), system=system, kernel="buffered"
        )
        return dsim, phi0, mu0

    def test_kill_rank_shrinks_and_finishes(self, tmp_path):
        dsim, phi0, mu0 = self._sim()
        plan = FaultPlan([Fault(kind="kill_rank", step=3, rank=1)], seed=SEED)
        print(plan.describe())
        store = ShardedCheckpointStore(tmp_path, fault_plan=plan)
        result = run_campaign(
            dsim, STEPS, phi0, mu0,
            store=store, checkpoint_every=2, fault_plan=plan,
        )
        assert result.steps == STEPS
        assert result.shrinks == 1
        assert result.final_ranks == 3
        assert result.restarts == 1
        ref = dsim.run(STEPS, phi0, mu0)
        np.testing.assert_allclose(result.phi, ref.phi, atol=1e-5)

    def test_repeated_kills_shrink_to_one_rank(self, tmp_path):
        dsim, phi0, mu0 = self._sim()
        plan = FaultPlan(
            [Fault(kind="kill_rank", step=3, rank=1),
             Fault(kind="kill_rank", step=5, rank=2),
             Fault(kind="kill_rank", step=6, rank=1)],
            seed=SEED,
        )
        print(plan.describe())
        store = ShardedCheckpointStore(tmp_path, fault_plan=plan)
        result = run_campaign(
            dsim, STEPS, phi0, mu0,
            store=store, checkpoint_every=2, fault_plan=plan,
        )
        assert result.steps == STEPS
        assert result.shrinks == 3
        assert result.final_ranks == 1
        ref = dsim.run(STEPS, phi0, mu0)
        np.testing.assert_allclose(result.phi, ref.phi, atol=1e-5)

    def test_transient_io_faults_retried_without_restart(self, tmp_path):
        dsim, phi0, mu0 = self._sim()
        plan = FaultPlan(
            [Fault(kind="io_enospc", step=2, rank=1),
             Fault(kind="io_torn_write", step=2, rank=3)],
            seed=SEED,
        )
        print(plan.describe())
        store = ShardedCheckpointStore(
            tmp_path, fault_plan=plan,
            retry_policy=RetryPolicy(attempts=4, base_delay=1e-4),
        )
        result = run_campaign(
            dsim, STEPS, phi0, mu0,
            store=store, checkpoint_every=2, fault_plan=plan,
        )
        assert result.restarts == 0
        assert result.io_retries >= 2
        assert result.checkpoints_skipped == 0
        ref = dsim.run(STEPS, phi0, mu0)
        np.testing.assert_array_equal(result.phi, ref.phi)

    def test_persistent_io_outage_skips_checkpoint_never_crashes(
        self, tmp_path
    ):
        dsim, phi0, mu0 = self._sim()
        plan = FaultPlan(
            [Fault(kind="io_enospc", step=2, rank=1) for _ in range(8)],
            seed=SEED,
        )
        print(plan.describe())
        store = ShardedCheckpointStore(
            tmp_path, fault_plan=plan,
            retry_policy=RetryPolicy(attempts=3, base_delay=1e-4),
        )
        result = run_campaign(
            dsim, STEPS, phi0, mu0,
            store=store, checkpoint_every=2, fault_plan=plan,
        )
        assert result.restarts == 0
        assert result.checkpoints_skipped == 1
        assert 2 not in store.steps()  # the outage generation was skipped
        assert store.steps()[-1] == STEPS
        ref = dsim.run(STEPS, phi0, mu0)
        np.testing.assert_array_equal(result.phi, ref.phi)

    def test_rank_slow_below_hang_threshold_is_harmless(self, tmp_path):
        dsim, phi0, mu0 = self._sim()
        plan = FaultPlan([Fault(kind="rank_slow", step=3, rank=1,
                                delay=0.2)], seed=SEED)
        print(plan.describe())
        store = ShardedCheckpointStore(tmp_path, fault_plan=plan)
        result = run_campaign(
            dsim, STEPS, phi0, mu0,
            store=store, checkpoint_every=2, fault_plan=plan,
        )
        assert result.restarts == 0
        assert result.shrinks == 0
        assert len(result.faults_fired) == 1
        ref = dsim.run(STEPS, phi0, mu0)
        np.testing.assert_array_equal(result.phi, ref.phi)
        np.testing.assert_array_equal(result.mu, ref.mu)

    @pytest.mark.hangs
    @pytest.mark.timeout(120)
    def test_rank_stall_contained_by_recv_deadline(
        self, tmp_path, monkeypatch
    ):
        """A hung (not crashed) rank would deadlock the campaign forever;
        with deadlines armed the peers' recv timeout converts the hang
        into a RankFailure, the campaign shrinks 4 -> 3 and finishes."""
        monkeypatch.setenv("REPRO_SIMMPI_TIMEOUT", "2.0")
        dsim, phi0, mu0 = self._sim()
        plan = FaultPlan([Fault(kind="rank_stall", step=3, rank=1,
                                delay=30.0)], seed=SEED)
        print(plan.describe())
        store = ShardedCheckpointStore(tmp_path, fault_plan=plan)
        t0 = _time.monotonic()
        result = run_campaign(
            dsim, STEPS, phi0, mu0,
            store=store, checkpoint_every=2, fault_plan=plan,
        )
        # contained well within the stall's 30 s safety cap
        assert _time.monotonic() - t0 < 25
        assert result.steps == STEPS
        assert result.shrinks == 1
        assert result.final_ranks == 3
        assert result.restarts == 1
        ref = dsim.run(STEPS, phi0, mu0)
        np.testing.assert_allclose(result.phi, ref.phi, atol=1e-5)

    def test_elastic_telemetry_and_report(self, tmp_path):
        import json

        from repro.telemetry import RunTelemetry
        from repro.telemetry.report import validate_run_report

        dsim, phi0, mu0 = self._sim()
        plan = FaultPlan(
            [Fault(kind="kill_rank", step=3, rank=1),
             Fault(kind="io_enospc", step=2, rank=0)],
            seed=SEED,
        )
        print(plan.describe())
        store = ShardedCheckpointStore(
            tmp_path / "ck", fault_plan=plan,
            retry_policy=RetryPolicy(attempts=4, base_delay=1e-4),
        )
        result = run_campaign(
            dsim, STEPS, phi0, mu0,
            store=store, checkpoint_every=2, fault_plan=plan,
            telemetry=RunTelemetry(directory=tmp_path / "tel", run_id="el"),
        )
        validate_run_report(result.report)
        elastic = result.report["elastic"]
        assert elastic["rank_failures"] == 1
        assert elastic["shrinks"] == 1
        assert elastic["final_ranks"] == 3
        assert elastic["io_retries"] >= 1
        assert elastic["checkpoints_skipped"] == 0

        merged = (tmp_path / "tel" / "events-merged.jsonl").read_text()
        kinds = [json.loads(line)["kind"] for line in merged.splitlines()]
        for kind in ("rank_failed", "comm_shrunk", "reshard", "io_retry",
                     "checkpoint"):
            assert kind in kinds, f"missing {kind} event"
