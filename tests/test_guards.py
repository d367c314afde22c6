"""Tests of the invariant guards and of the one recovery loop they feed."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.kernels import rung_available
from repro.core.solver import Simulation, solute_content
from repro.resilience import (
    Fault,
    FaultPlan,
    InvariantViolation,
    content_violation,
    find_violations,
)
from repro.resilience.faults import poison


@pytest.fixture
def sim():
    s = Simulation(shape=(5, 8), kernel="buffered")
    s.initialize_voronoi(seed=1, n_seeds=3)
    return s


class TestInvariants:
    def test_healthy_state_clean(self, sim):
        assert find_violations(sim.phi.interior_src, sim.mu.interior_src) == []

    def test_nan_detected(self, sim):
        poison(sim.phi.interior_src)
        v = find_violations(sim.phi.interior_src, sim.mu.interior_src)
        assert any("non-finite" in s for s in v)

    def test_inf_in_mu_detected(self, sim):
        sim.mu.interior_src[tuple(0 for _ in range(sim.mu.src.ndim))] = np.inf
        v = find_violations(sim.phi.interior_src, sim.mu.interior_src)
        assert any("mu" in s for s in v)

    def test_phase_sum_drift_detected(self, sim):
        phi = sim.phi.interior_src.copy()
        phi[0] += 0.01
        v = find_violations(phi, sim.mu.interior_src)
        assert any("phase sum" in s for s in v)

    def test_simplex_bounds_detected(self, sim):
        phi = sim.phi.interior_src.copy()
        idx = tuple(0 for _ in range(phi.ndim - 1))
        phi[(0,) + idx] = 1.5
        phi[(1,) + idx] = -0.5
        v = find_violations(phi, sim.mu.interior_src)
        assert any("simplex" in s for s in v)

    def test_mass_drift_detected(self, sim):
        """The content check reads the one content formula, which is the
        serial solver's solute mass and, over a stack of blocks (as a
        rank calls it), their summed content."""
        phi, mu = sim.phi.interior_src, sim.mu.interior_src
        temps = sim.slice_temperatures(sim.time)[1:-1]
        before = solute_content(sim.system, phi, mu, temps)
        np.testing.assert_array_equal(before, sim.solute_mass())
        pair = solute_content(sim.system, np.stack([phi, phi], 1),
                              np.stack([mu, mu], 1), [temps, temps])
        np.testing.assert_allclose(pair, 2 * before, rtol=1e-12)
        assert content_violation(sim.solute_mass(), before) is None
        sim.mu.interior_src[...] += 1.0  # large artificial solute shift
        assert "solute content" in content_violation(sim.solute_mass(), before)
        assert content_violation(np.full_like(before, np.nan), before)


#: Four blocks on two ranks (rank 0: blocks 0, 1; rank 1: blocks 2, 3),
#: wide enough along y that a value blown up mid-block reaches no block
#: of the other rank within the step that produced it.
GUARD_SHAPE, GUARD_BLOCKS, GUARD_RANKS = (4, 10, 8), (1, 2, 2), 2
SRC = Path(__file__).resolve().parents[1] / "src"


def _guard_inputs(case: str):
    """Initial state and fault plan of one guard-trip case: a NaN
    injected into a rank's field, a NaN-corrupted ghost message, an inf
    in the initial state, or (any other *case*) none of them."""
    sim = Simulation(shape=GUARD_SHAPE, kernel="buffered")
    sim.initialize_voronoi(seed=1, n_seeds=3)
    phi0 = sim.phi.interior_src.copy()
    mu0 = sim.mu.interior_src.copy()
    plan = None
    if case == "nan_inject":
        plan = FaultPlan([Fault(kind="nan_inject", step=2, rank=1)])
    elif case == "msg_corrupt":
        plan = FaultPlan([Fault(kind="msg_corrupt", step=2, rank=0)])
    elif case == "inf":
        mu0[1, 2, 2, 1] = np.inf
    return phi0, mu0, plan


def _trip(kernel: str, backend: str, case: str, directory: Path):
    """``(step, rank, [(rank, step, block) of every guard_trip event])``
    of a guarded run of *case*."""
    from repro.distributed import DistributedSimulation
    from repro.telemetry import RunTelemetry
    from repro.telemetry.events import read_events

    phi0, mu0, plan = _guard_inputs(case)
    with DistributedSimulation(
        GUARD_SHAPE, GUARD_BLOCKS, kernel=kernel, n_ranks=GUARD_RANKS,
        backend=backend,
    ) as dsim:
        with pytest.raises(InvariantViolation) as info:
            dsim.run(6, phi0, mu0, guard=True, fault_plan=plan,
                     telemetry=RunTelemetry(directory=directory))
    trips = [
        (r["rank"], r["data"]["step"], r["data"]["block"])
        for r in read_events(directory / "events-merged.jsonl")
        if r["kind"] == "guard_trip"
    ]
    return info.value.step, info.value.rank, trips


def _guard_parity(kernel: str, backend: str, case: str, directory) -> tuple:
    """The trip of *case* with the guard as shipped, and with a stepper
    that reports non-finite values after every step, so that the guard
    scans every block after every step: the reference it must match."""
    from repro.core.stepper import Stepper

    directory = Path(directory)
    fused = _trip(kernel, backend, case, directory / "fused")
    Stepper.nonfinite = property(lambda self: True, lambda self, v: None)
    try:
        scan = _trip(kernel, backend, case, directory / "scan")
    finally:
        del Stepper.nonfinite
    return fused, scan


#: ``(rank, step, block)`` of the one guard trip of each case.
EXPECTED_TRIPS = {
    "nan_inject": (1, 3, 2),
    "msg_corrupt": (1, 3, 2),
    "inf": (0, 1, 0),
}


class TestDistributedGuard:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_guard_raises_at_the_step_after_the_injection(self, backend):
        """A NaN injected before step k is caught by the guard hook after
        it: InvariantViolation at step k + 1, on the rank that owns it."""
        from repro.distributed import DistributedSimulation

        sim = Simulation(shape=(6, 6, 8), kernel="buffered")
        sim.initialize_voronoi(seed=1, n_seeds=3)
        plan = FaultPlan([Fault(kind="nan_inject", step=2, rank=1)])
        with DistributedSimulation(
            (6, 6, 8), (1, 1, 2), kernel="buffered", backend=backend,
        ) as dsim:
            with pytest.raises(InvariantViolation) as info:
                dsim.run(5, sim.phi.interior_src, sim.mu.interior_src,
                         guard=True, fault_plan=plan)
        assert info.value.step == 3
        assert info.value.rank == 1
        assert info.value.violations

    @pytest.mark.parametrize("case", ["nan_inject", "msg_corrupt", "inf"])
    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("kernel", ["buffered", "compiled"])
    def test_trips_where_a_full_scan_trips(self, kernel, backend, case,
                                           tmp_path):
        """The guard reads the sweeps' non-finite report and scans only
        after one: it trips at the same step, on the same rank, naming
        the same block as a scan of every block after every step."""
        if kernel == "compiled" and not rung_available("compiled"):
            pytest.skip("no compiled kernel backend available")
        if kernel == "compiled" and backend == "process":
            # Forked ranks need a parent that never ran an OpenMP
            # parallel region: check in an interpreter of its own.
            code = (
                f"import sys; sys.path[:0] = [{str(SRC)!r}, "
                f"{str(SRC.parent)!r}]\n"
                "from tests.test_guards import _guard_parity\n"
                f"print(repr(_guard_parity({kernel!r}, {backend!r}, "
                f"{case!r}, {str(tmp_path)!r})))\n"
            )
            done = subprocess.run(
                [sys.executable, "-c", code], capture_output=True,
                text=True, timeout=300,
                env={**os.environ, "OMP_NUM_THREADS": "1"},
            )
            assert done.returncode == 0, done.stderr
            fused, scan = ast.literal_eval(done.stdout.splitlines()[-1])
        else:
            fused, scan = _guard_parity(kernel, backend, case, tmp_path)
        assert fused == scan
        step, rank, trips = fused
        assert trips == [(rank, step, EXPECTED_TRIPS[case][2])]
        assert (rank, step) == EXPECTED_TRIPS[case][:2]

    @pytest.mark.parametrize("kernel", ["buffered", "compiled"])
    def test_healthy_guarded_campaign_never_trips(self, kernel, tmp_path):
        """50 guarded steps of a healthy run: no trip, no restart, and
        the state of an unguarded run."""
        from repro.distributed import DistributedSimulation
        from repro.resilience import ShardedCheckpointStore, run_campaign

        if kernel == "compiled" and not rung_available("compiled"):
            pytest.skip("no compiled kernel backend available")
        phi0, mu0, _plan = _guard_inputs("healthy")
        with DistributedSimulation(GUARD_SHAPE, GUARD_BLOCKS, kernel=kernel,
                                   n_ranks=GUARD_RANKS) as dsim:
            plain = dsim.run(50, phi0, mu0)
        result = run_campaign(
            DistributedSimulation(GUARD_SHAPE, GUARD_BLOCKS, kernel=kernel,
                                  n_ranks=GUARD_RANKS),
            50, phi0, mu0, store=ShardedCheckpointStore(tmp_path),
            checkpoint_every=25, guard=True,
        )
        assert result.restarts == 0
        np.testing.assert_array_equal(result.phi, plain.phi)
        np.testing.assert_array_equal(result.mu, plain.mu)


class TestGuardedCampaign:
    """A guarded run, serial or distributed, is ``run_campaign``: finite
    values every step, physical invariants at every checkpoint step."""

    @pytest.mark.parametrize("faults", [
        pytest.param([], id="unfaulted"),
        pytest.param([Fault(kind="nan_inject", step=3)], id="nan-inject"),
    ])
    def test_one_rank_campaign_is_the_serial_run(self, faults, tmp_path):
        """The serial solver needs no recovery loop of its own: a campaign
        on a one-rank thread world steps it bitwise, and a NaN recovery
        only adds the float32 rounding of the restart state."""
        from repro.distributed import DistributedSimulation
        from repro.resilience import ShardedCheckpointStore, run_campaign

        sim = Simulation(shape=(6, 6, 10), kernel="buffered")
        sim.initialize_voronoi(seed=5, solid_height=4, n_seeds=4, smooth=2)
        phi0, mu0 = sim.phi.interior_src.copy(), sim.mu.interior_src.copy()
        sim.step(8)
        plan = FaultPlan(faults)
        result = run_campaign(
            DistributedSimulation((6, 6, 10), (1, 1, 1), n_ranks=1,
                                  kernel="buffered", backend="thread"),
            8, phi0, mu0,
            store=ShardedCheckpointStore(tmp_path), checkpoint_every=2,
            fault_plan=plan,
        )
        assert result.restarts == len(faults)
        assert len(result.faults_fired) == len(faults)
        if faults:
            np.testing.assert_allclose(result.phi, sim.phi.interior_src,
                                       rtol=0, atol=1e-5)
            np.testing.assert_allclose(result.mu, sim.mu.interior_src,
                                       rtol=0, atol=1e-5)
        else:
            np.testing.assert_array_equal(result.phi, sim.phi.interior_src)
            np.testing.assert_array_equal(result.mu, sim.mu.interior_src)

    def test_broken_partition_of_unity_is_never_committed(self, tmp_path,
                                                          monkeypatch):
        """A state off the simplex at a checkpoint step trips the guard
        before its shards are written: the campaign resumes from the
        previous generation, and only the clean replay commits that step."""
        from repro.core.stepper import Stepper
        from repro.distributed import DistributedSimulation
        from repro.resilience import ShardedCheckpointStore, run_campaign
        from repro.telemetry import RunTelemetry
        from repro.telemetry.events import read_events

        phi0, mu0, _plan = _guard_inputs("healthy")

        def sim():
            return DistributedSimulation(GUARD_SHAPE, GUARD_BLOCKS,
                                         kernel="buffered",
                                         n_ranks=GUARD_RANKS,
                                         backend="thread")

        with sim() as plain:
            reference = plain.run(8, phi0, mu0)
        step = Stepper.step
        dt = plain.params.dt
        broken = []

        def step_then_break(self, blocks, t):
            # the step that ends at step count 6 leaves one cell's phase
            # sum at 1.01, once
            step(self, blocks, t)
            if not broken and abs(t - 5 * dt) < dt / 2:
                broken.append(t)
                blocks[0][0].interior_src[(0, 1, 1, 1)] += 0.01

        monkeypatch.setattr(Stepper, "step", step_then_break)
        store = ShardedCheckpointStore(tmp_path / "ck", keep=8)
        result = run_campaign(
            sim(), 8, phi0, mu0, store=store, checkpoint_every=2,
            telemetry=RunTelemetry(directory=tmp_path / "tel"),
        )
        assert len(broken) == 1
        assert result.restarts == 1
        # the initial state, 2 and 4 before the trip; 6 and 8 after it
        assert result.checkpoints_written == 5
        assert store.steps() == [0, 2, 4, 6, 8]
        records = read_events(tmp_path / "tel" / "events-merged.jsonl")
        trip = next(r for r in records if r["kind"] == "guard_trip")
        assert trip["data"]["step"] == 6
        assert "phase sum" in trip["data"]["reason"]
        restart = next(r for r in records if r["kind"] == "restart")
        assert restart["data"]["step"] == 4
        assert [r["data"]["step"] for r in records
                if r["kind"] == "checkpoint"] == [0, 2, 4, 6, 8]
        np.testing.assert_allclose(result.phi, reference.phi, atol=1e-5)
        np.testing.assert_allclose(result.mu, reference.mu, atol=1e-5)

    def test_a_repeating_violation_exhausts_the_restart_budget(
        self, tmp_path, monkeypatch
    ):
        """Restarts run at the same dt: a violation that recurs on every
        replay ends in a DivergenceError at the last good generation."""
        from repro.distributed import DistributedSimulation
        from repro.resilience import (
            DivergenceError,
            ShardedCheckpointStore,
            guards,
            run_campaign,
        )

        phi0, mu0, _plan = _guard_inputs("healthy")
        monkeypatch.setattr(guards, "SUM_TOL", -1.0)  # every state violates

        with pytest.raises(DivergenceError) as info:
            run_campaign(
                DistributedSimulation(GUARD_SHAPE, GUARD_BLOCKS,
                                      kernel="buffered", n_ranks=GUARD_RANKS,
                                      backend="thread"),
                4, phi0, mu0, store=ShardedCheckpointStore(tmp_path),
                checkpoint_every=2, max_restarts=2,
            )
        assert info.value.attempts == 2
        assert info.value.step == 0
        assert "invariant violation at step 2" in str(info.value)
