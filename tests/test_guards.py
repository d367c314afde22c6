"""Tests of the invariant guardrails and rollback-with-backoff stepping."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.kernels import rung_available
from repro.core.solver import Simulation
from repro.resilience import (
    CheckpointStore,
    DivergenceError,
    Fault,
    FaultPlan,
    GuardedSimulation,
    InvariantViolation,
    StateGuard,
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
        guard = StateGuard(mass_drift_rtol=0.05)
        guard.capture_reference(sim)
        assert guard.violations(sim) == []
        sim.mu.interior_src[...] += 1.0  # large artificial solute shift
        assert any("mass" in s for s in guard.violations(sim))


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
        for path in sorted(directory.glob("events-rank*.jsonl"))
        for r in read_events(path) if r["kind"] == "guard_trip"
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


class TestGuardedSimulation:
    def test_transient_fault_recovers_and_matches_unfaulted(self, sim, tmp_path):
        plan = FaultPlan([Fault(kind="nan_inject", step=3)], seed=7)
        store = CheckpointStore(tmp_path, keep=2)
        guarded = GuardedSimulation(
            sim, store, checkpoint_every=2, fault_plan=plan
        )
        dt0 = sim.params.dt
        report = guarded.run(6)
        assert report.steps == 6
        assert guarded.rollbacks == 1
        assert len(plan.fired()) == 1
        # transient fault: retried at the original dt, not backed off
        assert sim.params.dt == dt0

        clean = Simulation(
            shape=(5, 8), kernel="buffered",
            system=sim.system, params=sim.params, temperature=sim.temperature,
        )
        clean.initialize_voronoi(seed=1, n_seeds=3)
        clean.step(6)
        # only float32 restart rounding separates the two runs
        np.testing.assert_allclose(
            sim.phi.interior_src, clean.phi.interior_src, atol=1e-6
        )
        np.testing.assert_allclose(
            sim.mu.interior_src, clean.mu.interior_src, atol=1e-6
        )

    def test_persistent_violation_backs_off_then_raises(self, sim, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        # impossible tolerance: every state violates, every retry fails
        guarded = GuardedSimulation(
            sim, store, guard=StateGuard(sum_tol=-1.0),
            max_retries=2, dt_backoff=0.5,
        )
        dt0 = sim.params.dt
        with pytest.raises(DivergenceError) as info:
            guarded.run(4)
        assert info.value.attempts == 2
        assert info.value.violations
        assert info.value.step >= 1
        # the repeated failure at the same step triggered dt backoff
        assert sim.params.dt < dt0

    def test_validates_cadence_arguments(self, sim, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(ValueError):
            GuardedSimulation(sim, store, check_every=0)
        with pytest.raises(ValueError):
            GuardedSimulation(sim, store, dt_backoff=1.5)
