"""Tests of the invariant guardrails and rollback-with-backoff stepping."""

import numpy as np
import pytest

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
