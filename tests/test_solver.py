"""Integration tests of the single-block simulation driver."""

import numpy as np
import pytest

from repro.core.moving_window import MovingWindow
from repro.core.solver import Simulation
from repro.core.temperature import FrozenTemperature
from repro.thermo.system import TernaryEutecticSystem


@pytest.fixture(scope="module")
def system():
    return TernaryEutecticSystem()


class TestSetup:
    def test_default_state_is_liquid(self, system):
        sim = Simulation(shape=(4, 4, 8), system=system)
        np.testing.assert_allclose(
            sim.phi.interior_src[system.liquid_index], 1.0
        )

    def test_shape_param_mismatch(self, system):
        from repro.core.parameters import PhaseFieldParameters

        p2 = PhaseFieldParameters.for_system(system, dim=2)
        with pytest.raises(ValueError, match="dim"):
            Simulation(shape=(4, 4, 8), system=system, params=p2)

    def test_voronoi_initialization(self, system):
        sim = Simulation(shape=(8, 8, 16), system=system)
        sim.initialize_voronoi(seed=1)
        fr = sim.phase_fractions()
        assert fr[system.liquid_index] < 1.0
        assert fr.sum() == pytest.approx(1.0, abs=1e-9)


@pytest.fixture(scope="module")
def reference_run(system):
    """Six steps of the pure-Python reference rung."""
    ref = Simulation(shape=(5, 5, 12), system=system, kernel="reference")
    ref.initialize_voronoi(seed=2, n_seeds=4)
    ref.step(6)
    return ref


class TestStepping:
    @pytest.mark.parametrize("kernel", ["buffered", "shortcut"])
    def test_kernels_agree_over_multiple_steps(self, system, reference_run,
                                               kernel):
        ref = reference_run
        other = Simulation(
            shape=(5, 5, 12), system=system, kernel=kernel,
            params=ref.params, temperature=ref.temperature,
        )
        other.initialize_voronoi(seed=2, n_seeds=4)
        other.step(6)
        np.testing.assert_allclose(
            other.phi.interior_src, ref.phi.interior_src, atol=1e-9
        )
        np.testing.assert_allclose(
            other.mu.interior_src, ref.mu.interior_src, atol=1e-9
        )

    def test_front_advances_under_undercooling(self, system):
        """Directional solidification: the solid grows towards the melt."""
        nz = 24
        temp = FrozenTemperature(
            t_ref=system.t_eutectic, gradient=0.4, velocity=0.05,
            z0=14.0, dx=1.0,
        )
        sim = Simulation(
            shape=(6, 6, nz), system=system, kernel="shortcut",
            temperature=temp,
        )
        sim.initialize_voronoi(seed=4, solid_height=6, n_seeds=4)
        f0 = sim.front_position()
        sim.step(150)
        f1 = sim.front_position()
        assert f1 > f0 + 0.5

    def test_time_and_counters(self, system):
        sim = Simulation(shape=(4, 4, 8), system=system)
        sim.step(3)
        assert sim.step_count == 3
        assert sim.time == pytest.approx(3 * sim.params.dt)

    def test_report(self, system):
        sim = Simulation(shape=(4, 4, 8), system=system)
        sim.initialize_voronoi(seed=0, n_seeds=3)
        rep = sim.run(2)
        assert rep.steps == 2
        assert rep.phase_fractions.shape == (4,)
        assert rep.solute_mass.shape == (2,)

    def test_callback_invoked(self, system):
        sim = Simulation(shape=(4, 4, 8), system=system)
        calls = []
        sim.run(4, callback=lambda s: calls.append(s.step_count), callback_every=2)
        assert calls == [2, 4]

    def test_2d_simulation_runs(self, system):
        sim = Simulation(shape=(10, 20), system=system, kernel="buffered")
        sim.initialize_voronoi(seed=1, solid_height=6, n_seeds=4)
        m0 = sim.solute_mass()
        sim.step(10)
        # default top BC is Dirichlet for mu; mass need not be conserved,
        # but the state must remain finite and on the simplex
        assert np.isfinite(sim.mu.src).all()
        np.testing.assert_allclose(
            sim.phi.interior_src.sum(axis=0), 1.0, atol=1e-9
        )
        assert m0.shape == (2,)


class TestMovingWindowIntegration:
    def test_window_shifts_and_tracks_front(self, system):
        temp = FrozenTemperature(
            t_ref=system.t_eutectic, gradient=0.4, velocity=0.1,
            z0=8.0, dx=1.0,
        )
        mw = MovingWindow(target_fraction=0.3, check_every=5)
        sim = Simulation(
            shape=(5, 5, 20), system=system, kernel="shortcut",
            temperature=temp, moving_window=mw,
        )
        sim.initialize_voronoi(seed=1, solid_height=10, n_seeds=4)
        sim.step(30)
        assert mw.total_shift > 0
        assert sim.z_offset == mw.total_shift
        # front stays near the target after shifting
        assert sim.front_position() <= 0.3 * 20 + 2

    def test_window_preserves_simplex(self, system):
        mw = MovingWindow(target_fraction=0.25, check_every=2)
        sim = Simulation(
            shape=(4, 4, 16), system=system, kernel="buffered",
            moving_window=mw,
        )
        sim.initialize_voronoi(seed=3, solid_height=8, n_seeds=3)
        sim.step(20)
        np.testing.assert_allclose(
            sim.phi.interior_src.sum(axis=0), 1.0, atol=1e-9
        )
