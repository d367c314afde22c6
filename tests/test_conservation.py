"""Conservation properties of the coupled update (anchors Eq. 1 and 3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.solver import Simulation
from repro.core.temperature import ConstantTemperature
from repro.grid.boundary import BoundarySpec, Neumann, Periodic
from repro.thermo.system import TernaryEutecticSystem


def closed_box_sim(shape=(6, 6, 14), kernel="buffered", seed=0, temperature=None):
    """Simulation with no-flux boundaries everywhere (closed system)."""
    system = TernaryEutecticSystem()
    spec = BoundarySpec(
        handlers=tuple((Periodic(), Periodic()) for _ in range(len(shape) - 1))
        + ((Neumann(), Neumann()),)
    )
    sim = Simulation(
        shape=shape, system=system, kernel=kernel,
        temperature=temperature, phi_bc=spec, mu_bc=spec,
    )
    sim.initialize_voronoi(seed=seed, n_seeds=5)
    return sim


class TestMassConservation:
    @pytest.mark.parametrize("kernel", ["buffered", "shortcut", "compiled"])
    def test_solute_mass_exact(self, kernel):
        """With Neumann mu boundaries, total solute content is conserved
        to round-off: the discrete update is exactly conservative for the
        affine parabolic thermodynamics."""
        sim = closed_box_sim(kernel=kernel)
        m0 = sim.solute_mass()
        sim.step(15)
        m1 = sim.solute_mass()
        np.testing.assert_allclose(m1, m0, rtol=1e-12, atol=1e-9)

    def test_mass_conserved_without_antitrapping(self):
        sim = closed_box_sim()
        sim.params = sim.params.with_(anti_trapping=False)
        from repro.core.kernels import make_context

        sim.ctx = make_context(sim.system, sim.params)
        m0 = sim.solute_mass()
        sim.step(10)
        np.testing.assert_allclose(sim.solute_mass(), m0, rtol=1e-12, atol=1e-9)

    def test_mass_conserved_under_constant_temperature(self):
        system = TernaryEutecticSystem()
        sim = closed_box_sim(
            temperature=ConstantTemperature(system.t_eutectic - 1.0)
        )
        m0 = sim.solute_mass()
        sim.step(10)
        np.testing.assert_allclose(sim.solute_mass(), m0, rtol=1e-12, atol=1e-9)


class TestPhaseSumConstraint:
    @pytest.mark.parametrize("kernel", ["buffered", "shortcut"])
    def test_phi_stays_on_simplex(self, kernel):
        sim = closed_box_sim(kernel=kernel)
        sim.step(12)
        phi = sim.phi.interior_src
        np.testing.assert_allclose(phi.sum(axis=0), 1.0, atol=1e-9)
        assert phi.min() >= -1e-12
        assert phi.max() <= 1.0 + 1e-12


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 1000))
def test_conservation_random_initial_conditions(seed):
    """Mass conservation holds for arbitrary Voronoi seeds."""
    sim = closed_box_sim(shape=(5, 5, 10), seed=seed)
    m0 = sim.solute_mass()
    sim.step(5)
    np.testing.assert_allclose(sim.solute_mass(), m0, rtol=1e-12, atol=1e-9)
