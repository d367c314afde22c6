"""Kernel equivalence suite.

The paper: "To decrease the maintenance effort for the various kernels, a
regularly running test suite checks all kernel versions for equivalence."
Every rung of the optimization ladder must reproduce the pure-Python
reference per-cell transcription on every benchmark scenario.
"""

import numpy as np
import pytest

from repro.core.kernels import (
    COMPILED_RUNGS,
    LADDER,
    get_mu_kernel,
    get_phi_kernel,
    make_context,
    rung_available,
)
from repro.core.scenarios import SCENARIOS, fill_ghosts_periodic, make_scenario

SHAPE = (5, 4, 9)
ALL_RUNGS = [r for r in LADDER if r != "reference"]
#: Parametrization list: compiled rungs are marked skip (not silently
#: dropped) when the backend (a C toolchain + cffi) is not usable.
RUNGS = [
    pytest.param(
        r,
        marks=pytest.mark.skipif(
            r in COMPILED_RUNGS and not rung_available(r),
            reason="no compiled kernel backend available",
        ),
    )
    for r in ALL_RUNGS
]
#: Loop list for the non-parametrized tests.
AVAILABLE_RUNGS = [r for r in ALL_RUNGS if rung_available(r)]


@pytest.fixture(scope="module", params=SCENARIOS)
def scenario(request):
    phi, mu, tg, system, params = make_scenario(request.param, SHAPE, seed=2)
    ctx = make_context(system, params)
    ref_phi = get_phi_kernel("reference")(ctx, phi, mu, tg)
    phi_dst = phi.copy()
    phi_dst[(slice(None),) + (slice(1, -1),) * 3] = ref_phi
    fill_ghosts_periodic(phi_dst, 3)
    t_new = tg - 0.015
    ref_mu = get_mu_kernel("reference")(ctx, mu, phi, phi_dst, tg, t_new)
    return dict(
        name=request.param, ctx=ctx, phi=phi, mu=mu, tg=tg,
        phi_dst=phi_dst, t_new=t_new, ref_phi=ref_phi, ref_mu=ref_mu,
    )


@pytest.mark.parametrize("rung", RUNGS)
def test_phi_kernel_matches_reference(scenario, rung):
    s = scenario
    out = get_phi_kernel(rung)(s["ctx"], s["phi"], s["mu"], s["tg"])
    np.testing.assert_allclose(out, s["ref_phi"], atol=1e-11)


@pytest.mark.parametrize("rung", RUNGS)
def test_mu_kernel_matches_reference(scenario, rung):
    s = scenario
    out = get_mu_kernel(rung)(
        s["ctx"], s["mu"], s["phi"], s["phi_dst"], s["tg"], s["t_new"]
    )
    np.testing.assert_allclose(out, s["ref_mu"], atol=1e-11)


def test_phi_preserves_simplex(scenario):
    from repro.core.simplex import in_simplex

    s = scenario
    for rung in AVAILABLE_RUNGS:
        out = get_phi_kernel(rung)(s["ctx"], s["phi"], s["mu"], s["tg"])
        assert in_simplex(out, tol=1e-9).all(), rung


def test_bulk_cells_are_fixed_points(scenario):
    """Pure cells with uniform neighbourhood must not change (the property
    the shortcut rung exploits)."""
    s = scenario
    if s["name"] != "liquid":
        pytest.skip("only the liquid scenario is pure bulk everywhere")
    interior = s["phi"][(slice(None),) + (slice(1, -1),) * 3]
    np.testing.assert_allclose(s["ref_phi"], interior, atol=1e-12)


def test_unknown_kernel_name_raises():
    with pytest.raises(KeyError, match="unknown"):
        get_phi_kernel("turbo")
    with pytest.raises(KeyError, match="unknown"):
        get_mu_kernel("turbo")


def test_ladder_lists_all_rungs():
    assert set(LADDER) == {
        "reference", "buffered", "shortcut", "compiled", "compiled_shortcuts",
    }
    assert set(COMPILED_RUNGS) <= set(LADDER)
    # NumPy rungs are available everywhere, whatever the environment
    for rung in LADDER:
        if rung not in COMPILED_RUNGS:
            assert rung_available(rung), rung
    assert not rung_available("turbo")


def test_ladder_equivalent_with_moving_window():
    """Equivalence must survive window shifts (Sec. 3.3): the shift
    re-fills the top with fresh melt and advances the temperature frame,
    so any rung that mishandles ghosts or scratch reuse diverges here."""
    from repro.core.moving_window import MovingWindow
    from repro.core.solver import Simulation
    from repro.thermo.system import TernaryEutecticSystem

    shape = (6, 24)
    steps = 6
    system = TernaryEutecticSystem()

    def run(rung):
        sim = Simulation(
            shape,
            system=system,
            kernel=rung,
            moving_window=MovingWindow(target_fraction=0.3, check_every=1),
        )
        sim.initialize_voronoi(solid_height=12, n_seeds=3, seed=3)
        sim.step(steps)
        return sim

    ref = run("reference")
    assert ref.moving_window.total_shift > 0  # shifts actually happened
    for rung in AVAILABLE_RUNGS:
        sim = run(rung)
        assert sim.moving_window.total_shift == ref.moving_window.total_shift
        assert sim.z_offset == ref.z_offset
        np.testing.assert_allclose(
            sim.phi.interior_src, ref.phi.interior_src, atol=1e-10,
            err_msg=rung,
        )
        np.testing.assert_allclose(
            sim.mu.interior_src, ref.mu.interior_src, atol=1e-10,
            err_msg=rung,
        )


def test_2d_kernels_match():
    """Equivalence also holds in 2-D (D2C5 stencils)."""
    phi, mu, tg, system, params = make_scenario("interface", (7, 12), seed=4)
    ctx = make_context(system, params)
    ref = get_phi_kernel("reference")(ctx, phi, mu, tg)
    for rung in AVAILABLE_RUNGS:
        out = get_phi_kernel(rung)(ctx, phi, mu, tg)
        np.testing.assert_allclose(out, ref, atol=1e-11, err_msg=rung)
    phi_dst = phi.copy()
    phi_dst[(slice(None),) + (slice(1, -1),) * 2] = ref
    fill_ghosts_periodic(phi_dst, 2)
    ref_mu = get_mu_kernel("reference")(ctx, mu, phi, phi_dst, tg, tg - 0.01)
    for rung in AVAILABLE_RUNGS:
        out = get_mu_kernel(rung)(ctx, mu, phi, phi_dst, tg, tg - 0.01)
        np.testing.assert_allclose(out, ref_mu, atol=1e-11, err_msg=rung)
