"""The one time step both solvers run (``repro.core.stepper``)."""

import numpy as np
import pytest

from repro.core.kernels import (
    get_mu_kernel,
    get_phi_kernel,
    get_split_mu_kernel,
    make_context,
)
from repro.core.solver import Simulation
from repro.core.stepper import Stepper
from repro.grid.boundary import apply_boundaries
from repro.telemetry import TimingTree

SHAPE = (5, 5, 8)


@pytest.fixture
def sims():
    """Two identical single-block simulations."""
    a = Simulation(shape=SHAPE, kernel="buffered")
    b = Simulation(shape=SHAPE, kernel="buffered", system=a.system,
                   params=a.params, temperature=a.temperature)
    a.initialize_voronoi(seed=1, n_seeds=3)
    b.initialize_voronoi(seed=1, n_seeds=3)
    return a, b


def _stepper(sim, mu_kernel, log=None, tree=None):
    """A one-block stepper on *sim* whose syncs fill the boundaries and
    append ``(field, buffer)`` to *log*."""
    def sync(name, field, spec):
        def run(buffer):
            if log is not None:
                log.append((name, buffer))
            apply_boundaries(getattr(field, buffer), spec)
        return run

    return Stepper(
        sim.ctx, get_phi_kernel("buffered"), mu_kernel, sim.temperature,
        sim.params.dt, sync("phi", sim.phi, sim.phi_bc),
        sync("mu", sim.mu, sim.mu_bc), tree=tree,
    )


def test_simulation_step_is_algorithm1(sims):
    """``Simulation.step`` equals Algorithm 1 written out by hand: phi
    sweep, phi boundaries, mu sweep, mu boundaries, swap — with the
    ghosted slice temperatures of the step's start and end."""
    a, b = sims
    phi_kernel, mu_kernel = get_phi_kernel("buffered"), get_mu_kernel("buffered")
    nz = SHAPE[-1]
    for _ in range(4):
        t_old = b.temperature.at_time(b.time, nz + 2, -1)
        t_new = b.temperature.at_time(b.time + b.params.dt, nz + 2, -1)
        b.phi.interior_dst[...] = phi_kernel(b.ctx, b.phi.src, b.mu.src, t_old)
        apply_boundaries(b.phi.dst, b.phi_bc)
        b.mu.interior_dst[...] = mu_kernel(
            b.ctx, b.mu.src, b.phi.src, b.phi.dst, t_old, t_new
        )
        apply_boundaries(b.mu.dst, b.mu_bc)
        b.phi.swap()
        b.mu.swap()
        b.time += b.params.dt
    a.step(4)
    np.testing.assert_array_equal(b.phi.interior_src, a.phi.interior_src)
    np.testing.assert_array_equal(b.mu.interior_src, a.mu.interior_src)
    np.testing.assert_array_equal(
        a.slice_temperatures(a.time), b.temperature.at_time(b.time, nz + 2, -1)
    )


def test_sync_order_of_both_algorithms(sims):
    """Algorithm 1 syncs phi then mu every step; Algorithm 2 defers the
    mu sync into the next step, ahead of that step's phi sync."""
    a, b = sims
    plain, overlapped = [], []
    one = _stepper(a, get_mu_kernel("buffered"), plain)
    two = _stepper(b, get_split_mu_kernel("buffered"), overlapped)
    for k in range(3):
        one.step([(a.phi, a.mu, 0, SHAPE[-1])], k * a.params.dt)
        two.step([(b.phi, b.mu, 0, SHAPE[-1])], k * b.params.dt)
    assert plain == [("phi", "dst"), ("mu", "dst")] * 3
    assert overlapped == [("phi", "dst")] + [("mu", "src"), ("phi", "dst")] * 2
    # the deferred sync fills the same ghosts before anything reads them
    np.testing.assert_allclose(b.phi.interior_src, a.phi.interior_src,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(b.mu.interior_src, a.mu.interior_src,
                               rtol=0, atol=1e-11)


@pytest.mark.parametrize("split", [False, True])
def test_sweeps_are_timed_into_the_tree(sims, split):
    """Every sweep over the blocks is one ``compute/*`` record per step;
    without a tree the same step records nothing and runs the same."""
    a, b = sims
    mu_kernel = (get_split_mu_kernel if split else get_mu_kernel)("buffered")
    tree = TimingTree()
    timed = _stepper(a, mu_kernel, tree=tree)
    bare = _stepper(b, mu_kernel)
    for k in range(3):
        timed.step([(a.phi, a.mu, 0, SHAPE[-1])], k * a.params.dt)
        bare.step([(b.phi, b.mu, 0, SHAPE[-1])], k * b.params.dt)
    scopes = ["phi", "mu_local", "mu_neighbor"] if split else ["phi", "mu"]
    compute = tree.to_dict()["children"]["compute"]["children"]
    assert set(compute) == set(scopes)
    for name in scopes:
        assert compute[name]["count"] == 3 and compute[name]["total"] > 0
    np.testing.assert_array_equal(a.phi.interior_src, b.phi.interior_src)
    np.testing.assert_array_equal(a.mu.interior_src, b.mu.interior_src)


def test_blocks_see_their_own_slice_temperatures(system, params3d):
    """A block starting at global z index *z_offset* is swept with the
    temperatures of its own slices (ghosts included), not the domain's."""
    seen = []

    def phi_kernel(ctx, phi_src, mu_src, t_old):
        seen.append(t_old)
        return phi_src[(slice(None),) + (slice(1, -1),) * 3]

    def mu_kernel(ctx, mu_src, phi_src, phi_dst, t_old, t_new):
        return mu_src[(slice(None),) + (slice(1, -1),) * 3]

    from repro.grid.field import Field

    sim = Simulation(shape=(2, 2, 8), system=system, params=params3d)
    blocks = [(Field(system.n_phases, (2, 2, 4)),
               Field(system.n_solutes, (2, 2, 4)), z, 4) for z in (0, 4)]
    Stepper(make_context(system, params3d), phi_kernel, mu_kernel,
            sim.temperature, 0.5, lambda buffer: None,
            lambda buffer: None).step(blocks, 2.0)
    full = sim.temperature.at_time(2.0, 10, -1)
    np.testing.assert_array_equal(seen[0], full[0:6])
    np.testing.assert_array_equal(seen[1], full[4:10])


@pytest.mark.parametrize("split", [False, True])
def test_stepper_dies_with_its_last_reference(sims, split):
    """A stepper's sweeps may hold what lasts one call (the compiled
    rungs' pointer tables): no reference cycle may keep them until the
    cycle collector happens to run."""
    import gc
    import weakref

    a, _b = sims
    mu_kernel = (get_split_mu_kernel if split else get_mu_kernel)("buffered")
    gc.disable()
    try:
        stepper = _stepper(a, mu_kernel)
        stepper.step([(a.phi, a.mu, 0, SHAPE[-1])], 0.0)
        ref = weakref.ref(stepper)
        del stepper
        assert ref() is None
    finally:
        gc.enable()
