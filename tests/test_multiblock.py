"""Tests of multiple blocks per rank (waLBerla-style block distribution)."""

import numpy as np
import pytest

from repro.core.nucleation import smooth_phase_field, voronoi_initial_condition
from repro.core.solver import Simulation
from repro.distributed import DistributedSimulation
from repro.distributed.halo import BlockHaloRegistry
from repro.grid.blockforest import BlockForest
from repro.grid.boundary import BoundarySpec
from repro.simmpi import run_spmd
from repro.thermo.system import TernaryEutecticSystem

SHAPE = (8, 8, 16)
STEPS = 5


@pytest.fixture(scope="module")
def reference():
    system = TernaryEutecticSystem()
    phi0, mu0 = voronoi_initial_condition(system, SHAPE, solid_height=5, n_seeds=5)
    phi0 = smooth_phase_field(phi0, 2)
    sim = Simulation(shape=SHAPE, system=system, kernel="buffered")
    sim.initialize(phi0, mu0)
    sim.step(STEPS)
    return dict(system=system, phi0=phi0, mu0=mu0, params=sim.params,
                temperature=sim.temperature,
                phi=sim.phi.interior_src.copy(), mu=sim.mu.interior_src.copy())


@pytest.mark.parametrize("bpa,n_ranks,strategy", [
    ((2, 2, 2), 2, "contiguous"),
    ((2, 2, 2), 4, "round_robin"),
    ((2, 2, 2), 3, "contiguous"),
    ((1, 1, 4), 2, "round_robin"),
    ((2, 2, 1), 1, "contiguous"),   # everything on one rank: pure copies
])
def test_multiblock_bitwise(reference, bpa, n_ranks, strategy):
    d = DistributedSimulation(
        SHAPE, bpa, system=reference["system"], params=reference["params"],
        temperature=reference["temperature"], kernel="buffered",
        n_ranks=n_ranks, balance_strategy=strategy,
    )
    res = d.run(STEPS, reference["phi0"], reference["mu0"])
    np.testing.assert_array_equal(res.phi, reference["phi"])
    np.testing.assert_array_equal(res.mu, reference["mu"])
    assert sum(s.n_blocks for s in res.stats) == d.forest.n_blocks


def test_multiblock_overlap_schedule(reference):
    d = DistributedSimulation(
        SHAPE, (2, 2, 2), system=reference["system"], params=reference["params"],
        temperature=reference["temperature"], kernel="buffered",
        n_ranks=3, overlap=True,
    )
    res = d.run(STEPS, reference["phi0"], reference["mu0"])
    np.testing.assert_allclose(res.phi, reference["phi"], atol=1e-12)
    np.testing.assert_allclose(res.mu, reference["mu"], atol=1e-11)


def test_single_rank_has_no_messages(reference):
    """All blocks on one rank: ghost exchange is pure memory copies."""
    d = DistributedSimulation(
        SHAPE, (2, 2, 2), system=reference["system"], params=reference["params"],
        temperature=reference["temperature"], kernel="buffered", n_ranks=1,
    )
    res = d.run(2, reference["phi0"], reference["mu0"])
    assert res.stats[0].comm_messages == 0
    np.testing.assert_allclose(
        res.phi,
        _two_step_reference(reference), atol=0,
    )


def _two_step_reference(reference):
    sim = Simulation(
        shape=SHAPE, system=reference["system"], params=reference["params"],
        temperature=reference["temperature"], kernel="buffered",
    )
    sim.initialize(reference["phi0"], reference["mu0"])
    sim.step(2)
    return sim.phi.interior_src.copy()


class TestBlockHaloRegistry:
    def test_local_copy_matches_messages(self):
        """Same-rank copies (1 rank) and halo channels (4 ranks) of the
        one registry fill identical ghosts."""
        forest = BlockForest((8, 8), (2, 2), periodicity=(True, False))
        rng = np.random.default_rng(0)
        global_field = rng.normal(size=(1, 8, 8))
        spec = BoundarySpec.directional(2)

        def exchanged(comm, owner):
            arrays = {}
            for b in forest.blocks:
                if owner[b.id] != comm.rank:
                    continue
                a = np.zeros((1, 6, 6))
                a[:, 1:-1, 1:-1] = global_field[
                    :, b.offset[0]: b.offset[0] + 4, b.offset[1]: b.offset[1] + 4
                ]
                arrays[b.id] = a
            registry = BlockHaloRegistry(
                comm, forest, owner, 2, streams=[(1, 1)]
            )
            registry.exchange(arrays, spec)
            return arrays, registry.n_channels

        # all blocks on one rank (copies only)
        copies, n_channels = run_spmd(1, exchanged, [0, 0, 0, 0])[0]
        assert n_channels == 0

        # one block per rank (channels only)
        messaged = run_spmd(4, exchanged, [0, 1, 2, 3])
        for bid in range(4):
            arrays, n_channels = messaged[bid]
            assert n_channels > 0
            np.testing.assert_array_equal(copies[bid], arrays[bid])
