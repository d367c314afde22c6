"""Tests of the distributed ghost-layer exchange.

One routine (:class:`repro.distributed.halo.BlockHaloRegistry`) serves
every decomposition; a one-block-per-rank cartesian grid is the forest
with identity ownership.  The referee is the serial boundary fill of the
whole domain: each block's ghosted array must equal the matching window
of the global ghosted array, ghost corners included.
"""

import numpy as np
import pytest

from repro.distributed.halo import BlockHaloRegistry, ExchangeTimer
from repro.grid.blockforest import BlockForest
from repro.grid.boundary import (
    BoundarySpec,
    Dirichlet,
    Neumann,
    apply_boundaries,
)
from repro.simmpi import run_spmd

IDENTITY = None  # one block per rank (the cartesian decomposition)


def _global_field(shape, comps=2, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(comps,) + shape)


def _reference(field, spec, g):
    """Global ghosted array filled by the serial boundary handlers."""
    dim = field.ndim - 1
    ref = np.zeros(field.shape[:1] + tuple(s + 2 * g for s in field.shape[1:]))
    ref[(slice(None),) + (slice(g, -g),) * dim] = field
    apply_boundaries(ref, spec, g)
    return ref


def _window(ref, block, g):
    return ref[(slice(None),) + tuple(
        slice(o, o + s + 2 * g) for o, s in zip(block.offset, block.shape)
    )]


def _owner(forest, owner):
    return list(range(forest.n_blocks)) if owner is IDENTITY else list(owner)


def _exchange(comm, forest, owner, field, spec, g=1, rounds=1, timer=None):
    """This rank's ghosted block arrays after *rounds* exchanges."""
    dim = forest.dim
    arrays = {}
    for b in forest.blocks:
        if owner[b.id] != comm.rank:
            continue
        arr = np.zeros(field.shape[:1] + tuple(s + 2 * g for s in b.shape))
        arr[(slice(None),) + (slice(g, -g),) * dim] = field[
            (slice(None),)
            + tuple(slice(o, o + s) for o, s in zip(b.offset, b.shape))
        ]
        arrays[b.id] = arr
    registry = BlockHaloRegistry(
        comm, forest, owner, dim, streams=[(field.shape[0], g)]
    )
    for _ in range(rounds):
        registry.exchange(arrays, spec, timer=timer)
    return arrays


def _assert_matches_reference(results, forest, ref, g):
    seen = set()
    for arrays in results:
        for bid, arr in arrays.items():
            np.testing.assert_array_equal(
                arr, _window(ref, forest.blocks[bid], g)
            )
            seen.add(bid)
    assert seen == set(range(forest.n_blocks))


@pytest.mark.parametrize("bpa,owner", [
    ((2, 1), IDENTITY),
    ((2, 2), IDENTITY),
    ((4, 1), IDENTITY),
    ((1, 3), IDENTITY),
    ((1, 1), IDENTITY),          # single rank: periodic self-wrap
    ((2, 2), [0, 0, 1, 1]),      # channels and same-rank copies mixed
    ((4, 1), [0, 1, 0, 1]),      # two block pairs share each channel
    ((2, 2), [0, 0, 0, 0]),      # one rank: copies only
])
def test_exchange_reproduces_global_ghosts(bpa, owner):
    """Each block's ghost layers must equal the global field's values
    (periodic x, Neumann/Dirichlet z), corners included."""
    shape = (8, 12)
    field = _global_field(shape)
    spec = BoundarySpec.directional(2, bottom=Neumann(), top=Dirichlet(1.5))
    forest = BlockForest(shape, bpa, (True, False))
    owner = _owner(forest, owner)
    results = run_spmd(max(owner) + 1, _exchange, forest, owner, field, spec)
    _assert_matches_reference(results, forest, _reference(field, spec, 1), 1)


def test_corner_ghosts_consistent():
    """Edge/corner ghost cells must carry the diagonal neighbour's data
    (required by the D3C19 accesses)."""
    shape = (6, 6)
    field = _global_field(shape, comps=1, seed=4)
    spec = BoundarySpec.directional(2)
    forest = BlockForest(shape, (2, 2), (True, False))
    results = run_spmd(4, _exchange, forest, [0, 1, 2, 3], field, spec)
    loc = results[0][0]  # block (0, 0)
    # its top-right corner ghost = global cell (3, 3) (diagonal neighbour)
    assert loc[0, -1, -1] == pytest.approx(field[0, 3, 3])


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_large_slab_exchange_both_backends(backend):
    """Slabs larger than an OS pipe holds (64 KiB), exchanged
    symmetrically by two ranks splitting a periodic axis."""
    # slab = comps * 1 * (nz + 2) doubles: 4 * 2050 * 8 B = 64.06 KiB
    shape = (8, 2048)
    field = _global_field(shape, comps=4, seed=5)
    spec = BoundarySpec.directional(2, bottom=Neumann(), top=Neumann())
    forest = BlockForest(shape, (2, 1), (True, False))
    results = run_spmd(
        2, _exchange, forest, [0, 1], field, spec, backend=backend
    )
    _assert_matches_reference(results, forest, _reference(field, spec, 1), 1)


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_exchange_correct_on_both_backends(backend):
    """Value-exact ghost fill on a 4-rank 2x2 topology, either backend;
    two rounds exercise the double-buffered slots."""
    shape = (8, 8)
    field = _global_field(shape, comps=2, seed=11)
    spec = BoundarySpec.directional(2, bottom=Neumann(), top=Dirichlet(0.5))
    forest = BlockForest(shape, (2, 2), (True, False))
    results = run_spmd(
        4, _exchange, forest, [0, 1, 2, 3], field, spec, rounds=2,
        backend=backend,
    )
    _assert_matches_reference(results, forest, _reference(field, spec, 1), 1)


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("bpa,owner", [
    ((2, 1), IDENTITY),
    ((4, 1), [0, 0, 1, 1]),
])
def test_ghost_width_two_exchange(backend, bpa, owner):
    """Ghost width 2 must carry TWO interior edge layers, not one, and
    fill two boundary layers at the domain edges.

    Regression for the hardcoded-width bug: the seed's exchange never
    accepted a ghost width, so any field with ``ghost != 1`` was silently
    corrupted (wrong slabs sent, wrong slabs filled).
    """
    g = 2
    shape = (8, 6)
    field = _global_field(shape, comps=1, seed=7)
    spec = BoundarySpec.directional(2, bottom=Neumann(), top=Neumann())
    forest = BlockForest(shape, bpa, (True, False))
    owner = _owner(forest, owner)
    results = run_spmd(
        2, _exchange, forest, owner, field, spec, g, backend=backend
    )
    _assert_matches_reference(results, forest, _reference(field, spec, g), g)
    # Both low-ghost layers of block 0 are the periodic neighbour's TOP
    # TWO interior layers, in order.
    np.testing.assert_array_equal(
        results[0][0][0, :g, g:-g], field[0, -g:, :]
    )


def test_unsupported_ghost_width_raises():
    """Widths the slab geometry cannot express fail loudly at
    registration, on every rank, before any channel exists."""
    forest = BlockForest((4, 4), (2, 1), (True, False))

    def fn(comm):
        with pytest.raises(ValueError, match="ghost width 3 unsupported"):
            # blocks are 2 cells wide: fewer interior cells than ghosts
            BlockHaloRegistry(comm, forest, [0, 1], 2, streams=[(1, 3)])
        with pytest.raises(ValueError, match="ghost width must be >= 1"):
            BlockHaloRegistry(comm, forest, [0, 1], 2, streams=[(1, 0)])
        return True

    assert run_spmd(2, fn) == [True, True]


def test_exchange_reads_ghost_width_from_the_arrays():
    """exchange() takes the width from the data: arrays of a stream
    nobody registered are rejected instead of overflowing the slot or
    exchanging the wrong cells."""
    forest = BlockForest((8, 8), (1, 1), (True, False))
    spec = BoundarySpec.directional(2)

    def fn(comm):
        registry = BlockHaloRegistry(
            comm, forest, [0], 2, streams=[(1, 1), (2, 2)]
        )
        registry.exchange({0: np.zeros((1, 10, 10))}, spec)
        registry.exchange({0: np.zeros((2, 12, 12))}, spec)
        for shape in ((1, 12, 12),    # width 2 registered for 2 comps only
                      (2, 14, 14),    # width 3: no such stream
                      (1, 11, 11),    # odd extent: no integer width
                      (1, 10, 12)):   # axes disagree on the width
            with pytest.raises(ValueError, match="block 0"):
                registry.exchange({0: np.zeros(shape)}, spec)
        return True

    assert run_spmd(1, fn) == [True]


def test_timer_accumulates():
    forest = BlockForest((8,), (2,), (True,))
    spec = BoundarySpec(handlers=((Neumann(), Neumann()),))
    field = _global_field((8,), comps=1)

    def fn(comm):
        timer = ExchangeTimer()
        # periodic axis: neighbours exist, handlers unused
        _exchange(comm, forest, [0, 1], field, spec, rounds=2, timer=timer)
        return timer

    timers = run_spmd(2, fn)
    assert timers[0].calls == 2
    assert timers[0].messages == 4
    assert timers[0].bytes == 4 * 8
    assert timers[0].seconds > 0


# -- exchange plans -------------------------------------------------------


def test_exchange_keeps_no_plan_past_the_call():
    """exchange() builds the plan of the arrays it is given and drops it:
    a thousand calls with fresh arrays leave nothing behind."""
    import tracemalloc

    forest = BlockForest((8, 12), (2, 2), (True, False))
    spec = BoundarySpec.directional(2, bottom=Neumann(), top=Dirichlet(1.5))
    field = _global_field((8, 12))
    ref = _reference(field, spec, 1)

    def fn(comm):
        registry = BlockHaloRegistry(comm, forest, [0, 0, 0, 0], 2,
                                     streams=[(2, 1)])

        def fresh():
            return {b.id: np.zeros((2,) + tuple(s + 2 for s in b.shape))
                    for b in forest.blocks}

        # warm-up: NumPy keeps freed small buffers in caches of its own
        for _ in range(1000):
            registry.exchange(fresh(), spec)
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(1000):
            arrays = fresh()
            for b in forest.blocks:
                arrays[b.id][:, 1:-1, 1:-1] = field[
                    (slice(None),) + tuple(
                        slice(o, o + s) for o, s in zip(b.offset, b.shape))
                ]
            registry.exchange(arrays, spec)
        grown = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.stop()
        return registry._plans, grown, arrays

    plans, grown, arrays = run_spmd(1, fn)[0]
    assert plans == {}
    assert grown < 16 * 1024
    _assert_matches_reference([arrays], forest, ref, 1)


def test_field_sync_rejects_a_stream_with_the_exchange_message():
    """A field_sync over Fields of no registered stream fails at its
    first exchange with the message exchange() gives."""
    from repro.grid.field import Field

    forest = BlockForest((8, 8), (1, 1), (True, False))
    spec = BoundarySpec.directional(2)

    def fn(comm):
        registry = BlockHaloRegistry(
            comm, forest, [0], 2, streams=[(1, 1), (2, 2)]
        )
        messages = []
        for comps, ghost in ((1, 2), (2, 3)):
            fields = {0: Field(comps, (8, 8), ghost=ghost)}
            for attempt in (
                lambda: registry.exchange(
                    {0: fields[0].src}, spec),
                lambda: registry.field_sync(fields, spec)("src"),
            ):
                with pytest.raises(ValueError) as info:
                    attempt()
                messages.append(str(info.value))
        return messages

    messages = run_spmd(1, fn)[0]
    streams = "[(1, 1), (2, 2)]"
    assert messages == [
        "block 0: array shape (1, 12, 12) is the ghosted block of no "
        f"registered stream (n_components, ghost width) in {streams}",
    ] * 2 + [
        "block 0: array shape (2, 14, 14) is the ghosted block of no "
        f"registered stream (n_components, ghost width) in {streams}",
    ] * 2


def test_field_sync_builds_two_plans_per_field_per_world(monkeypatch):
    """A resident world plans each field's two buffers once: three
    calls of 3 steps on 2 ranks build 2 fields x 2 buffers x 2 ranks
    plans, and give the bits of one 9-step call."""
    from repro.core.nucleation import voronoi_initial_condition
    from repro.distributed import DistributedSimulation
    from repro.thermo.system import TernaryEutecticSystem

    built = []
    plan = BlockHaloRegistry._plan

    def counting(self, arrays, spec):
        built.append(self.comm.rank)
        return plan(self, arrays, spec)

    system = TernaryEutecticSystem()
    phi0, mu0 = voronoi_initial_condition(system, (8, 12), solid_height=4,
                                          n_seeds=3)
    with DistributedSimulation((8, 12), (2, 2), system=system,
                               kernel="buffered", n_ranks=2) as once:
        whole = once.run(9, phi0, mu0)
    monkeypatch.setattr(BlockHaloRegistry, "_plan", counting)
    with DistributedSimulation((8, 12), (2, 2), system=system,
                               kernel="buffered", n_ranks=2) as dsim:
        res = dsim.run(3, phi0, mu0)
        for k in (1, 2):
            res = dsim.run(3, res.phi, res.mu, t0=3 * k * dsim.params.dt,
                           step0=3 * k)
    assert sorted(built) == [0] * 4 + [1] * 4
    np.testing.assert_array_equal(res.phi, whole.phi)
    np.testing.assert_array_equal(res.mu, whole.mu)
