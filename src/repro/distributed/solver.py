"""Distributed phase-field driver (Algorithms 1 & 2 over simulated ranks).

The domain is split by a :class:`BlockForest`; blocks are assigned to
simulated MPI ranks by a load-balancing strategy (one block per rank by
default, several per rank like waLBerla when ``n_ranks`` is smaller).
Ghost layers travel through
:meth:`repro.distributed.halo.BlockHaloRegistry.exchange` — same-rank
neighbours copy directly, remote neighbours exchange through halo
channels registered once per run; fault-injected runs take the same
path, with the injection layer wrapped around the send channels.

Each rank runs the one step of :mod:`repro.core.stepper` over its
blocks, with the halo exchange as its sync:

* ``overlap=False`` — Algorithm 1: sweep, exchange, sweep, exchange.
* ``overlap=True`` — Algorithm 2: the mu ghost exchange is deferred behind
  the phi sweep (the phi sweep only needs local mu values) and the phi
  exchange behind the *local* part of the split mu sweep; the neighbour
  part (anti-trapping divergence) runs after the phi ghosts arrived.

Both schedules produce identical fields (validated by the integration
tests), as the paper notes: "the order of communication and boundary
handling routines can also be interchanged without altering the results".
"""

from __future__ import annotations

import copy
import math
import time as _time
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.core.kernels import (
    COMPILED_RUNGS,
    get_mu_kernel,
    get_phi_kernel,
    get_split_mu_kernel,
    make_context,
)
from repro.core.parameters import PhaseFieldParameters
from repro.core.solver import problem_defaults, solute_content
from repro.core.stepper import Stepper, slice_temperatures
from repro.core.temperature import ConstantTemperature, FrozenTemperature
from repro.distributed.halo import BlockHaloRegistry, ExchangeTimer
from repro.grid.balance import assign_blocks
from repro.grid.blockforest import BlockForest
from repro.grid.boundary import BoundarySpec
from repro.grid.field import Field
from repro.simmpi.runtime import open_world
from repro.thermo.system import TernaryEutecticSystem

__all__ = ["DistributedSimulation", "DistributedResult", "RankStats"]


@dataclass
class RankStats:
    """Per-rank communication accounting of one run."""

    rank: int
    comm_phi_seconds: float
    comm_mu_seconds: float
    comm_bytes: int
    comm_messages: int
    n_blocks: int = 1


@dataclass
class DistributedResult:
    """Gathered outcome of a distributed run.

    With telemetry enabled, *timing* carries the timing tree merged from
    the trees the ranks returned (see :mod:`repro.telemetry.reduce`),
    *counters* the summed per-rank counter snapshots, and *report* the
    schema-valid :mod:`repro.telemetry.report` document of the run.
    With span tracing on (``REPRO_TRACE=1`` or ``RunTelemetry(trace=True)``),
    *spans* holds every rank's span timeline, in rank order, and
    *trace_path* the exported Chrome trace-event JSON (``None`` when the
    telemetry session has no directory).
    """

    phi: np.ndarray
    mu: np.ndarray
    stats: list[RankStats] = field(default_factory=list)
    timing: dict | None = None
    counters: dict | None = None
    report: dict | None = None
    spans: list | None = None
    trace_path: object = None


#: Key of a rank's :class:`_RankState` in ``comm.resident``.
_STATE = "repro.distributed.solver"


@dataclass
class _RankState:
    """What a rank sets up once per world and keeps between calls.

    Reachable from the world, which the simulation's finalizer closes —
    so it must hold no reference to the simulation.
    """

    comm: object             # fault-wrapped when the world has a fault plan
    ctx: object              # KernelContext, compiled kernels warmed
    compile_seconds: float
    owned: list              # this rank's blocks
    phi_fields: dict         # block id -> resident Field
    mu_fields: dict
    halo: BlockHaloRegistry
    phi_global: np.ndarray   # world-shared: initial state in, result out
    mu_global: np.ndarray


@dataclass
class _Resident:
    """A simulation's open world and what was fixed when it was opened."""

    world: object
    close: object            # weakref.finalize: closes the world, once
    phi: np.ndarray          # world-shared global arrays
    mu: np.ndarray
    fault_plan: object       # injection is installed at channel registration
    started: bool = False    # ranks have set themselves up


class DistributedSimulation:
    """SPMD phase-field run over a block partition.

    Parameters
    ----------
    shape:
        Global interior cell counts (growth axis last).
    blocks_per_axis:
        Block grid; every axis extent must divide the domain.
    system, params, temperature, phi_bc, mu_bc:
        The problem; each ``None`` takes the default of
        :func:`repro.core.solver.problem_defaults`, as in ``Simulation``.
    n_ranks:
        Simulated MPI ranks; defaults to one rank per block.  With fewer
        ranks, blocks are distributed by *balance_strategy* and same-rank
        neighbours exchange ghosts by direct copy.
    balance_strategy:
        Block-to-rank assignment (see :func:`repro.grid.balance.assign_blocks`).
    kernel:
        Optimization rung (``overlap=True`` requires a rung with a split
        mu sweep, i.e. any optimized rung).
    overlap:
        Use the Algorithm 2 communication-hiding schedule.
    backend:
        simmpi execution substrate for the SPMD region: ``"thread"``
        (deterministic, GIL-serialized) or ``"process"`` (one OS process
        per rank, ghost slabs in pipe messages, kernels genuinely
        parallel); ``None`` (default) defers to ``REPRO_SIMMPI_BACKEND``
        when a world opens, as :func:`~repro.simmpi.runtime.open_world`
        does.  Results are bitwise identical between the two: per-block
        arithmetic does not depend on where a rank runs.

    The ranks are **resident**: the first :meth:`run` opens the world —
    ranks launched, kernel context built and warmed, block fields
    allocated, halo channels registered — and every later :meth:`run` is
    a command to those ranks.  The world ends at :meth:`close` (or the
    end of a ``with`` block), when the simulation is garbage-collected
    and at interpreter exit; a :meth:`run` that raises destroys it first
    and the next one opens a fresh world.
    """

    def __init__(
        self,
        shape: tuple[int, ...],
        blocks_per_axis: tuple[int, ...],
        system: TernaryEutecticSystem | None = None,
        params: PhaseFieldParameters | None = None,
        temperature: FrozenTemperature | ConstantTemperature | None = None,
        kernel: str = "buffered",
        overlap: bool = False,
        phi_bc: BoundarySpec | None = None,
        mu_bc: BoundarySpec | None = None,
        n_ranks: int | None = None,
        balance_strategy: str = "contiguous",
        backend: str | None = None,
    ):
        self.shape = tuple(shape)
        self.dim = len(shape)
        (self.system, self.params, self.temperature, self.phi_bc,
         self.mu_bc) = problem_defaults(
            self.shape, system, params, temperature, phi_bc, mu_bc
        )
        from repro.core.kernels import compiled
        from repro.core.kernels.api import SPLIT_MU_KERNELS

        kernel = compiled.maybe_fallback(kernel)
        if overlap and get_split_mu_kernel(kernel) is None:
            raise ValueError(
                f"kernel {kernel!r} has no split mu sweep; choose one of "
                f"{sorted(SPLIT_MU_KERNELS)} for overlap runs"
            )
        self.kernel = kernel
        self.overlap = overlap
        self.backend = backend
        periodicity = tuple([True] * (self.dim - 1) + [False])
        self.forest = BlockForest(self.shape, tuple(blocks_per_axis), periodicity)
        self.n_ranks = self.forest.n_blocks if n_ranks is None else int(n_ranks)
        self.balance_strategy = balance_strategy
        self.owner = assign_blocks(self.forest, self.n_ranks, balance_strategy)

        #: :class:`~repro.settings.Settings` of the world last opened.
        self.settings = None
        self._resident: _Resident | None = None

    def __getstate__(self) -> dict:
        # run() commands to resident process ranks pickle the simulation;
        # the world itself stays with the process that opened it.
        return {**self.__dict__, "_resident": None}

    # ------------------------------------------------------------------ #
    # world lifetime
    # ------------------------------------------------------------------ #

    def _open(self, fault_plan) -> _Resident:
        world = open_world(self.n_ranks, self.backend)
        self.settings = world.settings
        self._resident = _Resident(
            world,
            # also runs when the simulation is collected and at exit
            weakref.finalize(self, world.close),
            world.shared_array((self.system.n_phases,) + self.shape),
            world.shared_array((self.system.n_solutes,) + self.shape),
            fault_plan,
        )
        return self._resident

    def close(self) -> None:
        """End the resident ranks and free their memory; idempotent.

        The next :meth:`run` opens a new world.
        """
        if self._resident is not None:
            self._resident.close()
            self._resident = None

    def __enter__(self) -> "DistributedSimulation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #

    def _block_slices(self, block) -> tuple[slice, ...]:
        return tuple(
            slice(o, o + s) for o, s in zip(block.offset, block.shape)
        )

    def shrunk(self, n_ranks: int) -> "DistributedSimulation":
        """A copy of this simulation re-decomposed for *n_ranks* ranks.

        The domain, forest geometry, physics and schedule are identical —
        only the block-to-rank assignment is re-derived — so a shrunk
        simulation continued from a checkpoint written on more ranks
        reproduces the original run bit-for-bit: per-block arithmetic
        does not depend on which rank owns the block.  Used by the
        campaign driver after a permanent rank loss.
        """
        if not 1 <= n_ranks <= self.forest.n_blocks:
            raise ValueError(
                f"cannot run {self.forest.n_blocks} blocks on {n_ranks} "
                "rank(s)"
            )
        small = copy.copy(self)  # without the world (see __getstate__)
        small.n_ranks = n_ranks
        small.owner = assign_blocks(self.forest, n_ranks, self.balance_strategy)
        return small

    def topology(self) -> dict:
        """Manifest topology record of the current decomposition."""
        return {
            **self.forest.meta(),
            "n_ranks": int(self.n_ranks),
            "owner": [int(r) for r in self.owner],
        }

    def run(
        self,
        steps: int,
        phi0: np.ndarray,
        mu0: np.ndarray,
        *,
        t0: float = 0.0,
        step0: int = 0,
        fault_plan=None,
        guard: bool = False,
        telemetry=None,
        shard_store=None,
        checkpoint_every: int | None = None,
    ) -> DistributedResult:
        """Advance *steps* steps from the global initial interior state.

        *t0* / *step0* place the run on the campaign clock, so a restart
        from a checkpoint sees the same frozen-temperature history as an
        uninterrupted run.  *fault_plan* injects scheduled faults (see
        :mod:`repro.resilience.faults`); *guard* enables a cheap
        per-step finiteness check on every rank that turns silent NaN
        contamination (e.g. from a corrupted ghost message) into an
        :class:`~repro.resilience.errors.InvariantViolation` abort.

        *telemetry* — a :class:`repro.telemetry.RunTelemetry` — makes
        every rank collect a timing tree (compute vs. communication vs.
        guard, the Fig. 8 readout), record structured events and sample
        counters; each rank returns its records with its result, and the
        merged breakdown, counter sums and a schema-valid run report are
        attached to the result.  The events join ``telemetry``'s stream
        — a failed call's too, from the ranks' exceptions — and stream,
        report and trace are written to ``telemetry.directory`` when set.
        ``None`` leaves the hot path untouched.

        *shard_store* — a
        :class:`~repro.resilience.store.ShardedCheckpointStore` — makes
        the ranks take a two-phase sharded checkpoint whenever the
        **global** step count reaches a multiple of *checkpoint_every*
        (see :meth:`~repro.resilience.store.ShardedCheckpointStore.rank_hook`):
        a mid-checkpoint failure never produces a half-valid restart
        point, and a checkpoint some rank cannot write is skipped.
        """
        if phi0.shape != (self.system.n_phases,) + self.shape:
            raise ValueError(f"phi0 must have shape (N,){self.shape}")
        if mu0.shape != (self.system.n_solutes,) + self.shape:
            raise ValueError(f"mu0 must have shape (K-1,){self.shape}")

        if shard_store is not None and (
            checkpoint_every is None or checkpoint_every < 1
        ):
            raise ValueError("shard_store requires checkpoint_every >= 1")

        resident = self._resident
        if (resident is None or resident.world.closed
                or resident.fault_plan is not fault_plan):
            self.close()
            resident = self._open(fault_plan)
        wall0 = _time.perf_counter()
        resident.phi[...] = phi0
        resident.mu[...] = mu0
        # The world's first command carries what ranks set up from.
        setup = None if resident.started else (resident.phi, resident.mu)
        resident.started = True
        try:
            results = resident.world.call(
                self._rank_run, steps, setup=setup,
                t0=t0, step0=step0, fault_plan=fault_plan, guard=guard,
                telemetry=telemetry, shard_store=shard_store,
                checkpoint_every=checkpoint_every,
            )
        except BaseException as exc:
            # The world closed itself; keep what its ranks had counted
            # and recorded: a failed rank's share rides its exception.
            extras = [
                getattr(error, "rank_extra", None) or {}
                for error in getattr(exc, "simmpi_errors", ())
            ]
            if telemetry is not None:
                telemetry.absorb(extras)
                telemetry.merge_events()
            raise
        else:
            extras = [extra for _st, extra in results]
        finally:
            for extra in extras:
                if extra.get("store_stats") is not None:
                    shard_store.absorb(extra["store_stats"])
        wall = _time.perf_counter() - wall0

        result = DistributedResult(
            phi=np.array(resident.phi, dtype=phi0.dtype),
            mu=np.array(resident.mu, dtype=mu0.dtype),
            stats=[st for st, _extra in results],
        )
        if telemetry is not None:
            telemetry.finish(
                result, extras,
                config={
                    "shape": list(self.shape),
                    "blocks_per_axis": list(self.forest.blocks_per_axis),
                    "n_ranks": self.n_ranks,
                    "kernel": self.kernel,
                    "overlap": self.overlap,
                    "backend": self.settings.backend,
                    "guard": guard,
                    "dt": self.params.dt,
                    "settings": self.settings.as_dict(),
                },
                steps=steps, wall=wall, fault_plan=fault_plan,
            )
        return result

    # ------------------------------------------------------------------ #

    def _rank_setup(self, comm, phi_global, mu_global,
                    fault_plan) -> _RankState:
        """What a rank does once per world (collective)."""
        if fault_plan is not None:
            from repro.resilience.faults import FaultyComm

            comm = FaultyComm(comm, fault_plan)
        ctx = make_context(self.system, self.params)
        compile_seconds = 0.0
        if self.kernel in COMPILED_RUNGS:
            # Compile/warm before any timed loop starts, so JIT or dlopen
            # cost never pollutes the per-step timings.
            from repro.core.kernels import compiled

            compile_seconds = compiled.warmup(ctx, dim=self.dim)
        owned = [b for b in self.forest.blocks if self.owner[b.id] == comm.rank]

        phi_fields = {
            b.id: Field(self.system.n_phases, b.shape) for b in owned
        }
        mu_fields = {
            b.id: Field(self.system.n_solutes, b.shape) for b in owned
        }
        ghost = next(iter(phi_fields.values())).ghost if phi_fields else 1
        # Collective: every rank registers its send channels and accepts
        # its receive channels here, once — every exchange after it is a
        # pack, one notify per channel and an unpack.
        halo = BlockHaloRegistry(
            comm, self.forest, self.owner, self.dim,
            streams=[
                (self.system.n_phases, ghost),
                (self.system.n_solutes, ghost),
            ],
        )
        return _RankState(
            comm, ctx, compile_seconds, owned, phi_fields, mu_fields, halo,
            phi_global, mu_global,
        )

    def _rank_run(self, comm, steps: int, *, setup=None,
                  t0: float = 0.0, step0: int = 0,
                  fault_plan=None, guard: bool = False,
                  telemetry=None, shard_store=None,
                  checkpoint_every: int | None = None):
        """One :meth:`run` as a resident rank executes it: copy in, two
        initial exchanges, the steps with their hooks, copy out.

        *setup* — the world-shared global arrays — comes with the first
        command of a world only; the rank sets itself up from it.
        """
        state = comm.resident.get(_STATE)
        fresh = state is None
        if fresh:
            state = comm.resident[_STATE] = self._rank_setup(
                comm, *setup, fault_plan
            )
        comm, owned = state.comm, state.owned
        phi_fields, mu_fields = state.phi_fields, state.mu_fields
        if fault_plan is not None:
            # This call's copy of the plan: the one whose fires reach
            # the caller (it equals the resident one where ranks share
            # the caller's memory).
            comm.plan = fault_plan
            comm.step = step0
        if shard_store is not None:
            shard_store = shard_store.rank_view()
        tel = tree = None
        if telemetry is not None:
            from repro.telemetry.session import RankTelemetry

            tel = RankTelemetry(
                telemetry, comm, steps=steps, step0=step0, blocks=len(owned),
                cells=sum(math.prod(b.shape) for b in owned),
            )
            tree = tel.tree
            if fresh and state.compile_seconds:
                tree.record("compile", state.compile_seconds)
            if fresh:
                tel.events.emit(
                    "halo_channels_registered", channels=state.halo.n_channels,
                )
        # Process backend: time the pipe phases (send/recv) under
        # comm/pipe — for this call only, the transport outlives it.
        attach = hasattr(comm, "attach_timing")
        if attach:
            comm.attach_timing(tree)
        try:
            # Initial state: each rank copies its block slices out of the
            # world-shared global arrays.  The resident fields still hold
            # the previous call in dst and in the ghosts; every cell a
            # sweep reads is rewritten first.
            for b in owned:
                sl = (slice(None),) + self._block_slices(b)
                phi_fields[b.id].set_interior(state.phi_global[sl], "src")
                mu_fields[b.id].set_interior(state.mu_global[sl], "src")
            timer_phi = ExchangeTimer(tree, "comm/phi")
            timer_mu = ExchangeTimer(tree, "comm/mu")
            sync_phi = state.halo.field_sync(phi_fields, self.phi_bc, timer_phi)
            sync_mu = state.halo.field_sync(mu_fields, self.mu_bc, timer_mu)
            sync_phi("src")
            sync_mu("src")
            stepper = Stepper(
                state.ctx, get_phi_kernel(self.kernel),
                get_split_mu_kernel(self.kernel) if self.overlap
                else get_mu_kernel(self.kernel),
                self.temperature, self.params.dt, sync_phi, sync_mu,
                tree=tree,
            )
            blocks = [
                (phi_fields[b.id], mu_fields[b.id], b.offset[-1], b.shape[-1])
                for b in owned
            ]
            before, after = self._hooks(
                state, stepper, t0=t0, fault_plan=fault_plan, guard=guard,
                tel=tel, shard_store=shard_store,
                checkpoint_every=checkpoint_every,
            )
            if tel is not None:
                tel.loop_started()
            time_now = t0
            for step in range(step0, step0 + steps):
                for hook in before:
                    hook(step, time_now)
                stepper.step(blocks, time_now)
                time_now += self.params.dt
                for hook in after:
                    hook(step + 1, time_now)
            # Result: each rank copies its interiors back into the shared
            # global arrays (disjoint slices, so no rank waits for another).
            for b in owned:
                sl = (slice(None),) + self._block_slices(b)
                state.phi_global[sl] = phi_fields[b.id].interior_src
                state.mu_global[sl] = mu_fields[b.id].interior_src
            extra = {}
            if tel is not None:
                extra = tel.finish(steps, {"phi": timer_phi, "mu": timer_mu})
        except BaseException as exc:
            exc.rank_extra = {
                "store_stats": None if shard_store is None
                else shard_store.stats,
                "events": None if tel is None else tel.fail(exc),
            }
            raise
        finally:
            if attach:
                comm.attach_timing(None)
        if shard_store is not None:
            extra["store_stats"] = shard_store.stats
        stats = RankStats(
            rank=comm.rank,
            comm_phi_seconds=timer_phi.seconds,
            comm_mu_seconds=timer_mu.seconds,
            comm_bytes=timer_phi.bytes + timer_mu.bytes,
            comm_messages=timer_phi.messages + timer_mu.messages,
            n_blocks=len(owned),
        )
        return stats, extra

    def _hooks(self, state: _RankState, stepper: Stepper, *, t0: float,
               fault_plan, guard: bool, tel, shard_store, checkpoint_every):
        """``(before, after)``: what runs around each step of one call.

        Hooks are called ``hook(step, time)`` — before a step with its
        global index and start time, after it with the count of steps
        done and the time reached — and registered only when the call
        asked for them: before, the step span's start, the progress
        tick and the faults; after, the finite guard, the span's end,
        the heartbeat, the invariant guard and the checkpoint (which
        fires the I/O faults of *fault_plan*).
        """
        comm, owned = state.comm, state.owned
        events = tel.events if tel is not None else None
        before = list(tel.before_step) if tel is not None else []
        after = []
        note_progress = getattr(comm, "note_progress", None)
        if note_progress is not None:
            # Feed the liveness watchdog even on steps with little
            # communication: one tick per step keeps a busy rank
            # distinguishable from a hung one.
            before.append(lambda step, t: note_progress())
        if fault_plan is not None:
            from repro.resilience.faults import rank_fault_hook

            before.append(rank_fault_hook(
                comm, fault_plan,
                state.phi_fields[owned[0].id] if owned else None, events,
            ))
        fields = [(b.id, state.phi_fields[b.id], state.mu_fields[b.id])
                  for b in owned]
        if guard:
            from repro.resilience.guards import finite_guard

            after.append(finite_guard(
                stepper, fields, comm.rank, events=events,
            ))
        if tel is not None:
            after.extend(tel.after_step)
        if shard_store is not None:
            if guard:
                from repro.resilience.guards import invariant_guard

                def content(phi, mu, t: float):  # of the stacked blocks
                    return solute_content(self.system, phi, mu, [
                        slice_temperatures(self.temperature, t, b.offset[-1],
                                           b.shape[-1])[1:-1] for b in owned
                    ])

                after.append(invariant_guard(
                    comm, fields, content, t0=t0, every=checkpoint_every,
                    record=stepper.record, events=events,
                ))
            after.append(shard_store.rank_hook(
                comm, fields, every=checkpoint_every,
                topology=self.topology(), kernel=self.kernel, events=events,
                fault_plan=fault_plan,
            ))
        return before, after
