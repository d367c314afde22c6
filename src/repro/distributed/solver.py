"""Distributed phase-field driver (Algorithms 1 & 2 over simulated ranks).

The domain is split by a :class:`BlockForest`; blocks are assigned to
simulated MPI ranks by a load-balancing strategy (one block per rank by
default, several per rank like waLBerla when ``n_ranks`` is smaller).
Ghost layers travel through
:meth:`repro.distributed.halo.BlockHaloRegistry.exchange` — same-rank
neighbours copy directly, remote neighbours exchange through halo
channels registered once per run; fault-injected runs take the same
path, with the injection layer wrapped around the send channels.

Two schedules are provided, mirroring the paper:

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

import logging
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
from repro.core.temperature import ConstantTemperature, FrozenTemperature
from repro.distributed.halo import BlockHaloRegistry, ExchangeTimer
from repro.grid.balance import assign_blocks
from repro.grid.blockforest import BlockForest
from repro.grid.boundary import BoundarySpec, Dirichlet, Neumann
from repro.grid.field import Field
from repro.simmpi.runtime import open_world
from repro.thermo.system import TernaryEutecticSystem

__all__ = ["DistributedSimulation", "DistributedResult", "RankStats"]

logger = logging.getLogger(__name__)


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

    With telemetry enabled, *timing* carries the cross-rank-reduced
    timing tree (see :mod:`repro.telemetry.reduce`), *counters* the
    summed per-rank counter snapshots, and *report* the schema-valid
    :mod:`repro.telemetry.report` document of the run.  With span
    tracing on (``REPRO_TRACE=1`` or ``RunTelemetry(trace=True)``),
    *spans* holds the per-rank span timeline gathered to rank 0 and
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
        (default — deterministic, GIL-serialized) or ``"process"`` (one
        OS process per rank, field buffers in shared memory, kernels
        genuinely parallel).  Results are bitwise identical between the
        two: per-block arithmetic does not depend on where a rank runs.

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
        backend: str = "thread",
    ):
        self.shape = tuple(shape)
        self.dim = len(shape)
        self.system = system if system is not None else TernaryEutecticSystem()
        self.params = (
            params
            if params is not None
            else PhaseFieldParameters.for_system(self.system, dim=self.dim)
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

        nz = self.shape[-1]
        if temperature is None:
            te = self.system.t_eutectic
            temperature = FrozenTemperature(
                t_ref=te, gradient=4.0 / nz, velocity=0.02,
                z0=0.45 * nz * self.params.dx, dx=self.params.dx,
            )
        self.temperature = temperature
        self.phi_bc = phi_bc if phi_bc is not None else BoundarySpec.directional(self.dim)
        self.mu_bc = (
            mu_bc
            if mu_bc is not None
            else BoundarySpec.directional(self.dim, bottom=Neumann(), top=Dirichlet(0.0))
        )
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
        simulation continued from a (resharded) checkpoint reproduces the
        original run bit-for-bit: per-block arithmetic does not depend on
        which rank owns the block.  Used by the elastic campaign driver
        after a permanent rank loss.
        """
        if not 1 <= n_ranks <= self.forest.n_blocks:
            raise ValueError(
                f"cannot run {self.forest.n_blocks} blocks on {n_ranks} "
                "rank(s)"
            )
        return DistributedSimulation(
            self.shape,
            self.forest.blocks_per_axis,
            system=self.system,
            params=self.params,
            temperature=self.temperature,
            kernel=self.kernel,
            overlap=self.overlap,
            phi_bc=self.phi_bc,
            mu_bc=self.mu_bc,
            n_ranks=n_ranks,
            balance_strategy=self.balance_strategy,
            backend=self.backend,
        )

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
        guard, the Fig. 8 readout), stream structured events and sample
        counters; the trees are reduced across ranks inside the SPMD
        region and the merged breakdown, counter sums and a schema-valid
        run report are attached to the result (and written to
        ``telemetry.directory`` when set).  ``None`` leaves the hot path
        untouched.

        *shard_store* — a
        :class:`~repro.resilience.store.ShardedCheckpointStore` — makes
        every rank write its own block shard whenever the **global** step
        count reaches a multiple of *checkpoint_every* (boundaries are
        therefore stable across restarts, whatever *step0* is).  Shard
        manifest entries are gathered to rank 0, which publishes the
        manifest only if every rank's write succeeded — the two-phase
        commit that keeps a mid-checkpoint failure from ever producing a
        half-valid restart point.  A rank whose write fails persistently
        (after the store's bounded retries) contributes no entry; the
        checkpoint is skipped with a logged event and the run continues.
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
            # The world closed itself; keep what its ranks had counted.
            counted = [
                getattr(error, "store_stats", None)
                for error in getattr(exc, "simmpi_errors", ())
            ]
            raise
        else:
            counted = [extra.get("store_stats") for _st, extra in results]
        finally:
            for counts in counted:
                if counts is not None:
                    shard_store.absorb(counts)
        wall = _time.perf_counter() - wall0

        result = DistributedResult(
            phi=np.array(resident.phi, dtype=phi0.dtype),
            mu=np.array(resident.mu, dtype=mu0.dtype),
            stats=[st for st, _extra in results],
        )
        if telemetry is not None:
            self._finalize_telemetry(
                result, telemetry, [extra for _st, extra in results],
                steps=steps, wall=wall, fault_plan=fault_plan, guard=guard,
            )
        return result

    def _finalize_telemetry(
        self, result: DistributedResult, telemetry, extras, *,
        steps: int, wall: float, fault_plan, guard: bool,
    ) -> None:
        """Merge per-rank telemetry and emit the run report."""
        from repro.telemetry.report import build_run_report, write_run_report

        result.timing = next(
            (e["tree"] for e in extras if e and e.get("tree")), None
        )
        counters: dict = {}
        for extra in extras:
            for name, value in (extra or {}).get("counters", {}).items():
                if name.startswith("mlups"):
                    counters[name] = max(counters.get(name, 0.0), value)
                else:
                    counters[name] = counters.get(name, 0) + value
        result.counters = counters

        cells = int(np.prod(self.shape))
        mlups = steps * cells / wall / 1.0e6 if wall > 0 else 0.0
        merged_events = telemetry.merge_events()
        event_count = len(merged_events) or sum(
            (extra or {}).get("event_count", 0) for extra in extras
        )
        event_path = (
            str(telemetry.directory / "events-merged.jsonl")
            if telemetry.directory is not None else None
        )
        fault_stats = None
        if fault_plan is not None:
            fault_stats = {
                "fired": [
                    {"kind": f.kind, "step": s, "rank": r}
                    for f, s, r in fault_plan.fired()
                ],
                "pending": len(fault_plan.pending()),
            }
        tracing_stats = None
        spans = next(
            (e["spans"] for e in extras if e and e.get("spans") is not None),
            None,
        )
        if spans is not None:
            from repro.telemetry.spans import tracing_section
            from repro.telemetry.tracing import write_chrome_trace

            trace_stats = next(
                (e["trace_stats"] for e in extras
                 if e and e.get("trace_stats")),
                [],
            )
            tracing_stats = tracing_section(spans, trace_stats)
            result.spans = spans
            trace_path = telemetry.trace_path()
            if trace_path is not None:
                result.trace_path = write_chrome_trace(trace_path, spans)
                logger.info("chrome trace written to %s", result.trace_path)
        report = build_run_report(
            run_id=telemetry.run_id,
            config={
                "shape": list(self.shape),
                "blocks_per_axis": list(self.forest.blocks_per_axis),
                "n_ranks": self.n_ranks,
                "kernel": self.kernel,
                "overlap": self.overlap,
                "backend": self.backend,
                "guard": guard,
                "dt": self.params.dt,
            },
            grid_shape=self.shape,
            n_ranks=self.n_ranks,
            steps=steps,
            wall_seconds=wall,
            mlups=mlups,
            timings=result.timing,
            counters=counters,
            event_stats={"count": event_count, "path": event_path},
            fault_stats=fault_stats,
            tracing_stats=tracing_stats,
        )
        result.report = report
        path = telemetry.report_path()
        if path is not None:
            write_run_report(path, report)
            logger.info("run report written to %s", path)

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

        # Under the process backend this places the double buffers in
        # shared memory, so ghost slabs between co-resident ranks move
        # by memcpy; thread ranks get None (plain heap arrays).
        allocator = (
            comm.field_allocator() if hasattr(comm, "field_allocator")
            else None
        )
        phi_fields = {
            b.id: Field(self.system.n_phases, b.shape, allocator=allocator)
            for b in owned
        }
        mu_fields = {
            b.id: Field(self.system.n_solutes, b.shape, allocator=allocator)
            for b in owned
        }
        ghost = next(iter(phi_fields.values())).ghost if phi_fields else 1
        # Collective: every rank registers its send channels and accepts
        # its receive channels here, once — every exchange after it runs
        # ack- and staging-free.
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
        """One :meth:`run` as a resident rank executes it.

        *setup* — the world-shared global arrays — comes with the first
        command of a world only; the rank sets itself up from it.
        """
        state = comm.resident.get(_STATE)
        fresh = state is None
        if fresh:
            state = comm.resident[_STATE] = self._rank_setup(
                comm, *setup, fault_plan
            )
        comm = state.comm
        if fault_plan is not None:
            # This call's copy of the plan: the one whose fires reach
            # the caller (it equals the resident one where ranks share
            # the caller's memory).
            comm.plan = fault_plan
            comm.step = step0
        if shard_store is not None:
            shard_store = shard_store.rank_view()

        tree = events = heartbeat = registry = None
        if telemetry is not None:
            from repro.telemetry.counters import Heartbeat, MetricsRegistry
            from repro.telemetry.timing import TimingTree

            # Span tracing (REPRO_TRACE=1 / RunTelemetry(trace=True)):
            # the tree forwards every timed scope to the recorder as a
            # timestamped span; tracer=None keeps the hot path at one
            # attribute check per measurement.
            tree = TimingTree(tracer=telemetry.open_tracer(comm.rank))
            if fresh and state.compile_seconds:
                tree.record("compile", state.compile_seconds)
            events = telemetry.open_events(comm.rank)
            registry = MetricsRegistry()
            cells_owned = sum(int(np.prod(b.shape)) for b in state.owned)
            heartbeat = Heartbeat(
                registry, cells_per_step=cells_owned,
                every=telemetry.heartbeat_every, events=events,
            )
            events.emit(
                "run_start", steps=steps, step0=step0,
                blocks=len(state.owned), cells=cells_owned,
            )
            if fresh:
                events.emit(
                    "halo_channels_registered",
                    channels=state.halo.n_channels,
                )
        # Process backend: time the pipe control-message phases
        # (send/recv/ack) under comm/pipe and route transport degradation
        # and shared-memory reclamation events into the rank's log — for
        # this call only, the transport outlives it.
        attach = hasattr(comm, "attach_timing")
        if attach:
            comm.attach_timing(tree)
            comm.attach_events(events)
        try:
            stats, extra = self._rank_loop(
                state, steps, t0=t0, step0=step0,
                fault_plan=fault_plan, guard=guard,
                tree=tree, events=events,
                heartbeat=heartbeat, registry=registry,
                shard_store=shard_store, checkpoint_every=checkpoint_every,
            )
        except BaseException as exc:
            if shard_store is not None:
                exc.store_stats = shard_store.stats
            if events is not None:
                events.emit("rank_failed", "ERROR", error=repr(exc))
                events.close()
            raise
        finally:
            if attach:
                comm.attach_timing(None)
                comm.attach_events(None)
        if shard_store is not None:
            extra["store_stats"] = shard_store.stats
        return stats, extra

    def _sharded_checkpoint(self, comm, shard_store, owned,
                            phi_fields, mu_fields, *, step: int,
                            time: float, events) -> None:
        """Two-phase sharded checkpoint from inside the SPMD region.

        Write phase: this rank durably writes its own shard (bounded
        retries inside the store).  Publish phase: manifest entries are
        gathered to rank 0, which commits the generation only when every
        rank succeeded; otherwise the checkpoint is skipped — never
        half-published — and the run continues.
        """
        entry = None
        try:
            entry = shard_store.write_rank_shard(
                rank=comm.rank, step=step,
                blocks={
                    b.id: (
                        phi_fields[b.id].interior_src,
                        mu_fields[b.id].interior_src,
                    )
                    for b in owned
                },
                events=events,
            )
        except OSError as exc:
            logger.error(
                "rank %d: shard write failed persistently at step %d: %r",
                comm.rank, step, exc,
            )
            if events is not None:
                events.emit(
                    "checkpoint_skipped", "ERROR", step=step,
                    error=repr(exc),
                )
        entries = comm.gather(entry, root=0)
        if comm.rank != 0:
            return
        if all(e is not None for e in entries):
            path = shard_store.publish_manifest(
                entries, step=step, time=time,
                topology=self.topology(), kernel=self.kernel,
            )
            if events is not None:
                events.emit("checkpoint", step=step, path=str(path))
        else:
            shard_store.note_skipped()
            failed = [r for r, e in enumerate(entries) if e is None]
            logger.warning(
                "checkpoint at step %d skipped: rank(s) %s failed their "
                "shard write", step, failed,
            )
            if events is not None:
                events.emit(
                    "checkpoint_skipped", "WARNING", step=step,
                    failed_ranks=failed,
                )

    def _rank_loop(self, state: _RankState, steps: int, *,
                   t0: float, step0: int, fault_plan, guard: bool,
                   tree, events, heartbeat, registry,
                   shard_store=None, checkpoint_every=None):
        comm, ctx, owned = state.comm, state.ctx, state.owned
        phi_fields, mu_fields = state.phi_fields, state.mu_fields
        halo_reg = state.halo
        phi_kernel = get_phi_kernel(self.kernel)
        mu_kernel = get_mu_kernel(self.kernel)
        split = get_split_mu_kernel(self.kernel)

        # Initial state: each rank copies its block slices out of the
        # world-shared global arrays.  The resident fields still hold the
        # previous call in dst and in the ghosts; every cell a sweep reads
        # is rewritten first.
        for b in owned:
            sl = (slice(None),) + self._block_slices(b)
            phi_fields[b.id].set_interior(state.phi_global[sl], "src")
            mu_fields[b.id].set_interior(state.mu_global[sl], "src")

        timer_phi = ExchangeTimer(tree, "comm/phi")
        timer_mu = ExchangeTimer(tree, "comm/mu")
        tracer = tree.tracer if tree is not None else None
        _pc = _time.perf_counter

        def exchange(fields: dict[int, Field], buffer: str, spec, timer):
            halo_reg.exchange(
                {bid: getattr(f, buffer) for bid, f in fields.items()},
                spec, timer=timer,
            )

        exchange(phi_fields, "src", self.phi_bc, timer_phi)
        exchange(mu_fields, "src", self.mu_bc, timer_mu)

        dt = self.params.dt
        time_now = t0
        mu_ghosts_stale = False
        note_progress = getattr(comm, "note_progress", None)
        # Transport counters snapshotted around the step loop: the diff
        # is the *steady-state* control-message cost (registration and
        # initial exchanges excluded) the fig7 report gates on.
        counters0 = (
            comm.transport_counters()
            if hasattr(comm, "transport_counters") else None
        )
        for local_step in range(steps):
            global_step = step0 + local_step
            # Whole-step spans are recorded to the tracer only (not the
            # tree), so the aggregated timing breakdown keeps its
            # pre-tracing shape; per-rank step totals are the imbalance
            # signal of the report's "tracing" section.
            step_t0 = _pc() if tracer is not None else 0.0
            if note_progress is not None:
                # Feed the liveness watchdog even on steps with little
                # communication: one tick per step keeps a busy rank
                # distinguishable from a hung one.
                note_progress()
            if fault_plan is not None:
                comm.step = global_step
                for kind in ("rank_kill", "kill_rank"):
                    fault = fault_plan.fires(
                        kind, step=global_step, rank=comm.rank
                    )
                    if fault is not None:
                        from repro.resilience.errors import InjectedFault

                        if events is not None:
                            events.emit(
                                "fault", "ERROR", fault=kind,
                                step=global_step,
                            )
                        raise InjectedFault(
                            kind, step=global_step, rank=comm.rank
                        )
                fault = fault_plan.fires(
                    "rank_slow", step=global_step, rank=comm.rank
                )
                if fault is not None:
                    # Transient straggler: the rank pauses but keeps its
                    # heartbeat alive, so the watchdog must NOT kill it.
                    if events is not None:
                        events.emit(
                            "fault", "WARNING", fault="rank_slow",
                            step=global_step, seconds=fault.delay,
                        )
                    _time.sleep(fault.delay)
                fault = fault_plan.fires(
                    "rank_stall", step=global_step, rank=comm.rank
                )
                if fault is not None:
                    # Permanent hang: freeze this rank's progress until
                    # a peer deadline or the watchdog contains it (the
                    # delay is only a safety cap for undeadlined runs).
                    from repro.resilience.faults import stall

                    if events is not None:
                        events.emit(
                            "fault", "ERROR", fault="rank_stall",
                            step=global_step, cap_seconds=fault.delay,
                        )
                    stall(comm, fault.delay)
                fault = fault_plan.fires(
                    "nan_inject", step=global_step, rank=comm.rank
                )
                if fault is not None and owned:
                    from repro.resilience.faults import poison

                    if events is not None:
                        events.emit(
                            "fault", "WARNING", fault="nan_inject",
                            step=global_step,
                        )
                    poison(phi_fields[owned[0].id].interior_src)
            temps = {}
            for b in owned:
                z_off = b.offset[-1]
                nz_loc = b.shape[-1]
                temps[b.id] = (
                    self.temperature.at_time(time_now, nz_loc + 2, z_off - 1),
                    self.temperature.at_time(time_now + dt, nz_loc + 2, z_off - 1),
                )

            if not self.overlap:
                # Algorithm 1
                mark = _pc() if tree is not None else 0.0
                for b in owned:
                    t_old, _ = temps[b.id]
                    phi_fields[b.id].interior_dst[...] = phi_kernel(
                        ctx, phi_fields[b.id].src, mu_fields[b.id].src, t_old
                    )
                if tree is not None:
                    tree.record("compute/phi", _pc() - mark)
                exchange(phi_fields, "dst", self.phi_bc, timer_phi)
                mark = _pc() if tree is not None else 0.0
                for b in owned:
                    t_old, t_new = temps[b.id]
                    mu_fields[b.id].interior_dst[...] = mu_kernel(
                        ctx, mu_fields[b.id].src, phi_fields[b.id].src,
                        phi_fields[b.id].dst, t_old, t_new,
                    )
                if tree is not None:
                    tree.record("compute/mu", _pc() - mark)
                exchange(mu_fields, "dst", self.mu_bc, timer_mu)
            else:
                # Algorithm 2: the phi sweep needs only local mu values, so
                # the (deferred) mu ghost refresh hides behind it; the phi
                # exchange hides behind the local part of the split mu sweep.
                mark = _pc() if tree is not None else 0.0
                for b in owned:
                    t_old, _ = temps[b.id]
                    phi_fields[b.id].interior_dst[...] = phi_kernel(
                        ctx, phi_fields[b.id].src, mu_fields[b.id].src, t_old
                    )
                if tree is not None:
                    tree.record("compute/phi", _pc() - mark)
                if mu_ghosts_stale:
                    exchange(mu_fields, "src", self.mu_bc, timer_mu)
                mu_local, mu_neighbor = split
                mark = _pc() if tree is not None else 0.0
                for b in owned:
                    t_old, t_new = temps[b.id]
                    mu_fields[b.id].interior_dst[...] = mu_local(
                        ctx, mu_fields[b.id].src, phi_fields[b.id].src,
                        phi_fields[b.id].dst, t_old, t_new,
                    )
                if tree is not None:
                    tree.record("compute/mu_local", _pc() - mark)
                exchange(phi_fields, "dst", self.phi_bc, timer_phi)
                mark = _pc() if tree is not None else 0.0
                for b in owned:
                    t_old, _ = temps[b.id]
                    mu_fields[b.id].interior_dst[...] = mu_neighbor(
                        ctx, mu_fields[b.id].interior_dst, mu_fields[b.id].src,
                        phi_fields[b.id].src, phi_fields[b.id].dst, t_old,
                    )
                if tree is not None:
                    tree.record("compute/mu_neighbor", _pc() - mark)
                mu_ghosts_stale = True

            for b in owned:
                phi_fields[b.id].swap()
                mu_fields[b.id].swap()
            time_now += dt
            if guard:
                mark = _pc() if tree is not None else 0.0
                for b in owned:
                    phi_i = phi_fields[b.id].interior_src
                    mu_i = mu_fields[b.id].interior_src
                    if not (np.isfinite(phi_i).all() and np.isfinite(mu_i).all()):
                        from repro.resilience.errors import InvariantViolation

                        if events is not None:
                            events.emit(
                                "guard_trip", "ERROR", block=b.id,
                                step=global_step + 1,
                                reason="non-finite field values",
                            )
                        logger.warning(
                            "guard tripped: non-finite values in block %d "
                            "at step %d (rank %d)",
                            b.id, global_step + 1, comm.rank,
                        )
                        raise InvariantViolation(
                            f"non-finite field values in block {b.id}",
                            step=global_step + 1, rank=comm.rank,
                        )
                if tree is not None:
                    tree.record("guard", _pc() - mark)
            if tracer is not None:
                tracer.record("step", step_t0, _pc(), step=global_step + 1)
            if heartbeat is not None:
                heartbeat.sample(global_step=global_step + 1)
            if (
                shard_store is not None
                and (global_step + 1) % checkpoint_every == 0
            ):
                self._sharded_checkpoint(
                    comm, shard_store, owned, phi_fields, mu_fields,
                    step=global_step + 1, time=time_now, events=events,
                )

        stats = RankStats(
            rank=comm.rank,
            comm_phi_seconds=timer_phi.seconds,
            comm_mu_seconds=timer_mu.seconds,
            comm_bytes=timer_phi.bytes + timer_mu.bytes,
            comm_messages=timer_phi.messages + timer_mu.messages,
            n_blocks=len(owned),
        )
        # Result: each rank copies its interiors back into the shared
        # global arrays (disjoint slices, so no rank waits for another).
        for b in owned:
            sl = (slice(None),) + self._block_slices(b)
            state.phi_global[sl] = phi_fields[b.id].interior_src
            state.mu_global[sl] = mu_fields[b.id].interior_src
        extra = {}
        if tree is not None:
            from repro.telemetry.reduce import reduce_tree_over_ranks

            registry.counter("halo_bytes").add(
                timer_phi.bytes + timer_mu.bytes
            )
            registry.counter("halo_messages").add(
                timer_phi.messages + timer_mu.messages
            )
            if counters0 is not None:
                # Steady-state transport traffic of the step loop alone
                # (zeros on the thread backend, so report shapes agree).
                counters1 = comm.transport_counters()
                registry.counter("pipe_messages").add(
                    counters1["pipe_messages"] - counters0["pipe_messages"]
                )
                registry.counter("halo_acks").add(
                    counters1["acks"] - counters0["acks"]
                )
                registry.counter("segments_created").add(
                    counters1["segments_created"]
                    - counters0["segments_created"]
                )
            events.emit(
                "run_end",
                steps_done=steps,
                comm_seconds=timer_phi.seconds + timer_mu.seconds,
                exchange_phi=timer_phi.stats(),
                exchange_mu=timer_mu.stats(),
            )
            event_count = events.count()
            events.close()
            merged = reduce_tree_over_ranks(comm, tree)
            spans_gathered = trace_stats = None
            if tracer is not None:
                # Per-rank span buffers travel to rank 0 over the same
                # simmpi collectives the run used; every rank resolved
                # the same trace switch, so the gather is uniform.
                gathered = comm.gather(
                    (tracer.drain(), tracer.stats()), root=0
                )
                if gathered is not None:
                    spans_gathered = [
                        s for rank_spans, _ in gathered for s in rank_spans
                    ]
                    trace_stats = [st for _, st in gathered]
            extra = {
                "tree": merged,
                "tree_local": tree.to_dict(),
                "counters": registry.snapshot(),
                "event_count": event_count,
                "spans": spans_gathered,
                "trace_stats": trace_stats,
            }
        return stats, extra
