"""The benchmark's definition: workloads, metrics, inputs, result check.

``BENCHMARK.json`` at the repository root repeats the names, units,
directions and bounds given here; ``tests/test_harness.py`` checks that
the two agree.  ``repro`` is imported inside functions only, so the
driver can read the tables without it and a worker can time the import.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Passes (fresh worker processes) per workload and run.
PASSES = 3
#: Cold set-ups per workload and run: one per pass, the rest in workers
#: that set up and exit.
SETUPS = 5
#: Untimed segments at the start of each pass (after the set-up segment).
WARMUPS = 2
#: Timed segments a pass runs at least, whatever ``--seconds`` says: the
#: fastest tenth of 3 x 8 is still more than one sample.
MIN_TIMED = 8
#: Steps between sharded checkpoints on the campaign workload.
CHECKPOINT_EVERY = 10
#: Largest deviation from the simplex sum a healthy phi field may show.
SIMPLEX_TOL = 1e-9
#: Agreement required with the reference where bitwise is not promised.
REFERENCE_TOL = 1e-11


@dataclass(frozen=True)
class Workload:
    """One configuration of the program and the segment length *steps*."""

    name: str
    shape: tuple[int, int, int]
    kernel: str
    steps: int
    why: str
    blocks: tuple[int, int, int] | None = None  # None: serial Simulation
    backend: str | None = None
    overlap: bool = False
    campaign: bool = False
    n_ranks: int = 1

    @property
    def distributed(self) -> bool:
        return self.blocks is not None

    @property
    def cells(self) -> int:
        return int(np.prod(self.shape))

    @property
    def block_shape(self) -> tuple[int, ...]:
        blocks = self.blocks or (1, 1, 1)
        return tuple(s // b for s, b in zip(self.shape, blocks))

    @property
    def blocks_per_rank(self) -> int:
        return int(np.prod(self.blocks or (1, 1, 1))) // self.n_ranks

    def config(self) -> dict:
        """The configuration as recorded in a result file."""
        return {
            "shape": list(self.shape), "kernel": self.kernel,
            "S": self.steps, "blocks_per_axis": self.blocks and list(self.blocks),
            "n_ranks": self.n_ranks, "backend": self.backend,
            "overlap": self.overlap, "campaign": self.campaign,
        }


WORKLOADS = (
    Workload(
        "serial-1r", (32, 32, 64), "compiled", 3,
        "plain single-threaded baseline of the same problem: C kernels are "
        "~94% of the step, simmpi/distributed do nothing; kernel and serial "
        "step-glue changes show here only",
    ),
    Workload(
        "thread-2r", (32, 32, 64), "compiled", 4,
        "two 32^3 blocks on two thread ranks: compute-bound, large slab "
        "exchanges through aliased arrays, real 2-core scaling because the "
        "cffi kernels release the GIL",
        blocks=(1, 1, 2), backend="thread", n_ranks=2,
    ),
    Workload(
        "process-2r", (32, 32, 64), "compiled", 4,
        "same problem on two process ranks: shared-memory slabs, pipes and "
        "a fork per run(); a transport gain shows here and leaves thread-2r "
        "flat",
        blocks=(1, 1, 2), backend="process", n_ranks=2,
    ),
    Workload(
        "smallblocks-process-overlap", (16, 16, 32), "compiled_shortcuts", 20,
        "16 blocks of 8^3 under Algorithm 2: kernels are at most half the "
        "step, the rest is per-block glue, BC fill, pack/notify/unpack of "
        "small messages and the split-mu schedule",
        blocks=(2, 2, 4), backend="process", overlap=True, n_ranks=2,
    ),
    Workload(
        "smallblocks-thread-campaign", (16, 16, 32), "compiled", 20,
        "production campaign settings (telemetry, NaN guard, sharded "
        "checkpoints every 10 steps) on the block size where they are "
        "visible; an I/O or telemetry gain shows here only",
        blocks=(2, 2, 4), backend="thread", campaign=True, n_ranks=2,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}

#: name, unit, better, bound, definition.  The issue's ``fail_frac`` is
#: the result line's ``failed`` / ``attempted`` (a metric that is always 0
#: cannot carry a relative bound); its ``step_ms_p50`` / ``step_ms_p75``
#: are reported as ungated diagnostics (README, "What the host allows").
END_TO_END = (
    ("mlups", "MLUP/s", "higher", 0.25,
     "cells x steps over the summed wall of all timed segments: the "
     "paper's metric, and time-to-solution for the steps run"),
    ("setup_s", "s", "lower", 0.25,
     "median over the cold set-ups of: import repro + construct solver + "
     "first 1-step segment; input generation excluded"),
    ("peak_rss_mb", "MB", "lower", 0.15,
     "largest ru_maxrss in the worker's process tree, maximum over passes"),
)

#: name, unit, better.  Grouped as layers.py measures them.
PER_LAYER = (
    # compiled kernels on the workload's per-rank block, mean per block
    ("core.kernels.phi_ms", "ms", "lower"),
    ("core.kernels.mu_ms", "ms", "lower"),
    ("core.kernels.phi_mlups", "MLUP/s", "higher"),
    ("core.kernels.mu_mlups", "MLUP/s", "higher"),
    ("core.kernels.mu_split_local_ms", "ms", "lower"),
    ("core.kernels.mu_split_neighbor_ms", "ms", "lower"),
    ("core.kernels.warmup_s", "s", "lower"),
    ("core.kernels.flops_per_cell", "count", "lower"),
    ("core.kernels.bytes_per_cell", "B", "lower"),
    # step glue around the kernels, per block
    ("grid.field.interior_copy_ms", "ms", "lower"),
    ("grid.boundary.apply_ms", "ms", "lower"),
    ("core.temperature.at_time_us", "us", "lower"),
    ("core.solver.glue_ms", "ms", "lower"),
    ("distributed.solver.glue_ms", "ms", "lower"),
    # moving window (serial-only today), on the workload's domain
    ("core.moving_window.shift_ms", "ms", "lower"),
    ("core.regions.front_position_ms", "ms", "lower"),
    # launch, paid once per segment
    ("simmpi.runtime.spawn_ms", "ms", "lower"),
    ("distributed.solver.run0_ms", "ms", "lower"),
    ("distributed.halo.register_ms", "ms", "lower"),
    ("distributed.halo.exchange_round_ms", "ms", "lower"),
    # point-to-point and collectives inside a 2-rank run_spmd
    ("simmpi.comm.pingpong_us", "us", "lower"),
    ("simmpi.comm.slab_roundtrip_us", "us", "lower"),
    ("simmpi.comm.barrier_us", "us", "lower"),
    ("simmpi.comm.allreduce_us", "us", "lower"),
    ("simmpi.transport.pingpong_us", "us", "lower"),
    ("simmpi.transport.slab_roundtrip_us", "us", "lower"),
    ("simmpi.transport.barrier_us", "us", "lower"),
    ("simmpi.transport.allreduce_us", "us", "lower"),
    # DistributedResult.stats with telemetry off
    ("distributed.solver.comm_phi_ms_per_step", "ms", "lower"),
    ("distributed.solver.comm_mu_ms_per_step", "ms", "lower"),
    ("distributed.solver.comm_bytes_per_step", "B", "lower"),
    ("distributed.solver.comm_messages_per_step", "count", "lower"),
    # checkpoint I/O of the workload's domain
    ("io.checkpoint.save_ms", "ms", "lower"),
    ("io.checkpoint.load_ms", "ms", "lower"),
    ("io.checkpoint.mb_per_s", "MB/s", "higher"),
    ("io.sharded.write_ms", "ms", "lower"),
    ("io.sharded.load_ms", "ms", "lower"),
    # interleaved A/B segment pairs (campaign workload)
    ("telemetry.overhead_frac", "fraction", "lower"),
    ("telemetry.trace_overhead_frac", "fraction", "lower"),
    ("resilience.guard_overhead_frac", "fraction", "lower"),
    ("resilience.checkpoint_overhead_frac", "fraction", "lower"),
    # one RunTelemetry(trace=True) run, per step, mean over ranks
    ("telemetry.tree.compute.phi_ms", "ms", "lower"),
    ("telemetry.tree.compute.mu_ms", "ms", "lower"),
    ("telemetry.tree.compute.mu_local_ms", "ms", "lower"),
    ("telemetry.tree.compute.mu_neighbor_ms", "ms", "lower"),
    ("telemetry.tree.comm.phi_ms", "ms", "lower"),
    ("telemetry.tree.comm.mu_ms", "ms", "lower"),
    ("telemetry.tree.guard_ms", "ms", "lower"),
    ("telemetry.tree.comm.pipe.send_ms", "ms", "lower"),
    ("telemetry.tree.comm.pipe.recv_ms", "ms", "lower"),
    ("telemetry.counters.pipe_messages_per_step", "count", "lower"),
    ("telemetry.counters.halo_acks_per_step", "count", "lower"),
    ("telemetry.counters.segments_created_per_step", "count", "lower"),
    ("telemetry.tracing.overlap_efficiency", "fraction", "higher"),
    ("telemetry.tracing.imbalance_ratio", "ratio", "lower"),
    # result check and the budget itself
    ("verify.max_abs_err_phi", "abs", "lower"),
    ("verify.max_abs_err_mu", "abs", "lower"),
    ("budget.step_ms", "ms", "lower"),
    ("budget.residual_frac", "fraction", "lower"),
    ("bench.span_overhead_frac", "fraction", "lower"),
)


# --------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------- #

def make_inputs(shape, seed: int):
    """Ghosted ``(phi, mu)`` of the ``interface`` scenario for *seed*.

    ``make_scenario`` lays solid lamellae, a diffuse front and melt along
    z, so every shortcut region occurs.  The seed shifts the lamellae
    along the periodic x axis and perturbs mu in the melt: inputs differ
    from seed to seed while the amount of work stays the same.
    """
    from repro.core.scenarios import fill_ghosts_periodic, make_scenario

    phi, mu, _tg, system, _params = make_scenario("interface", shape, seed=seed)
    rng = np.random.default_rng(seed)
    phi = np.roll(phi[:, 1:-1], int(rng.integers(shape[0])), axis=1)
    phi = np.pad(phi, [(0, 0), (1, 1), (0, 0), (0, 0)])
    liquid = phi[system.liquid_index]
    mu = mu + 1e-3 * rng.standard_normal(mu.shape) * liquid
    return fill_ghosts_periodic(phi, 3), fill_ghosts_periodic(mu, 3)


def interior(arr: np.ndarray) -> np.ndarray:
    """Contiguous copy of a ghosted array's interior."""
    return np.ascontiguousarray(arr[:, 1:-1, 1:-1, 1:-1])


# --------------------------------------------------------------------- #
# running a workload
# --------------------------------------------------------------------- #

class Runner:
    """A workload's solver and the call that advances it one segment.

    A segment is one call a user would make: ``Simulation.step(S)`` or
    ``DistributedSimulation.run(S, phi, mu, t0=, step0=)`` continued from
    the previous segment's result, so a distributed segment includes rank
    launch, scatter and gather.
    """

    def __init__(self, wl: Workload, phi0, mu0, tmp: Path) -> None:
        self.wl = wl
        self.tmp = Path(tmp)
        self.steps_done = 0
        self.segments = 0
        self.phi, self.mu = phi0, mu0
        self.store = None
        if not wl.distributed:
            from repro.core.solver import Simulation

            self.solver = Simulation(wl.shape, kernel=wl.kernel)
            self.solver.initialize(phi0, mu0)
            self.kernel = self.solver.kernel_name
            return
        from repro.distributed.solver import DistributedSimulation

        self.solver = DistributedSimulation(
            wl.shape, wl.blocks, kernel=wl.kernel, n_ranks=wl.n_ranks,
            backend=wl.backend, overlap=wl.overlap,
        )
        self.kernel = self.solver.kernel
        if wl.campaign:
            from repro.resilience.store import ShardedCheckpointStore

            self.store = ShardedCheckpointStore(self.tmp / "ck", keep=2)

    def campaign_kwargs(self) -> dict:
        """``run()`` arguments of the production-campaign configuration."""
        from repro.telemetry import RunTelemetry

        return {
            "telemetry": RunTelemetry(directory=self.tmp / "telemetry"),
            "guard": True,
            "shard_store": self.store,
            "checkpoint_every": CHECKPOINT_EVERY,
        }

    def advance(self, steps: int, **run_kwargs):
        """Advance *steps* steps; returns the DistributedResult, if any."""
        self.segments += 1
        if not self.wl.distributed:
            self.solver.step(steps)
            self.phi = self.solver.phi.interior_src
            self.mu = self.solver.mu.interior_src
            self.steps_done += steps
            return None
        result = self.solver.run(
            steps, self.phi, self.mu,
            t0=self.steps_done * self.solver.params.dt,
            step0=self.steps_done, **run_kwargs,
        )
        self.phi, self.mu = result.phi, result.mu
        self.steps_done += steps
        return result

    def poison(self) -> None:
        """Write a NaN into the current state (harness self-test)."""
        if self.wl.distributed:
            self.phi = self.phi.copy()
            self.phi[0, 0, 0, 0] = np.nan
        else:
            self.solver.phi.interior_src[0, 0, 0, 0] = np.nan

    def segment(self, steps: int | None = None):
        """One segment in the workload's own configuration."""
        steps = self.wl.steps if steps is None else steps
        if not self.wl.campaign:
            return self.advance(steps)
        try:
            return self.advance(steps, **self.campaign_kwargs())
        finally:
            # every segment starts from an empty event directory, so the
            # work per segment does not grow with the segment count
            shutil.rmtree(self.tmp / "telemetry", ignore_errors=True)


# --------------------------------------------------------------------- #
# result check
# --------------------------------------------------------------------- #

def check_state(phi: np.ndarray, mu: np.ndarray) -> str | None:
    """Why the state is unhealthy, or ``None``: finite and on the simplex."""
    if not (np.isfinite(phi).all() and np.isfinite(mu).all()):
        return "non-finite field values"
    off = float(np.abs(phi.sum(axis=0) - 1.0).max())
    if off > SIMPLEX_TOL:
        return f"phi off the simplex by {off:.3e}"
    return None


def reference_rung(wl: Workload) -> str:
    """Rung of the serial reference ``Simulation``.

    Distributed workloads are compared with the serial solver on their
    own rung.  ``serial-1r`` *is* that solver, so it is compared with the
    NumPy rung its compiled rung mirrors.
    """
    if wl.distributed:
        return wl.kernel
    from repro.core.kernels import FALLBACK_RUNGS

    return FALLBACK_RUNGS[wl.kernel]


def reference_state(wl: Workload, phi0, mu0, steps: int):
    """Interior ``(phi, mu)`` of the serial reference after *steps* steps."""
    from repro.core.solver import Simulation

    sim = Simulation(wl.shape, kernel=reference_rung(wl))
    sim.initialize(phi0, mu0)
    sim.step(steps)
    return sim.phi.interior_src.copy(), sim.mu.interior_src.copy()


def compare_with_reference(wl: Workload, phi, mu, ref_phi, ref_mu):
    """``(error_or_None, max_abs_err_phi, max_abs_err_mu)``.

    Bitwise for Algorithm 1 against the same rung; within
    :data:`REFERENCE_TOL` for Algorithm 2 and for ``serial-1r``.
    """
    err_phi = float(np.abs(phi - ref_phi).max())
    err_mu = float(np.abs(mu - ref_mu).max())
    tol = REFERENCE_TOL if (wl.overlap or not wl.distributed) else 0.0
    worst = max(err_phi, err_mu)
    error = None
    if not worst <= tol:
        error = f"differs from the serial reference by {worst:.3e} (tol {tol:g})"
    return error, err_phi, err_mu
