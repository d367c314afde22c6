"""The layer pass: every layer of one workload, timed from outside.

Each measurement calls a public function of one module of ``repro`` on
the workload's own block shape, rung and backend, inside a span.  Nothing
under ``src/`` is instrumented.  Where a workload's configuration never
enters a layer (``serial-1r`` has no ranks, telemetry is off everywhere
but the campaign workload) the layer's metrics read 0: no time is spent
there.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

import numpy as np

from benchmarks.e2e import workloads as W
from benchmarks.e2e.passes import NO_SPANS, SegmentLog, assert_pinned
from benchmarks.e2e.spans import SpanRecorder
from benchmarks.e2e.stats import quiet

#: Share of ``--seconds`` each group of measurements may use.
SHARES = {
    "kernels": 0.12, "glue": 0.04, "window": 0.02, "segments": 0.40,
    "launch": 0.08, "comm": 0.08, "io": 0.08,
}
#: Steps of one A/B segment: one checkpoint interval.
AB_STEPS = W.CHECKPOINT_EVERY
#: Interleaved A/B rounds the overhead fractions rest on.
AB_ROUNDS = 10


class Bench:
    """Repeat a call inside a span for a share of the time budget."""

    def __init__(self, rec: SpanRecorder, seconds: float, quick: bool) -> None:
        self.rec = rec
        self.seconds = seconds
        self.min_reps = 1 if quick else 3

    def reps_for(self, share: float, one_call_s: float, cap: int = 200) -> int:
        """Repetitions that fit *share* of the budget (for SPMD harnesses,
        which must agree on a count before they start)."""
        fit = int(share * self.seconds / max(one_call_s, 1e-7))
        return max(self.min_reps, min(cap, fit))

    def time(self, name: str, fn, share: float, cap: int = 200) -> float:
        """Quiet estimate of ``fn()``'s seconds over the repetitions that fit."""
        with self.rec.span(name):
            fn()  # first call fills caches and lazy set-up
            samples: list[float] = []
            deadline = time.perf_counter() + share * self.seconds
            while len(samples) < self.min_reps or (
                time.perf_counter() < deadline and len(samples) < cap
            ):
                t0 = time.perf_counter()
                fn()
                samples.append(time.perf_counter() - t0)
        return quiet(samples)


# --------------------------------------------------------------------- #
# SPMD harnesses (module level: the process backend may pickle them)
# --------------------------------------------------------------------- #

def _noop(comm):
    return comm.rank


def _repeat(call, reps: int) -> float:
    """Quiet estimate of ``call(i)``'s seconds; the first call is warm-up."""
    samples = []
    for i in range(reps + 1):
        t0 = time.perf_counter()
        call(i)
        samples.append(time.perf_counter() - t0)
    return quiet(samples[1:])


def _comm_harness(comm, slab_shape, reps: int) -> dict:
    """Ping-pong, barrier and allreduce as rank 0 sees them."""
    peer = 1 - comm.rank

    def pingpong(payload):
        def round_trip(i):
            if comm.rank == 0:
                comm.send(payload, peer, tag=i)
                comm.recv(peer, tag=i)
            else:
                comm.recv(peer, tag=i)
                comm.send(payload, peer, tag=i)
        return round_trip

    calls = {
        "pingpong_us": pingpong(np.zeros(1)),
        "slab_roundtrip_us": pingpong(np.zeros(slab_shape)),
        "barrier_us": lambda i: comm.barrier(),
        "allreduce_us": lambda i: comm.allreduce(1.0),
    }
    return {key: _repeat(call, reps) * 1e6 for key, call in calls.items()}


def _halo_harness(comm, forest, owner, n_phases, n_solutes, spec, reps: int):
    """``(register seconds, exchange-round seconds)`` of this rank:
    one ``BlockHaloRegistry`` over the workload's forest, phi exchanged
    with no kernels in between."""
    from repro.distributed.halo import BlockHaloRegistry
    from repro.grid.field import Field

    allocator = comm.field_allocator() if hasattr(comm, "field_allocator") else None
    arrays = {
        b.id: Field(n_phases, b.shape, allocator=allocator).src
        for b in forest.blocks if owner[b.id] == comm.rank
    }
    comm.barrier()
    t0 = time.perf_counter()
    registry = BlockHaloRegistry(
        comm, forest, owner, 3, streams=[(n_phases, 1), (n_solutes, 1)]
    )
    register_s = time.perf_counter() - t0
    return register_s, _repeat(lambda i: registry.exchange(arrays, spec), reps)


# --------------------------------------------------------------------- #
# groups of measurements
# --------------------------------------------------------------------- #

def rank0_blocks(runner: W.Runner):
    """``(offset, shape)`` of the blocks rank 0 owns (the whole domain
    for the serial solver)."""
    if not runner.wl.distributed:
        return [((0, 0, 0), runner.wl.shape)]
    solver = runner.solver
    return [
        (tuple(b.offset), tuple(b.shape))
        for b in solver.forest.blocks if solver.owner[b.id] == 0
    ]


def ghosted_block(arr: np.ndarray, offset, shape) -> np.ndarray:
    window = tuple(slice(o, o + s + 2) for o, s in zip(offset, shape))
    return np.ascontiguousarray(arr[(slice(None),) + window])


def measure_kernels(bench: Bench, runner: W.Runner, ctx, phi_g, mu_g) -> dict:
    """Kernel sweeps over rank 0's blocks, reported as the mean per block."""
    from repro.core.kernels import get_mu_kernel, get_phi_kernel, get_split_mu_kernel

    wl = runner.wl
    phi_kernel = get_phi_kernel(wl.kernel)
    mu_kernel = get_mu_kernel(wl.kernel)
    mu_local, mu_neighbor = get_split_mu_kernel(wl.kernel)
    temperature = runner.solver.temperature
    dt = runner.solver.params.dt
    blocks = []
    for offset, shape in rank0_blocks(runner):
        phi_b = ghosted_block(phi_g, offset, shape)
        mu_b = ghosted_block(mu_g, offset, shape)
        t_old = temperature.at_time(0.0, shape[-1] + 2, offset[-1] - 1)
        t_new = temperature.at_time(dt, shape[-1] + 2, offset[-1] - 1)
        phi_dst = phi_b.copy()
        phi_dst[:, 1:-1, 1:-1, 1:-1] = phi_kernel(ctx, phi_b, mu_b, t_old)
        partial = mu_local(ctx, mu_b, phi_b, phi_dst, t_old, t_new)
        blocks.append((phi_b, mu_b, phi_dst, partial, t_old, t_new))
    n = len(blocks)
    share = SHARES["kernels"] / 4

    def sweep(call):
        def run():
            for block in blocks:
                call(*block)
        return run

    phi_s = bench.time("core.kernels.phi", sweep(
        lambda p, m, pd, part, to, tn: phi_kernel(ctx, p, m, to)), share) / n
    mu_s = bench.time("core.kernels.mu", sweep(
        lambda p, m, pd, part, to, tn: mu_kernel(ctx, m, p, pd, to, tn)), share) / n
    local_s = bench.time("core.kernels.mu_split_local", sweep(
        lambda p, m, pd, part, to, tn: mu_local(ctx, m, p, pd, to, tn)), share) / n
    neighbor_s = bench.time("core.kernels.mu_split_neighbor", sweep(
        lambda p, m, pd, part, to, tn: mu_neighbor(ctx, part, m, p, pd, to)), share) / n
    block_cells = float(np.prod(wl.block_shape))
    return {
        "core.kernels.phi_ms": phi_s * 1e3,
        "core.kernels.mu_ms": mu_s * 1e3,
        "core.kernels.phi_mlups": block_cells / phi_s / 1e6,
        "core.kernels.mu_mlups": block_cells / mu_s / 1e6,
        "core.kernels.mu_split_local_ms": local_s * 1e3,
        "core.kernels.mu_split_neighbor_ms": neighbor_s * 1e3,
    }


def count_flops(rec: SpanRecorder, ctx) -> dict:
    """Exact operation count of one cell update (phi + mu sweep), counted
    on the NumPy ``buffered`` rung, and the computed bytes moved."""
    from repro.core.kernels import get_mu_kernel, get_phi_kernel
    from repro.core.scenarios import make_scenario
    from repro.perf.flopcount import count_kernel_flops
    from repro.perf.roofline import bytes_per_cell

    with rec.span("perf.flopcount"):
        shape = (10, 10, 14)
        cells = int(np.prod(shape))
        phi, mu, tg, _system, _params = make_scenario("interface", shape)
        phi_kernel = get_phi_kernel("buffered")
        mu_kernel = get_mu_kernel("buffered")
        phi_dst = phi.copy()
        phi_dst[:, 1:-1, 1:-1, 1:-1] = phi_kernel(ctx, phi, mu, tg)
        flops = count_kernel_flops(phi_kernel, ctx, [phi, mu, tg], cells)["flops"]
        flops += count_kernel_flops(
            mu_kernel, ctx, [mu, phi, phi_dst, tg, tg - 0.01], cells
        )["flops"]
    return {
        "core.kernels.flops_per_cell": float(flops),
        "core.kernels.bytes_per_cell": bytes_per_cell(ctx.n_phases, ctx.n_solutes),
    }


def measure_glue(bench: Bench, runner: W.Runner, ctx) -> dict:
    """What a step does per block around its two kernel calls."""
    from repro.grid.boundary import apply_boundaries
    from repro.grid.field import Field

    solver = runner.solver
    shape = runner.wl.block_shape
    phi_f = Field(ctx.n_phases, shape)
    mu_f = Field(ctx.n_solutes, shape)
    phi_new = np.random.default_rng(0).random((ctx.n_phases,) + shape)
    mu_new = np.random.default_rng(1).random((ctx.n_solutes,) + shape)
    share = SHARES["glue"] / 3

    def copy():
        phi_f.interior_dst[...] = phi_new
        mu_f.interior_dst[...] = mu_new

    def boundaries():
        apply_boundaries(phi_f.dst, solver.phi_bc)
        apply_boundaries(mu_f.dst, solver.mu_bc)

    return {
        "grid.field.interior_copy_ms": bench.time(
            "grid.field.interior_copy", copy, share) * 1e3,
        "grid.boundary.apply_ms": bench.time(
            "grid.boundary.apply", boundaries, share) * 1e3,
        "core.temperature.at_time_us": bench.time(
            "core.temperature.at_time",
            lambda: solver.temperature.at_time(0.0, shape[-1] + 2, -1),
            share, cap=2000) * 1e6,
    }


def measure_window(bench: Bench, ctx, phi_g, mu_g) -> dict:
    """Moving-window shift and front detection on the whole domain."""
    from repro.core.moving_window import shift_along_growth_axis
    from repro.core.regions import front_position

    phi, mu = phi_g.copy(), mu_g.copy()
    fill_phi = np.zeros(ctx.n_phases)
    fill_phi[ctx.liquid] = 1.0
    fill_mu = np.zeros(ctx.n_solutes)
    phi_i = W.interior(phi_g)
    share = SHARES["window"] / 2

    def shift():
        shift_along_growth_axis(phi, 1, fill_phi)
        shift_along_growth_axis(mu, 1, fill_mu)

    return {
        "core.moving_window.shift_ms": bench.time(
            "core.moving_window.shift", shift, share) * 1e3,
        "core.regions.front_position_ms": bench.time(
            "core.regions.front_position",
            lambda: front_position(phi_i, ctx.liquid), share) * 1e3,
    }


def measure_segments(bench: Bench, log: SegmentLog) -> dict:
    """The workload's own segments, alternately inside and outside a span.

    The span-free estimate is the step time the budget is drawn against;
    the difference between the two is what the harness's spans cost.
    """
    steps = log.runner.wl.steps
    per_step = {True: [], False: []}
    deadline = time.perf_counter() + SHARES["segments"] * bench.seconds
    pairs = 0
    while pairs < bench.min_reps or (time.perf_counter() < deadline and pairs < 30):
        for spans_on in ((True, False) if pairs % 2 == 0 else (False, True)):
            wall = log.run(bench.rec if spans_on else NO_SPANS)
            if wall is not None:
                per_step[spans_on].append(wall / steps)
        pairs += 1
    if not (per_step[True] and per_step[False]):
        raise RuntimeError(f"no healthy segment: {log.errors}")
    off = quiet(per_step[False])
    on = quiet(per_step[True])
    return {
        "budget.step_ms": off * 1e3,
        "bench.span_overhead_frac": (on - off) / off,
    }


def measure_comm_stats(bench: Bench, runner: W.Runner) -> dict:
    """Exchange accounting of ``DistributedResult.stats``, telemetry off."""
    wl = runner.wl
    with bench.rec.span("distributed.solver.run.stats"):
        result = runner.advance(wl.steps)
    stats = result.stats
    n = len(stats) * wl.steps
    return {
        "distributed.solver.comm_phi_ms_per_step":
            sum(s.comm_phi_seconds for s in stats) / n * 1e3,
        "distributed.solver.comm_mu_ms_per_step":
            sum(s.comm_mu_seconds for s in stats) / n * 1e3,
        "distributed.solver.comm_bytes_per_step":
            sum(s.comm_bytes for s in stats) / wl.steps,
        "distributed.solver.comm_messages_per_step":
            sum(s.comm_messages for s in stats) / wl.steps,
    }


def measure_launch(bench: Bench, runner: W.Runner, ctx) -> dict:
    """What every distributed segment pays once: ranks, scatter, gather,
    halo registration."""
    from repro.simmpi.runtime import run_spmd

    wl, solver = runner.wl, runner.solver
    share = SHARES["launch"] / 3
    spawn_s = bench.time(
        "simmpi.runtime.run_spmd.noop",
        lambda: run_spmd(wl.n_ranks, _noop, backend=wl.backend), share)
    run0_s = bench.time(
        "distributed.solver.run0",
        lambda: solver.run(0, runner.phi, runner.mu), share)
    reps = bench.reps_for(share, 2e-3)
    with bench.rec.span("distributed.halo.harness"):
        per_rank = run_spmd(
            wl.n_ranks, _halo_harness, solver.forest, solver.owner,
            ctx.n_phases, ctx.n_solutes, solver.phi_bc, reps,
            backend=wl.backend,
        )
    return {
        "simmpi.runtime.spawn_ms": spawn_s * 1e3,
        "distributed.solver.run0_ms": run0_s * 1e3,
        "distributed.halo.register_ms": per_rank[0][0] * 1e3,
        "distributed.halo.exchange_round_ms": per_rank[0][1] * 1e3,
    }


def measure_comm(bench: Bench, runner: W.Runner, ctx) -> dict:
    """Both simmpi backends at 8 bytes and at one ghost slab of phi."""
    from repro.simmpi.runtime import run_spmd

    bs = runner.wl.block_shape
    slab_shape = (ctx.n_phases, bs[0] + 2, bs[1] + 2)
    reps = bench.reps_for(SHARES["comm"] / 8, 2e-4)
    out = {}
    for backend, module in (("thread", "comm"), ("process", "transport")):
        with bench.rec.span(f"simmpi.{module}.harness"):
            rank0 = run_spmd(2, _comm_harness, slab_shape, reps, backend=backend)[0]
        for key, value in rank0.items():
            out[f"simmpi.{module}.{key}"] = value
    return out


def measure_io(bench: Bench, runner: W.Runner, tmp: Path) -> dict:
    """Plain and sharded checkpoints of the workload's domain, written to
    a fresh directory (float32 payload, fsynced as the program does)."""
    from repro.grid.balance import assign_blocks
    from repro.grid.blockforest import BlockForest
    from repro.io.checkpoint import load_checkpoint, save_state
    from repro.resilience.store import ShardedCheckpointStore

    wl = runner.wl
    phi, mu = np.ascontiguousarray(runner.phi), np.ascontiguousarray(runner.mu)
    path = tmp / "layer-io" / "plain.npz"
    path.parent.mkdir(parents=True)
    share = SHARES["io"] / 4
    summary = {}

    def save():
        summary.update(save_state(path, phi=phi, mu=mu, time=0.0, step_count=0))

    save_s = bench.time("io.checkpoint.save_state", save, share)
    load_s = bench.time(
        "io.checkpoint.load_checkpoint", lambda: load_checkpoint(path), share)

    forest = BlockForest(wl.shape, wl.blocks or (1, 1, 1), (True, True, False))
    owner = assign_blocks(forest, wl.n_ranks, "contiguous")
    store = ShardedCheckpointStore(tmp / "layer-io" / "sharded", keep=2)
    step = [0]

    def write_sharded():
        step[0] += 1
        store.save_global(
            {"phi": phi, "mu": mu, "time": 0.0, "step_count": step[0]},
            forest=forest, owner=owner, n_ranks=wl.n_ranks,
        )

    write_s = bench.time("io.sharded.save_global", write_sharded, share)
    sharded_load_s = bench.time("io.sharded.load_latest", store.load_latest, share)
    return {
        "io.checkpoint.save_ms": save_s * 1e3,
        "io.checkpoint.load_ms": load_s * 1e3,
        "io.checkpoint.mb_per_s": summary["payload_bytes"] / 1e6 / save_s,
        "io.sharded.write_ms": write_s * 1e3,
        "io.sharded.load_ms": sharded_load_s * 1e3,
    }


def measure_overheads(bench: Bench, runner: W.Runner) -> dict:
    """Interleaved A/B segments: each campaign feature against a plain run.

    One round runs the plain segment and each variant once, the order
    rotating from round to round; a feature's overhead is its quiet
    estimate over the plain one, minus one.
    """
    from repro.telemetry import RunTelemetry

    tel_dir = runner.tmp / "telemetry"
    variants = {
        "plain": lambda: {},
        "telemetry.overhead_frac": lambda: {
            "telemetry": RunTelemetry(directory=tel_dir)},
        "telemetry.trace_overhead_frac": lambda: {
            "telemetry": RunTelemetry(directory=tel_dir, trace=True)},
        "resilience.guard_overhead_frac": lambda: {"guard": True},
        "resilience.checkpoint_overhead_frac": lambda: {
            "shard_store": runner.store, "checkpoint_every": AB_STEPS},
    }
    names = list(variants)
    walls = {name: [] for name in names}
    for r in range(AB_ROUNDS if bench.min_reps > 1 else 2):
        for k in range(len(names)):
            name = names[(k + r) % len(names)]
            kwargs = variants[name]()
            with bench.rec.span("distributed.solver.run.ab", segment=runner.segments):
                t0 = time.perf_counter()
                runner.advance(AB_STEPS, **kwargs)
                walls[name].append(time.perf_counter() - t0)
            shutil.rmtree(tel_dir, ignore_errors=True)
    plain = quiet(walls["plain"])
    return {name: quiet(walls[name]) / plain - 1.0 for name in names[1:]}


def _node(tree: dict, path: str) -> dict | None:
    for part in path.split("/"):
        tree = (tree or {}).get("children", {}).get(part)
    return tree


def measure_tree(bench: Bench, runner: W.Runner) -> dict:
    """One traced telemetry run: the program's own view of the step."""
    from repro.telemetry import RunTelemetry

    wl = runner.wl
    with bench.rec.span("distributed.solver.run.traced", segment=runner.segments):
        result = runner.advance(
            wl.steps, telemetry=RunTelemetry(trace=True), guard=wl.campaign)
    out = {}
    for path in ("compute/phi", "compute/mu", "compute/mu_local",
                 "compute/mu_neighbor", "comm/phi", "comm/mu", "guard",
                 "comm/pipe/send", "comm/pipe/recv"):
        node = _node(result.timing, path)
        per_step = node["rank_avg"] / wl.steps * 1e3 if node else 0.0
        out[f"telemetry.tree.{path.replace('/', '.')}_ms"] = per_step
    for counter in ("pipe_messages", "halo_acks", "segments_created"):
        out[f"telemetry.counters.{counter}_per_step"] = (
            result.counters.get(counter, 0) / wl.steps)
    tracing = result.report["tracing"]
    out["telemetry.tracing.overlap_efficiency"] = tracing["overlap"]["efficiency"]
    out["telemetry.tracing.imbalance_ratio"] = tracing["imbalance"]["ratio"]
    return out


def budget_rows(wl: W.Workload, m: dict) -> list[tuple[str, float]]:
    """Milliseconds of one step that each measured layer accounts for.

    A rank's blocks are swept one after another, so per-block costs count
    ``blocks_per_rank`` times; the ranks themselves run side by side.
    """
    n = wl.blocks_per_rank
    if wl.overlap:
        mu = [("core.kernels mu_split_local", n * m["core.kernels.mu_split_local_ms"]),
              ("core.kernels mu_split_neighbor", n * m["core.kernels.mu_split_neighbor_ms"])]
    else:
        mu = [("core.kernels mu", n * m["core.kernels.mu_ms"])]
    rows = [
        ("core.kernels phi", n * m["core.kernels.phi_ms"]), *mu,
        ("grid.field interior copy", n * m["grid.field.interior_copy_ms"]),
        ("core.temperature at_time", 2 * n * m["core.temperature.at_time_us"] / 1e3),
    ]
    if not wl.distributed:
        return rows + [("grid.boundary apply", m["grid.boundary.apply_ms"])]
    rows += [
        ("distributed exchange phi", m["distributed.solver.comm_phi_ms_per_step"]),
        ("distributed exchange mu", m["distributed.solver.comm_mu_ms_per_step"]),
        ("launch, scatter, gather / S", m["distributed.solver.run0_ms"] / wl.steps),
    ]
    # overhead fractions are relative to a plain step: step = plain * (1 + sum)
    features = {
        "telemetry.overhead_frac": "telemetry",
        "resilience.guard_overhead_frac": "resilience guard",
        "resilience.checkpoint_overhead_frac": "resilience checkpoint",
    }
    plain = m["budget.step_ms"] / (1.0 + sum(m[f] for f in features))
    return rows + [(label, m[f] * plain) for f, label in features.items() if m[f]]


def budget(wl: W.Workload, m: dict) -> dict:
    """Glue and residual: the step time no measured layer accounts for."""
    step = m["budget.step_ms"]
    kernels = wl.blocks_per_rank * (m["core.kernels.phi_ms"] + m["core.kernels.mu_ms"])
    comm = (m["distributed.solver.comm_phi_ms_per_step"]
            + m["distributed.solver.comm_mu_ms_per_step"])
    glue = "distributed.solver.glue_ms" if wl.distributed else "core.solver.glue_ms"
    return {
        glue: step - kernels - comm,
        "budget.residual_frac": 1.0 - sum(ms for _, ms in budget_rows(wl, m)) / step,
    }


# --------------------------------------------------------------------- #

def run_layers(spec: dict) -> dict:
    """Measure every per-layer metric of one workload; spans in memory."""
    wl = W.BY_NAME[spec["workload"]]
    rec = SpanRecorder(wl.name)
    bench = Bench(rec, spec["budget_s"], spec["quick"])
    tmp = Path(spec["tmp"])
    with np.load(spec["inputs"]) as data:
        phi0, mu0 = data["phi"], data["mu"]
        phi_g, mu_g = data["phi_ghosted"], data["mu_ghosted"]
    m = {name: 0.0 for name, _unit, _better in W.PER_LAYER}

    with rec.span("workload"):
        from repro.core.kernels import compiled, make_context

        with rec.span("construct"):
            runner = W.Runner(wl, phi0, mu0, tmp)
        ctx = make_context(runner.solver.system, runner.solver.params)
        with rec.span("core.kernels.compiled.warmup"):
            m["core.kernels.warmup_s"] = compiled.warmup(ctx, dim=3)
        info = assert_pinned(runner)
        log = SegmentLog(spec, runner)
        with rec.span("first-step"):
            runner.segment(1)

        m.update(measure_segments(bench, log))
        m.update(measure_kernels(bench, runner, ctx, phi_g, mu_g))
        m.update(count_flops(rec, ctx))
        m.update(measure_glue(bench, runner, ctx))
        m.update(measure_window(bench, ctx, phi_g, mu_g))
        m.update(measure_comm(bench, runner, ctx))
        m.update(measure_io(bench, runner, tmp))
        if wl.distributed:
            m.update(measure_comm_stats(bench, runner))
            m.update(measure_launch(bench, runner, ctx))
            m.update(measure_tree(bench, runner))
        if wl.campaign:
            m.update(measure_overheads(bench, runner))
        m.update(budget(wl, m))
    m["verify.max_abs_err_phi"] = log.verify.get("max_abs_err_phi", 0.0)
    m["verify.max_abs_err_mu"] = log.verify.get("max_abs_err_mu", 0.0)
    return {
        "workload": wl.name, "metrics": m, "spans": rec.spans,
        **log.outcome(), **info,
    }
