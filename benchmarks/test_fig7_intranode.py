"""Fig. 7 — intranode scaling of the mu-kernel on one SuperMUC node.

Paper: aggregate mu-kernel MLUP/s over 1..16 cores for block sizes 40^3
and 20^3; nearly linear scaling (the kernel is compute bound, far below
the 126.3 MLUP/s memory roof), with the small block only slightly
different.

Here: the machine model of :mod:`repro.perf.scaling` regenerates the two
curves (this environment has one core, so multi-core points are modeled;
the single-core anchor of the model is cross-checked against the roofline
bound) and the real Python mu-kernel is benchmarked at both block sizes to
verify the "only slightly different" claim on actual hardware.
"""

import os
import time

import numpy as np
import pytest

from repro.core.kernels import get_mu_kernel, get_phi_kernel, make_context
from repro.core.scenarios import fill_ghosts_periodic, make_scenario
from repro.distributed import DistributedSimulation
from repro.perf.machines import SUPERMUC
from repro.perf.roofline import bytes_per_cell, roofline
from repro.perf.scaling import intranode_scaling
from conftest import SMOKE, rate_of, time_call, write_bench_report, write_report

CORES = [1, 2, 4, 8, 16]

#: Fig. 7 block edges (paper: 40^3 and 20^3; smoke halves both).
EDGES = (20, 10) if SMOKE else (40, 20)

#: Rank counts for the measured intranode (process-backend) scaling.
BACKEND_RANKS = [1, 2, 4]

#: Domain for the backend comparison: four z-blocks so every rank count
#: in BACKEND_RANKS divides the block count evenly.
BACKEND_SHAPE = (6, 6, 16) if SMOKE else (10, 10, 32)
BACKEND_STEPS = 2 if SMOKE else 4


def _measured_backend_rate(backend: str, n_ranks: int) -> float:
    """End-to-end MLUP/s of a DistributedSimulation on *backend*.

    Unlike the machine-model curves this measures this host: with the
    thread backend all ranks share one GIL, so rank count buys nothing;
    the process backend is the configuration the paper's intranode
    scaling actually corresponds to.
    """
    phi, mu, _, system, _ = make_scenario("interface", BACKEND_SHAPE, seed=0)
    interior = (slice(None),) + (slice(1, -1),) * len(BACKEND_SHAPE)
    with DistributedSimulation(
        BACKEND_SHAPE, (1, 1, 4), system=system, kernel="buffered",
        n_ranks=n_ranks, backend=backend,
    ) as sim:
        sim.run(1, phi[interior], mu[interior])  # open the world, warm caches
        t0 = time.perf_counter()
        sim.run(BACKEND_STEPS, phi[interior], mu[interior])
        wall = time.perf_counter() - t0
    return rate_of(wall / BACKEND_STEPS, int(np.prod(BACKEND_SHAPE)))


def _process_pipe_timings() -> dict | None:
    """Timing tree of a telemetry'd process-backend run.

    Carries the ``comm/pipe/{send,recv}`` scopes the transport records,
    quantifying how much of the process backend's wall time is pipe
    traffic.
    """
    from repro.telemetry import RunTelemetry

    phi, mu, _, system, _ = make_scenario("interface", BACKEND_SHAPE, seed=0)
    interior = (slice(None),) + (slice(1, -1),) * len(BACKEND_SHAPE)
    with DistributedSimulation(
        BACKEND_SHAPE, (1, 1, 4), system=system, kernel="buffered",
        n_ranks=2, backend="process",
    ) as sim:
        result = sim.run(
            BACKEND_STEPS, phi[interior], mu[interior],
            telemetry=RunTelemetry(run_id="fig7-pipe"),
        )
    return result.timing


def _halo_counters() -> dict:
    """Per-step steady-state transport counters of the halo channels.

    A 2-rank process decomposition (multi-block, so each rank has
    several neighbour exchanges per axis), counting exchange-level
    messages and pipe messages across the step loop.  These are
    deterministic message counts, not timings, so the test asserts them
    in smoke mode too: an extra message is a transport regression that
    wall-clock noise would hide.  The staged per-slab path this replaced
    cost 64 pipe messages per step on the same decomposition; the halo
    channels send 8.
    """
    from repro.telemetry import RunTelemetry

    phi, mu, _, system, _ = make_scenario("interface", BACKEND_SHAPE, seed=0)
    interior = (slice(None),) + (slice(1, -1),) * len(BACKEND_SHAPE)
    with DistributedSimulation(
        BACKEND_SHAPE, (2, 2, 4), system=system, kernel="buffered",
        n_ranks=2, backend="process",
    ) as sim:
        res = sim.run(
            BACKEND_STEPS, phi[interior], mu[interior],
            telemetry=RunTelemetry(run_id="fig7-halo-counters"),
        )
    return {
        key: res.counters[key] / BACKEND_STEPS
        for key in ("halo_messages", "pipe_messages")
    }


def _measured_mu_rate(edge: int) -> float:
    phi, mu, tg, system, params = make_scenario("interface", (edge,) * 3)
    ctx = make_context(system, params)
    phi_dst = phi.copy()
    phi_dst[(slice(None),) + (slice(1, -1),) * 3] = get_phi_kernel("buffered")(
        ctx, phi, mu, tg
    )
    fill_ghosts_periodic(phi_dst, 3)
    kern = get_mu_kernel("buffered")
    sec = time_call(
        lambda: kern(ctx, mu, phi, phi_dst, tg, tg - 0.01),
        min_time=0.05 if SMOKE else 0.5,
    )
    return rate_of(sec, edge**3)


@pytest.mark.parametrize("edge", EDGES)
def test_mu_kernel_rate_at_blocksize(benchmark, edge):
    phi, mu, tg, system, params = make_scenario("interface", (edge,) * 3)
    ctx = make_context(system, params)
    phi_dst = phi.copy()
    phi_dst[(slice(None),) + (slice(1, -1),) * 3] = get_phi_kernel("buffered")(
        ctx, phi, mu, tg
    )
    fill_ghosts_periodic(phi_dst, 3)
    kern = get_mu_kernel("buffered")
    benchmark.group = "fig7-mu-blocksize"
    benchmark(lambda: kern(ctx, mu, phi, phi_dst, tg, tg - 0.01))
    benchmark.extra_info["mlups"] = rate_of(benchmark.stats["mean"], edge**3)


def test_fig7_model_and_report(benchmark, results_dir):
    data = {}
    big, small = EDGES

    def measure():
        data["c40"] = intranode_scaling(SUPERMUC, CORES, 40)
        data["c20"] = intranode_scaling(SUPERMUC, CORES, 20)
        data["m40"] = _measured_mu_rate(big)
        data["m20"] = _measured_mu_rate(small)
        for backend in ("thread", "process"):
            data[backend] = [
                _measured_backend_rate(backend, n) for n in BACKEND_RANKS
            ]
        data["pipe_tree"] = _process_pipe_timings()
        data["counters"] = _halo_counters()

    wall0 = time.perf_counter()
    benchmark.pedantic(measure, rounds=1, iterations=1)
    wall = time.perf_counter() - wall0
    c40, c20 = data["c40"], data["c20"]
    halo = data["counters"]

    write_bench_report(
        results_dir, "fig7_intranode",
        config={"cores": CORES, "model_edges": [40, 20],
                "measured_edges": list(EDGES),
                "backend_ranks": BACKEND_RANKS,
                "backend_shape": list(BACKEND_SHAPE),
                "cpu_count": os.cpu_count()},
        grid_shape=(big,) * 3,
        n_ranks=1,
        steps=len(CORES) * 2 + 2,
        wall_seconds=wall,
        mlups=data["m40"],
        timings=data["pipe_tree"],
        counters={
            "halo_messages": halo["halo_messages"],
            "pipe_messages": halo["pipe_messages"],
        },
        series={
            "model_mlups_40": list(c40),
            "model_mlups_20": list(c20),
            "measured_mlups_big": data["m40"],
            "measured_mlups_small": data["m20"],
            "backend_thread_mlups": data["thread"],
            "backend_process_mlups": data["process"],
            # per-step steady-state transport counters (lower is better;
            # the pipe count is asserted below, in smoke mode too)
            "halo_pipe_messages_per_step": halo["pipe_messages"],
            "halo_exchange_messages_per_step": halo["halo_messages"],
        },
    )

    lines = [
        "Fig. 7 reproduction: intranode mu-kernel scaling, SuperMUC model",
        "",
        f"{'cores':>6} {'40^3 MLUP/s':>14} {'20^3 MLUP/s':>14}",
    ]
    for c, a, b in zip(CORES, c40, c20):
        lines.append(f"{c:>6} {a:>14.2f} {b:>14.2f}")
    lines += [
        "",
        f"memory roof (Sec. 5.1.1): "
        f"{roofline(SUPERMUC, 1384, bytes_per_cell(4, 2)).memory_bound_mlups_node:.1f}"
        " MLUP/s per node -- not reached: compute bound",
        f"measured Python mu-kernel (1 core here): {big}^3 {data['m40']:.3f}"
        f" | {small}^3 {data['m20']:.3f} MLUP/s",
        "",
        f"measured full-step backends, {BACKEND_SHAPE} interface domain "
        f"({os.cpu_count()} cores visible):",
        f"{'ranks':>6} {'thread MLUP/s':>16} {'process MLUP/s':>16}",
    ]
    for n, tr, pr in zip(BACKEND_RANKS, data["thread"], data["process"]):
        lines.append(f"{n:>6} {tr:>16.3f} {pr:>16.3f}")
    pipe = (
        data["pipe_tree"]["children"]["comm"]["children"]["pipe"]["children"]
    )
    lines += [
        "",
        "process-backend pipe overhead (2 ranks, telemetry run): "
        + ", ".join(
            f"{phase} {node['total'] * 1e3:.1f}ms/{node['count']}x"
            for phase, node in sorted(pipe.items())
        ),
        "",
        "steady-state transport counters per step (2 ranks, 2x2x4 blocks,"
        " process backend):",
        f"{'exchange msgs':>14} {'pipe msgs':>10}",
        f"{halo['halo_messages']:>14.1f} {halo['pipe_messages']:>10.1f}",
    ]
    write_report(results_dir, "fig7_intranode.txt", lines)

    # shape: near-linear scaling, below the memory roof (model, so these
    # hold in smoke mode too)
    assert c40[-1] / c40[0] > 12.0
    roof = roofline(SUPERMUC, 1384, bytes_per_cell(4, 2)).memory_bound_mlups_node
    assert c40[-1] < roof
    # small block only slightly different (paper: "changes ... slightly")
    assert abs(c20[-1] - c40[-1]) / c40[-1] < 0.35
    assert data["m40"] > 0 and data["m20"] > 0
    assert all(r > 0 for r in data["thread"] + data["process"])
    # the transport's pipe phases made it into the RunReport timings
    assert {"send", "recv"} <= set(pipe)
    assert all(node["count"] > 0 for node in pipe.values())
    # registered halo channels: these are deterministic message counts,
    # asserted in smoke mode too — one pipe message per send channel (4)
    # per exchange round (2 a step)
    assert halo["pipe_messages"] == 8
    # real intranode speedup needs real cores: only gate on multi-core
    # runners, where 4 process ranks must beat 1 by >= 1.5x
    if not SMOKE and (os.cpu_count() or 1) >= 4:
        assert data["process"][-1] / data["process"][0] >= 1.5
    if SMOKE:
        return
    # the real Python kernels stay within the same order (NumPy per-call
    # overheads, cache residency and scratch-buffer reuse favour the
    # small block here — the reuse removed allocation costs that weigh
    # more at 20^3 than at 40^3)
    assert abs(data["m20"] - data["m40"]) / data["m40"] < 0.8
