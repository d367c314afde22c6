"""Shared infrastructure of the figure-reproduction benchmarks.

Every benchmark regenerates the data series of one paper figure and
writes two reports to ``benchmarks/results/``: a human-readable text
table (the numbers recorded in EXPERIMENTS.md) and a machine-readable
``BENCH_<fig>.json`` run report (see :mod:`repro.telemetry.report`) that
seeds the performance trajectory tracked across revisions.
Use ``pytest benchmarks/ --benchmark-only`` to run them.

Setting ``REPRO_BENCH_SMOKE=1`` shrinks block sizes and measurement
times so the whole suite finishes in CI minutes; the figure-shape
assertions that need clean timings are skipped in smoke mode, while the
reports are still emitted and schema-validated.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.kernels import make_context
from repro.core.scenarios import fill_ghosts_periodic, make_scenario
from repro.telemetry.report import build_run_report, write_run_report

RESULTS_DIR = Path(__file__).parent / "results"

#: Smoke mode: tiny sizes / short timers for CI; set REPRO_BENCH_SMOKE=1.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Block edge used for kernel measurements (the paper uses 60^3; Python
#: kernel rates make 32^3 a better time/precision trade-off here, and
#: smoke mode drops to 16^3).
BENCH_EDGE = 16 if SMOKE else 32

#: Default per-measurement wall-time budget of :func:`time_call`.
BENCH_MIN_TIME = 0.05 if SMOKE else 0.4


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_report(results_dir: Path, name: str, lines: list[str]) -> None:
    """Persist a figure report and echo it to stdout."""
    text = "\n".join(lines) + "\n"
    (results_dir / name).write_text(text)
    print(f"\n=== {name} ===")
    print(text)


@pytest.fixture(scope="session")
def bench_blocks():
    """Ghosted scenario blocks of the benchmark size, plus a phi_dst level."""
    from repro.core.kernels import get_phi_kernel

    blocks = {}
    for name in ("interface", "liquid", "solid"):
        phi, mu, tg, system, params = make_scenario(
            name, (BENCH_EDGE,) * 3, seed=0
        )
        ctx = make_context(system, params)
        phi_dst = phi.copy()
        phi_dst[(slice(None),) + (slice(1, -1),) * 3] = get_phi_kernel(
            "buffered"
        )(ctx, phi, mu, tg)
        fill_ghosts_periodic(phi_dst, 3)
        blocks[name] = dict(
            ctx=ctx, phi=phi, mu=mu, tg=tg, phi_dst=phi_dst,
            t_new=tg - 0.01, cells=BENCH_EDGE**3,
        )
    return blocks


def rate_of(benchmark_stats_or_seconds, cells: int) -> float:
    """MLUP/s from a seconds-per-call figure."""
    return cells / benchmark_stats_or_seconds / 1e6


def time_call(fn, min_time: float | None = None, max_repeats: int = 60) -> float:
    """Median seconds per call (light-weight timer for table rows).

    Delegates to :func:`repro.perf.metrics.measure_kernel_rate`, which
    auto-ranges the batch size so even sub-microsecond calls accumulate
    the full *min_time* of wall clock.
    """
    from repro.perf.metrics import measure_kernel_rate

    rate = measure_kernel_rate(
        fn, cells=1,
        min_time=BENCH_MIN_TIME if min_time is None else min_time,
        max_repeats=max_repeats,
    )
    return rate.seconds_median


def on_one_core(call: str, timeout: float = 600):
    """The JSON value printed by ``print(json.dumps(<call>))`` in a child
    interpreter whose compiled kernels run one OpenMP thread.

    *call* is a Python expression that may import benchmark modules.  The
    paper's kernel figures are single-core measurements, and a team of
    two threads on a shared two-core host times erratically (the same
    call measured at 0.8 and at 5.5 MLUP/s).
    """
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run(
        [sys.executable, "-c",
         f"import json, sys; print(json.dumps({call}))"],
        capture_output=True, text=True, timeout=timeout, check=True,
        env={**os.environ, "OMP_NUM_THREADS": "1",
             "PYTHONPATH": os.pathsep.join(path)},
    )
    return json.loads(done.stdout.splitlines()[-1])


def write_bench_report(
    results_dir: Path,
    fig: str,
    *,
    config: dict,
    grid_shape,
    n_ranks: int,
    steps: int,
    wall_seconds: float,
    mlups: float,
    series: dict,
    timings: dict | None = None,
    counters: dict | None = None,
    tracing: dict | None = None,
) -> dict:
    """Write the ``BENCH_<fig>.json`` run report of one figure benchmark.

    *series* carries the regenerated figure data (curves/tables keyed by
    scenario), stored under the report's ``series`` key so downstream
    tooling can track the trajectory of every point, not only the
    headline MLUP/s.  *tracing* (a RunReport ``"tracing"`` section, e.g.
    lifted from a traced anchor run) rides along so span-derived numbers
    like the fig8 overlap efficiency enter the perf history too.
    """
    report = build_run_report(
        run_id=f"bench-{fig}",
        config={"benchmark": fig, "smoke": SMOKE, **config},
        grid_shape=grid_shape,
        n_ranks=n_ranks,
        steps=steps,
        wall_seconds=wall_seconds,
        mlups=mlups,
        timings=timings,
        counters=counters,
        series=series,
        tracing_stats=tracing,
    )
    write_run_report(results_dir / f"BENCH_{fig}.json", report)
    return report


@pytest.fixture(scope="session")
def microstructure_run():
    """A small directional-solidification run shared by Figs. 10 and 11.

    The paper's production run is 2420 x 2420 x 1474 cells on Hornet; this
    anchor run is laptop-sized but exercises the identical pipeline
    (Voronoi nuclei, frozen gradient, moving window, shortcut kernels).
    """
    from repro.core.moving_window import MovingWindow
    from repro.core.solver import Simulation
    from repro.core.temperature import FrozenTemperature
    from repro.thermo.system import TernaryEutecticSystem

    system = TernaryEutecticSystem()
    shape = (20, 20, 36)
    temp = FrozenTemperature(
        t_ref=system.t_eutectic, gradient=0.35, velocity=0.05,
        z0=12.0, dx=1.0,
    )
    sim = Simulation(
        shape=shape, system=system, kernel="shortcut", temperature=temp,
        moving_window=MovingWindow(target_fraction=0.45, check_every=20),
    )
    sim.initialize_voronoi(seed=11, solid_height=8, n_seeds=10, smooth=2)
    sim.step(500)
    return sim
