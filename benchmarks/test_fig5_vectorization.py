"""Fig. 5 — phi-kernel vectorization strategies.

Paper: three vectorized phi-kernel variants (cellwise, cellwise with
shortcuts, four-cell) benchmarked on interface / liquid / solid blocks of
60^3 on one SuperMUC core; "in all three parts of the domain, the single
cell kernel with shortcuts performes best".

Here: the paper's three strategies in compiled C and a fourth the paper
could not build, all the one sweep body on one core: ``compiled``
("cellwise") and ``compiled_shortcuts`` ("cellwise + shortcuts") on the
body compiled at one lane, both reached through the backend's test hook,
and the same two rungs on AVX2 lanes ("four-cell" and "four-cell +
shortcuts", whose shortcuts are lane predicates with whole-vector
skips).  The four rows of a scenario are timed interleaved.  Shape
assertions: shortcuts gain more on the bulk (liquid) block than on the
interface block, four-cell is at least 2x cellwise in every scenario (on
an AVX2 host), and cellwise + shortcuts is ahead of four-cell on the
liquid block, where bulk dominates.  The other rows are reported as
measured, beside the share of each block's vectors whose four lanes all
take a shortcut (:func:`repro.perf.kernel_analysis.shortcut_census`).
Without a compiled backend there is nothing to measure.
"""

import time

import pytest

from repro.core.kernels import COMPILED_RUNGS, get_phi_kernel, rung_available
from conftest import (
    BENCH_EDGE, BENCH_MIN_TIME, SMOKE, interleaved_seconds, on_one_core,
    rate_of, write_bench_report, write_report,
)

SCENARIOS = ("interface", "liquid", "solid")
#: The strategies in compiled C: row -> (rung, W = 1 forced, label).
#: The first three are the paper's.
COMPILED_STRATEGIES = {
    "compiled_cellwise": ("compiled", True, "cellwise"),
    "compiled_four_cell": ("compiled", False, "four-cell"),
    "compiled_cellwise_shortcuts": ("compiled_shortcuts", True,
                                    "cellwise+shortcuts"),
    "compiled_four_cell_shortcuts": ("compiled_shortcuts", False,
                                     "four-cell+shortcuts"),
}
needs_compiled = pytest.mark.skipif(
    not all(rung_available(r) for r in COMPILED_RUNGS),
    reason="no compiled kernel backend available")


def _strategy_call(row, *args):
    """A call of the phi sweep of strategy *row* on *args*."""
    from repro.core.kernels.compiled import cffi_backend

    rung, cellwise, _label = COMPILED_STRATEGIES[row]
    kern = get_phi_kernel(rung)
    if not cellwise:
        return lambda: kern(*args)

    def cellwise_call():
        with cffi_backend._scalar_sweeps():
            kern(*args)
    return cellwise_call


def compiled_rows() -> dict:
    """``{"rows": {scenario: {row: MLUP/s}}, "simd": width, "census":
    {scenario: (inactive, non_diffuse, non_front)}}`` of the compiled
    quartet in this process (run on one core by the report), its four
    rows timed interleaved per scenario."""
    from repro.core.kernels import make_context
    from repro.core.kernels.compiled import cffi_backend
    from repro.core.scenarios import make_scenario
    from repro.perf.kernel_analysis import shortcut_census

    rows, census = {}, {}
    for scenario in SCENARIOS:
        phi, mu, tg, system, params = make_scenario(
            scenario, (BENCH_EDGE,) * 3, seed=0)
        ctx = make_context(system, params)
        census[scenario] = shortcut_census(phi, ctx.liquid)
        seconds = interleaved_seconds(
            {row: _strategy_call(row, ctx, phi, mu, tg)
             for row in COMPILED_STRATEGIES},
            min_time=BENCH_MIN_TIME)
        rows[scenario] = {row: rate_of(sec, BENCH_EDGE ** 3)
                          for row, sec in seconds.items()}
    return {"rows": rows, "simd": cffi_backend.simd_width(),
            "census": census}


@needs_compiled
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("strategy", list(COMPILED_STRATEGIES))
def test_strategy_rate(benchmark, bench_blocks, scenario, strategy):
    from repro.core.kernels import compiled

    b = bench_blocks[scenario]
    benchmark.group = f"fig5-{scenario}"
    benchmark.name = strategy
    benchmark.extra_info["warmup_seconds"] = compiled.warmup(b["ctx"])
    benchmark(_strategy_call(strategy, b["ctx"], b["phi"], b["mu"], b["tg"]))
    benchmark.extra_info["mlups"] = rate_of(benchmark.stats["mean"], b["cells"])


@needs_compiled
def test_fig5_shape_and_report(benchmark, bench_blocks, results_dir):
    """Regenerate the Fig. 5 bar chart data and assert the paper's shape."""
    from repro.core.kernels import compiled

    rows = {}
    compile_seconds = {}
    report_rows = list(COMPILED_STRATEGIES)
    simd = 0
    census = {}

    def measure():
        nonlocal simd
        for scenario in SCENARIOS:
            # untimed, recorded: JIT/dlopen cost stays out of the rates
            compile_seconds[scenario] = compiled.warmup(
                bench_blocks[scenario]["ctx"])
        quartet = on_one_core(
            "__import__('test_fig5_vectorization').compiled_rows()")
        simd = quartet["simd"]
        census.update(quartet["census"])
        rows.update(quartet["rows"])

    wall0 = time.perf_counter()
    benchmark.pedantic(measure, rounds=1, iterations=1)
    wall = time.perf_counter() - wall0

    write_bench_report(
        results_dir, "fig5_vectorization",
        config={"edge": BENCH_EDGE, "strategies": report_rows,
                "scenarios": list(SCENARIOS),
                "compiled_backend": compiled.backend_name(),
                "simd_width": simd},
        grid_shape=(BENCH_EDGE,) * 3,
        n_ranks=1,
        steps=len(report_rows) * len(SCENARIOS),
        wall_seconds=wall,
        mlups=max(max(v.values()) for v in rows.values()),
        series={"phi": rows, "compile_seconds": compile_seconds,
                "shortcut_census": census},
    )

    lines = ["Fig. 5 reproduction: phi-kernel MLUP/s by vectorization strategy",
             f"(block {len(bench_blocks)}x scenarios, edge {BENCH_EDGE}; "
             "paper: 60^3 on 1 SuperMUC core)",
             "",
             f"compiled C, one core, interleaved (SIMD width {simd}; "
             "cellwise = `compiled` at W = 1, four-cell = `compiled`, "
             "+shortcuts = `compiled_shortcuts` on the same body)"]
    lines.append(f"{'scenario':<12}" + "".join(
        f"{label:>22}" for _r, _s, label in COMPILED_STRATEGIES.values()))
    for scenario, vals in rows.items():
        lines.append(f"{scenario:<12}" + "".join(
            f"{vals[r]:>22.3f}" for r in COMPILED_STRATEGIES))
    lines += ["", "four-cell vectors whose lanes all take a shortcut "
                  "(shortcut_census):",
              f"{'scenario':<12}{'copy-through':>22}"
              f"{'no driving force':>22}{'no anti-trapping':>22}"]
    for scenario, shares in census.items():
        lines.append(f"{scenario:<12}" + "".join(
            f"{v:>22.0%}" for v in shares))
    lines += ["", "paper shape: cellwise-with-shortcuts fastest in every scenario;",
              "four-cell variant cannot take per-cell shortcuts (here it "
              "takes them per vector of four cells).",
              f"compiled backend: {compiled.backend_name()}; untimed "
              "compile/warmup per block: "
              + ", ".join(f"{s}={v * 1e3:.1f}ms"
                          for s, v in compile_seconds.items())]
    write_report(results_dir, "fig5_vectorization.txt", lines)

    # bulk blocks benefit the most from shortcuts
    gain = {s: rows[s]["compiled_cellwise_shortcuts"]
            / rows[s]["compiled_cellwise"] for s in SCENARIOS}
    assert gain["liquid"] > gain["interface"], gain

    if not SMOKE:
        if simd == 4:
            for scenario in SCENARIOS:
                vals = rows[scenario]
                assert (vals["compiled_four_cell"]
                        >= 2.0 * vals["compiled_cellwise"]), (scenario, vals)
        # the paper's crossover: where bulk dominates, skipping work
        # cell by cell beats doing it four cells at a time
        liquid = rows["liquid"]
        assert (liquid["compiled_cellwise_shortcuts"]
                > liquid["compiled_four_cell"]), liquid
