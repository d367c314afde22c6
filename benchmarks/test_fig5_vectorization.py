"""Fig. 5 — phi-kernel vectorization strategies.

Paper: three vectorized phi-kernel variants (cellwise, cellwise with
shortcuts, four-cell) benchmarked on interface / liquid / solid blocks of
60^3 on one SuperMUC core; "in all three parts of the domain, the single
cell kernel with shortcuts performes best".

Here: the NumPy analogs of the three strategies on the same three block
compositions, plus — when a backend is usable — the three strategies in
compiled C: the scalar body of ``compiled`` ("cellwise", reached through
the backend's test hook), ``compiled`` on AVX2 lanes ("four-cell") and
``compiled_shortcuts`` ("cellwise + shortcuts").  Shape assertions:
among the NumPy strategies, shortcuts fastest everywhere, with the
largest margin on bulk (liquid) blocks; in C, four-cell at least 2x
cellwise in every scenario (on an AVX2 host), and cellwise + shortcuts
ahead of four-cell on the liquid block, where bulk dominates.  The
interface and solid rows of the C trio are reported as measured.
"""

import contextlib
import time

import pytest

from repro.core.kernels import COMPILED_RUNGS, get_phi_kernel, rung_available
from repro.core.kernels.strategies import STRATEGIES
from conftest import (
    BENCH_EDGE, SMOKE, on_one_core, rate_of, time_call, write_bench_report,
    write_report,
)

SCENARIOS = ("interface", "liquid", "solid")
#: NumPy strategy rows plus the compiled rungs this environment can run.
ROWS = list(STRATEGIES) + [r for r in COMPILED_RUNGS if rung_available(r)]
#: The paper's three strategies in compiled C: row -> (rung, scalar body
#: forced, paper label).
COMPILED_STRATEGIES = {
    "compiled_cellwise": ("compiled", True, "cellwise"),
    "compiled_four_cell": ("compiled", False, "four-cell"),
    "compiled_shortcuts": ("compiled_shortcuts", False,
                           "cellwise+shortcuts"),
}


def compiled_rows() -> dict:
    """``{"rows": {scenario: {row: MLUP/s}}, "simd": width}`` of the
    compiled trio in this process (run on one core by the report)."""
    from repro.core.kernels import make_context
    from repro.core.kernels.compiled import cffi_backend
    from repro.core.scenarios import make_scenario

    rows = {}
    for scenario in SCENARIOS:
        phi, mu, tg, system, params = make_scenario(
            scenario, (BENCH_EDGE,) * 3, seed=0)
        ctx = make_context(system, params)
        rows[scenario] = {}
        for row, (rung, scalar, _label) in COMPILED_STRATEGIES.items():
            kern = get_phi_kernel(rung)
            body = (cffi_backend._scalar_sweeps() if scalar
                    else contextlib.nullcontext())
            with body:
                sec = time_call(lambda k=kern: k(ctx, phi, mu, tg))
            rows[scenario][row] = rate_of(sec, BENCH_EDGE ** 3)
    return {"rows": rows, "simd": cffi_backend.simd_width()}


def _warm_compiled(b, name) -> float:
    if name not in COMPILED_RUNGS:
        return 0.0
    from repro.core.kernels import compiled

    return compiled.warmup(b["ctx"])


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("strategy", ROWS)
def test_strategy_rate(benchmark, bench_blocks, scenario, strategy):
    b = bench_blocks[scenario]
    kern = get_phi_kernel(strategy)
    benchmark.group = f"fig5-{scenario}"
    benchmark.name = strategy
    benchmark.extra_info["warmup_seconds"] = _warm_compiled(b, strategy)
    benchmark(lambda: kern(b["ctx"], b["phi"], b["mu"], b["tg"]))
    benchmark.extra_info["mlups"] = rate_of(benchmark.stats["mean"], b["cells"])


def test_fig5_shape_and_report(benchmark, bench_blocks, results_dir):
    """Regenerate the Fig. 5 bar chart data and assert the paper's shape."""
    from repro.core.kernels import compiled

    rows = {}
    compile_seconds = {}
    have_compiled = all(rung_available(r) for r in COMPILED_RUNGS)
    # NumPy strategies, then the compiled trio
    report_rows = list(STRATEGIES) + (
        list(COMPILED_STRATEGIES) if have_compiled else [])
    simd = 0

    def measure():
        nonlocal simd
        for scenario in SCENARIOS:
            b = bench_blocks[scenario]
            rows[scenario] = {}
            if have_compiled:
                # untimed, recorded: JIT/dlopen cost stays out of the rates
                compile_seconds[scenario] = compiled.warmup(b["ctx"])
            for strategy in STRATEGIES:
                kern = get_phi_kernel(strategy)
                sec = time_call(
                    lambda k=kern, bb=b: k(bb["ctx"], bb["phi"], bb["mu"], bb["tg"])
                )
                rows[scenario][strategy] = rate_of(sec, b["cells"])
        if have_compiled:
            trio = on_one_core(
                "__import__('test_fig5_vectorization').compiled_rows()")
            simd = trio["simd"]
            for scenario in SCENARIOS:
                rows[scenario].update(trio["rows"][scenario])

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
        series={"phi": rows, "compile_seconds": compile_seconds},
    )

    lines = ["Fig. 5 reproduction: phi-kernel MLUP/s by vectorization strategy",
             f"(block {len(bench_blocks)}x scenarios, edge 32; paper: 60^3 on 1 SuperMUC core)",
             ""]
    numpy_rows = list(STRATEGIES)
    lines.append("NumPy analogs")
    lines.append(f"{'scenario':<12}" + "".join(f"{s:>22}" for s in numpy_rows))
    for scenario, vals in rows.items():
        lines.append(
            f"{scenario:<12}"
            + "".join(f"{vals[s]:>22.3f}" for s in numpy_rows)
        )
    if have_compiled:
        lines += ["", f"compiled C, one core (SIMD width {simd}; cellwise = "
                      "scalar body of `compiled`, four-cell = `compiled`, "
                      "cellwise+shortcuts = `compiled_shortcuts`)"]
        lines.append(f"{'scenario':<12}" + "".join(
            f"{label:>22}" for _r, _s, label in COMPILED_STRATEGIES.values()))
        for scenario, vals in rows.items():
            lines.append(f"{scenario:<12}" + "".join(
                f"{vals[r]:>22.3f}" for r in COMPILED_STRATEGIES))
    lines += ["", "paper shape: cellwise-with-shortcuts fastest in every scenario;",
              "four-cell variant cannot take per-cell shortcuts."]
    if compile_seconds:
        lines.append(
            f"compiled backend: {compiled.backend_name()}; untimed "
            "compile/warmup per block: "
            + ", ".join(f"{s}={v * 1e3:.1f}ms"
                        for s, v in compile_seconds.items())
        )
    write_report(results_dir, "fig5_vectorization.txt", lines)

    for scenario in SCENARIOS:
        vals = rows[scenario]
        best_numpy = max(vals[s] for s in STRATEGIES)
        assert vals["cellwise_shortcuts"] >= 0.9 * best_numpy, (
            scenario, vals,
        )
    # bulk blocks benefit the most from shortcuts
    gain_liquid = rows["liquid"]["cellwise_shortcuts"] / rows["liquid"]["cellwise"]
    gain_iface = (
        rows["interface"]["cellwise_shortcuts"] / rows["interface"]["cellwise"]
    )
    assert gain_liquid > gain_iface

    if have_compiled and not SMOKE:
        if simd == 4:
            for scenario in SCENARIOS:
                vals = rows[scenario]
                assert (vals["compiled_four_cell"]
                        >= 2.0 * vals["compiled_cellwise"]), (scenario, vals)
        # the paper's crossover: where bulk dominates, skipping work
        # beats doing it four cells at a time
        liquid = rows["liquid"]
        assert liquid["compiled_shortcuts"] > liquid["compiled_four_cell"], (
            liquid)
