"""Fig. 6 — node-level optimization ladder for both kernels.

Paper: MLUP/s of the phi- and mu-kernels after each optimization stage
(general-purpose C code -> basic waLBerla -> SIMD -> T(z) -> staggered
buffer -> shortcuts) on interface / liquid / solid blocks of 60^3.
Headline shape claims: the staggered buffer nearly doubles the mu-kernel;
T(z) helps the phi-kernel more than the mu-kernel; shortcuts speed up the
phi-kernel predominantly in liquid blocks and the mu-kernel in solid
blocks; all optimizations combined give a large total speedup over the
general-purpose baseline.

Here the ladder above the pure-Python reference is read off the one
compiled sweep body, on one core and timed interleaved: ``specialised``
is the body at W = 1 with its T(z) tables and staggered face buffers
compiled out (the backend's ``TZ`` / ``STAGGER`` ablations), ``+T(z)``
puts the tables back, ``+stagger`` is ``compiled`` at W = 1,
``+shortcuts`` is ``compiled_shortcuts`` at W = 1, and the last two rows
are both rungs as shipped (four cells per AVX2 vector where the host has
it).  Every row computes the same bits as ``compiled``.  The NumPy
``buffered`` / ``shortcut`` rungs, the fallbacks without a compiler, are
measured beside them.
"""

import contextlib
import time

import numpy as np
import pytest

from repro.core.kernels import (
    COMPILED_RUNGS,
    LADDER,
    get_mu_kernel,
    get_phi_kernel,
    make_context,
    rung_available,
)
from repro.core.scenarios import fill_ghosts_periodic, make_scenario
from conftest import (
    BENCH_EDGE,
    BENCH_MIN_TIME,
    SMOKE,
    interleaved_seconds,
    make_bench_blocks,
    on_one_core,
    rate_of,
    time_call,
    write_bench_report,
    write_report,
)

SCENARIOS = ("interface", "liquid", "solid")
#: Rungs measured by the per-rung benchmarks: every registered one but
#: the pure-Python reference, filtered to what this environment can run
#: (the compiled rungs need a C toolchain + cffi; the registry reports
#: them unavailable rather than erroring).
FAST_RUNGS = [r for r in LADDER if r != "reference" and rung_available(r)]
#: The NumPy rungs of the table.
NUMPY_RUNGS = ("buffered", "shortcut")
#: The compiled ladder, bottom to top: row -> (rung, body), where body is
#: the ``(tz, stagger)`` of the W = 1 body the row runs, or None for the
#: rung as shipped.
COMPILED_LADDER = {
    "specialised": ("compiled", (False, False)),
    "+T(z)": ("compiled", (True, False)),
    "+stagger": ("compiled", (True, True)),
    "+shortcuts": ("compiled_shortcuts", (True, True)),
    "compiled": ("compiled", None),
    "compiled_shortcuts": ("compiled_shortcuts", None),
}
HAVE_COMPILED = all(rung_available(r) for r in COMPILED_RUNGS)
#: Columns of the table.
ROWS = list(NUMPY_RUNGS) + (list(COMPILED_LADDER) if HAVE_COMPILED else [])


def _body(body):
    """The context a ladder row's calls run in: the W = 1 body of *body*
    (an ablated one, or the shipped one) or the shipped width."""
    from repro.core.kernels.compiled import cffi_backend

    if body is None:
        return contextlib.nullcontext()
    if all(body):
        return cffi_backend._scalar_sweeps()
    return cffi_backend._ablated(*body)


def _ladder_call(row, kind, b):
    """A call of the *kind* sweep of ladder *row* on the block *b*."""
    rung, body = COMPILED_LADDER[row]
    if kind == "phi":
        kern, args = get_phi_kernel(rung), (b["ctx"], b["phi"], b["mu"],
                                            b["tg"])
    else:
        kern, args = get_mu_kernel(rung), (b["ctx"], b["mu"], b["phi"],
                                           b["phi_dst"], b["tg"], b["t_new"])

    def call():
        with _body(body):
            kern(*args)
    return call


def compiled_rows() -> dict:
    """``{"phi": {scenario: {row: MLUP/s}}, "mu": ..., "compile_seconds":
    {scenario: s}, "ablation_seconds": {body: s}}`` of the compiled
    ladder in this process (run on one core by the report), the rows of
    each kernel and scenario timed interleaved.  The ablated bodies are
    built (or found in the cache) first, untimed and on the record."""
    from repro.core.kernels import compiled
    from repro.core.kernels.compiled import cffi_backend

    rows = {"phi": {}, "mu": {}, "compile_seconds": {},
            "ablation_seconds": {}}
    cffi_backend.load()
    for body in sorted({body for _rung, body in COMPILED_LADDER.values()
                        if body is not None and not all(body)}):
        t0 = time.perf_counter()
        with _body(body):
            pass
        rows["ablation_seconds"][f"tz={int(body[0])} stagger={int(body[1])}"] \
            = time.perf_counter() - t0
    for scenario, b in make_bench_blocks().items():
        # compile/load once per block, untimed and on the record
        rows["compile_seconds"][scenario] = compiled.warmup(b["ctx"])
        for kind in ("phi", "mu"):
            seconds = interleaved_seconds(
                {row: _ladder_call(row, kind, b) for row in COMPILED_LADDER},
                min_time=BENCH_MIN_TIME)
            rows[kind][scenario] = {row: rate_of(sec, b["cells"])
                                    for row, sec in seconds.items()}
    return rows


def _warm_compiled(b, rung) -> float:
    """Compile/load a compiled rung untimed; returns the warmup seconds."""
    if rung not in COMPILED_RUNGS:
        return 0.0
    from repro.core.kernels import compiled

    return compiled.warmup(b["ctx"])


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("rung", FAST_RUNGS)
def test_phi_rung_rate(benchmark, bench_blocks, scenario, rung):
    b = bench_blocks[scenario]
    kern = get_phi_kernel(rung)
    benchmark.group = f"fig6-phi-{scenario}"
    benchmark.extra_info["warmup_seconds"] = _warm_compiled(b, rung)
    benchmark(lambda: kern(b["ctx"], b["phi"], b["mu"], b["tg"]))
    benchmark.extra_info["mlups"] = rate_of(benchmark.stats["mean"], b["cells"])


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("rung", FAST_RUNGS)
def test_mu_rung_rate(benchmark, bench_blocks, scenario, rung):
    b = bench_blocks[scenario]
    kern = get_mu_kernel(rung)
    benchmark.group = f"fig6-mu-{scenario}"
    benchmark.extra_info["warmup_seconds"] = _warm_compiled(b, rung)
    benchmark(
        lambda: kern(b["ctx"], b["mu"], b["phi"], b["phi_dst"], b["tg"], b["t_new"])
    )
    benchmark.extra_info["mlups"] = rate_of(benchmark.stats["mean"], b["cells"])


def _reference_rate(kind: str) -> float:
    """Pure-Python baseline rate, measured on a tiny interface block."""
    shape = (4, 4, 6) if SMOKE else (6, 6, 8)
    cells = int(np.prod(shape))
    phi, mu, tg, system, params = make_scenario("interface", shape, seed=0)
    ctx = make_context(system, params)
    ref_min_time = 0.05 if SMOKE else 0.3
    if kind == "phi":
        kern = get_phi_kernel("reference")
        sec = time_call(
            lambda: kern(ctx, phi, mu, tg), min_time=ref_min_time, max_repeats=3
        )
    else:
        phi_dst = phi.copy()
        phi_dst[(slice(None),) + (slice(1, -1),) * 3] = get_phi_kernel("buffered")(
            ctx, phi, mu, tg
        )
        fill_ghosts_periodic(phi_dst, 3)
        kern = get_mu_kernel("reference")
        sec = time_call(
            lambda: kern(ctx, mu, phi, phi_dst, tg, tg - 0.01),
            min_time=ref_min_time, max_repeats=3,
        )
    return rate_of(sec, cells)


def test_fig6_shape_and_report(benchmark, bench_blocks, results_dir):
    from repro.core.kernels import compiled

    rows: dict[str, dict] = {"phi": {}, "mu": {}}
    ref: dict[str, float] = {}
    compile_seconds: dict[str, float] = {}
    ablation_seconds: dict[str, float] = {}

    def measure():
        for scenario in SCENARIOS:
            b = bench_blocks[scenario]
            rows["phi"][scenario] = {}
            rows["mu"][scenario] = {}
            for rung in NUMPY_RUNGS:
                pk = get_phi_kernel(rung)
                mk = get_mu_kernel(rung)
                sec = time_call(lambda: pk(b["ctx"], b["phi"], b["mu"], b["tg"]))
                rows["phi"][scenario][rung] = rate_of(sec, b["cells"])
                sec = time_call(
                    lambda: mk(b["ctx"], b["mu"], b["phi"], b["phi_dst"],
                               b["tg"], b["t_new"])
                )
                rows["mu"][scenario][rung] = rate_of(sec, b["cells"])
        if HAVE_COMPILED:
            # a team of two threads on a shared two-core host times
            # erratically; the paper's ladder is a one-core measurement
            one_core = on_one_core(
                "__import__('test_fig6_ladder').compiled_rows()")
            compile_seconds.update(one_core["compile_seconds"])
            ablation_seconds.update(one_core["ablation_seconds"])
            for kind in ("phi", "mu"):
                for scenario in SCENARIOS:
                    rows[kind][scenario].update(one_core[kind][scenario])
        for k in ("phi", "mu"):
            ref[k] = _reference_rate(k)

    wall0 = time.perf_counter()
    benchmark.pedantic(measure, rounds=1, iterations=1)
    wall = time.perf_counter() - wall0

    write_bench_report(
        results_dir, "fig6_ladder",
        config={"edge": BENCH_EDGE, "rungs": ROWS,
                "scenarios": list(SCENARIOS),
                "compiled_backend": compiled.backend_name()},
        grid_shape=(BENCH_EDGE,) * 3,
        n_ranks=1,
        steps=len(ROWS) * len(SCENARIOS) * 2,
        wall_seconds=wall,
        mlups=max(max(v.values()) for v in rows["phi"].values()),
        series={"phi": rows["phi"], "mu": rows["mu"], "reference": ref,
                "compile_seconds": compile_seconds,
                "ablation_seconds": ablation_seconds},
    )

    lines = ["Fig. 6 reproduction: optimization-ladder MLUP/s "
             "(compiled rows on one core, timed interleaved)", ""]
    for kind in ("phi", "mu"):
        lines.append(f"{kind}-kernel   (pure-Python reference: "
                     f"{ref[kind]:.5f} MLUP/s on 6x6x8)")
        header = f"{'scenario':<12}" + "".join(f"{r:>20}" for r in ROWS)
        lines.append(header)
        for scenario in SCENARIOS:
            vals = rows[kind][scenario]
            lines.append(
                f"{scenario:<12}"
                + "".join(f"{vals[r]:>20.3f}" for r in ROWS)
            )
        if HAVE_COMPILED:
            for step, (hi, lo) in (("T(z)", ("+T(z)", "specialised")),
                                   ("stagger", ("+stagger", "+T(z)")),
                                   ("shortcuts", ("+shortcuts", "+stagger"))):
                lines.append(f"{step} step ({hi} / {lo}): " + ", ".join(
                    f"{s} {rows[kind][s][hi] / rows[kind][s][lo]:.2f}x"
                    for s in SCENARIOS))
            lines.append("best compiled / best NumPy (gate >= 3x): " + ", ".join(
                f"{s} {_compiled_over_numpy(rows[kind][s]):.1f}x"
                for s in SCENARIOS))
        lines.append("")
    if compile_seconds:
        lines.append(
            f"compiled backend: {compiled.backend_name()}; untimed "
            "compile/warmup per block: "
            + ", ".join(f"{s}={v * 1e3:.1f}ms"
                        for s, v in compile_seconds.items())
        )
        lines.append(
            "ablated bodies, build or cache load (untimed): "
            + ", ".join(f"{s}: {v:.3f}s" for s, v in ablation_seconds.items())
        )
        lines.append("")
    write_report(results_dir, "fig6_ladder.txt", lines)

    # every rung produced a positive rate (also holds in smoke mode)
    for kind in ("phi", "mu"):
        for scenario in SCENARIOS:
            assert all(v > 0 for v in rows[kind][scenario].values())
    if SMOKE:
        # smoke timings are too short for the figure-shape claims below
        return

    # shortcuts help the phi-kernel most in liquid blocks ...
    phi_gain = {
        s: rows["phi"][s]["shortcut"] / rows["phi"][s]["buffered"]
        for s in SCENARIOS
    }
    assert phi_gain["liquid"] == max(phi_gain.values())
    # ... and the mu-kernel most in bulk (solid/liquid) blocks
    mu_gain = {
        s: rows["mu"][s]["shortcut"] / rows["mu"][s]["buffered"]
        for s in SCENARIOS
    }
    assert mu_gain["interface"] == min(mu_gain.values())
    # total speedup vs the general-purpose baseline is large (paper: ~80x
    # vs its C baseline; the Python gap is much larger)
    assert rows["phi"]["interface"]["shortcut"] > 10 * ref["phi"]
    assert rows["mu"]["interface"]["shortcut"] > 10 * ref["mu"]
    if not HAVE_COMPILED:
        return
    iface_mu = rows["mu"]["interface"]
    # staggered buffering ~2x on the mu-kernel (paper: "almost a factor of two")
    assert iface_mu["+stagger"] > 1.4 * iface_mu["+T(z)"], iface_mu
    # the top of the ladder beats its specialised bottom everywhere
    top = list(COMPILED_LADDER)[-1]
    for kind in ("phi", "mu"):
        for scenario in SCENARIOS:
            vals = rows[kind][scenario]
            assert vals[top] >= vals["specialised"], (kind, scenario, vals)
    # Compiled-rung speedup gate: the top of the compiled ladder, on one
    # core, must reach >= 3x the best NumPy rung (single-threaded too) on
    # every kind and scenario.  The best compiled row is compared, not
    # plain ``compiled``: on bulk blocks the NumPy shortcut rung skips
    # nearly all work, and ``compiled_shortcuts`` is the apples-to-apples
    # top of the ladder there.
    for kind in ("phi", "mu"):
        for scenario in SCENARIOS:
            vals = rows[kind][scenario]
            assert _compiled_over_numpy(vals) >= 3.0, (
                kind, scenario, vals
            )


def _compiled_over_numpy(vals: dict) -> float:
    """Best compiled rate over best NumPy rate of one table row."""
    return (max(v for r, v in vals.items() if r not in NUMPY_RUNGS)
            / max(vals[r] for r in NUMPY_RUNGS))
