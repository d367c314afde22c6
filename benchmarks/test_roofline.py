"""Sec. 5.1.1 — roofline and in-core (IACA-style) analysis.

Paper numbers reproduced exactly by construction or by model:

* <= 680 bytes per mu-cell update from main memory (half the stencil in L2),
* arithmetic intensity >= 2 FLOP/B,
* memory roof 80 GiB/s / 680 B = 126.3 MLUP/s per node -> compute bound,
* measured 4.2 MLUP/s x 1384 FLOP = 5.8 GFLOP/s = 27 % of core peak,
* IACA: <= 43 % of peak attainable due to add/mul imbalance + divisions,
* phi-kernel ~21 % of peak.

The FLOPs per cell of *this* implementation are measured dynamically with
the instrumented arrays and cross-checked against the static cost model.
Two measured rows place the compiled mu kernel on this host: its MLUP/s
on one core with the scalar body and with the four-cell (SIMD) body, and
the fraction of the host's nominal peak those rates imply at the counted
FLOPs per cell, next to the paper's 0.27.  Reported, not gated.
"""

from pathlib import Path

import numpy as np

from repro.core.kernels import (
    get_mu_kernel, get_phi_kernel, make_context, rung_available,
)
from repro.core.scenarios import fill_ghosts_periodic, make_scenario
from repro.perf.flopcount import count_kernel_flops
from repro.perf.kernel_analysis import (
    mu_kernel_cost,
    phi_kernel_cost,
    port_pressure_bound,
)
from repro.perf.machines import SUPERMUC
from repro.perf.roofline import bytes_per_cell, roofline
from conftest import on_one_core, write_report

PAPER_MU_FLOPS = 1384.0
PAPER_BYTES = 680.0
#: Nominal double-precision FLOPs per cycle of the kernels' instruction
#: mix on an AVX2 core: one 4-wide add and one 4-wide mul (no FMA; the
#: build keeps -ffp-contract=off) — SuperMUC's 8 as well.
HOST_FLOPS_PER_CYCLE = 8


def _host_clock_hz() -> float | None:
    """The clock /proc/cpuinfo reports for the first core, if any."""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("cpu MHz"):
                return float(line.split(":")[1]) * 1e6
    except (OSError, ValueError):
        pass
    return None


def _dynamic_counts():
    shape = (10, 10, 14)
    cells = int(np.prod(shape))
    phi, mu, tg, system, params = make_scenario("interface", shape)
    ctx = make_context(system, params)
    pk = get_phi_kernel("buffered")
    mk = get_mu_kernel("buffered")
    phi_dst = phi.copy()
    phi_dst[(slice(None),) + (slice(1, -1),) * 3] = pk(ctx, phi, mu, tg)
    fill_ghosts_periodic(phi_dst, 3)
    phi_counts = count_kernel_flops(
        lambda c, p, m, t: pk(c, p, m, t), ctx, [phi, mu, tg], cells
    )
    mu_counts = count_kernel_flops(
        lambda c, m, p, pd, t1, t2: mk(c, m, p, pd, t1, t2),
        ctx, [mu, phi, phi_dst, tg, tg - 0.01], cells,
    )
    return phi_counts, mu_counts


def mu_rates() -> list:
    """``[scalar, simd, width]``: MLUP/s of the compiled mu kernel with
    the scalar body and with the four-cell body on a 32^3 interface block
    in this process (run on one core by the table)."""
    from repro.core.kernels.compiled import cffi_backend
    from repro.perf.metrics import measure_kernel_rate

    edge = 32
    phi, mu, tg, system, params = make_scenario("interface", (edge,) * 3)
    ctx = make_context(system, params)
    kern = get_mu_kernel("compiled")

    def call():
        kern(ctx, mu, phi, phi, tg, tg - 0.01)

    with cffi_backend._scalar_sweeps():
        scalar = measure_kernel_rate(call, edge ** 3, min_time=1.0)
    simd = measure_kernel_rate(call, edge ** 3, min_time=1.0)
    return [float(scalar), float(simd), cffi_backend.simd_width()]


def test_roofline_table(benchmark, results_dir):
    data = {}

    def measure():
        data["phi_dyn"], data["mu_dyn"] = _dynamic_counts()
        data["rates"] = (on_one_core("__import__('test_roofline').mu_rates()")
                         if rung_available("compiled") else None)

    benchmark.pedantic(measure, rounds=1, iterations=1)
    phi_dyn, mu_dyn = data["phi_dyn"], data["mu_dyn"]
    mu_static = mu_kernel_cost()
    phi_static = phi_kernel_cost()
    bpc = bytes_per_cell(4, 2)
    rl_paper = roofline(SUPERMUC, PAPER_MU_FLOPS, PAPER_BYTES)
    rl_ours = roofline(SUPERMUC, mu_dyn["flops"], bpc)

    lines = [
        "Sec. 5.1.1 reproduction: roofline / in-core analysis (mu-kernel)",
        "",
        f"{'quantity':<42}{'paper':>12}{'this repo':>12}",
        f"{'FLOPs per cell update':<42}{PAPER_MU_FLOPS:>12.0f}"
        f"{mu_dyn['flops']:>12.0f}",
        f"{'bytes per cell from memory':<42}{PAPER_BYTES:>12.0f}{bpc:>12.0f}",
        f"{'arithmetic intensity (FLOP/B)':<42}"
        f"{rl_paper.arithmetic_intensity:>12.2f}"
        f"{rl_ours.arithmetic_intensity:>12.2f}",
        f"{'memory roof (MLUP/s per node)':<42}"
        f"{rl_paper.memory_bound_mlups_node:>12.1f}"
        f"{rl_ours.memory_bound_mlups_node:>12.1f}",
        f"{'compute bound?':<42}{str(not rl_paper.memory_bound):>12}"
        f"{str(not rl_ours.memory_bound):>12}",
        "",
        "static cost model vs dynamic instrumentation:",
        f"  mu : static {mu_static.flops:.0f} vs counted {mu_dyn['flops']:.0f}"
        f"  (adds {mu_dyn.get('add', 0):.0f}, muls {mu_dyn.get('mul', 0):.0f},"
        f" divs {mu_dyn.get('div', 0):.0f}, sqrts {mu_dyn.get('sqrt', 0):.0f})",
        f"  phi: static {phi_static.flops:.0f} vs counted {phi_dyn['flops']:.0f}",
        "",
        "IACA-style port-pressure bound (fraction of peak):",
        f"  mu-kernel : {port_pressure_bound(mu_static):.2f}   (paper IACA: 0.43)",
        f"  phi-kernel: {port_pressure_bound(phi_static):.2f}",
        "",
        "peak fraction at the paper's measured 4.2 MLUP/s per core: "
        f"{rl_paper.peak_fraction(4.2, SUPERMUC):.2f}  (paper: 0.27)",
    ]
    rates, clock = data["rates"], _host_clock_hz()
    if rates is not None:
        scalar, simd, width = rates
        lines += ["", "measured on this host, compiled mu-kernel, one core, "
                      "32^3 interface block:"]
        peak = clock * HOST_FLOPS_PER_CYCLE if clock else None
        if peak:
            lines.append(
                f"  nominal peak {peak / 1e9:.1f} GFLOP/s per core "
                f"({clock / 1e9:.2f} GHz x {HOST_FLOPS_PER_CYCLE} FLOP/cycle)")
        for name, rate in (("scalar body", scalar),
                           (f"four-cell body (SIMD width {width})", simd)):
            gflops = rate * 1e6 * mu_dyn["flops"] / 1e9
            frac = f"{gflops * 1e9 / peak:.2f}" if peak else "n/a"
            lines.append(
                f"  {name:<32}{rate:>7.2f} MLUP/s x {mu_dyn['flops']:.0f} "
                f"FLOP = {gflops:.2f} GFLOP/s, fraction of peak {frac}"
                "  (paper: 0.27)")
    write_report(results_dir, "roofline.txt", lines)

    # hard checks against the paper's numbers
    assert rl_paper.memory_bound_mlups_node == 126.3 or abs(
        rl_paper.memory_bound_mlups_node - 126.3
    ) < 0.1
    assert rl_paper.arithmetic_intensity >= 2.0
    assert not rl_paper.memory_bound
    assert abs(rl_paper.peak_fraction(4.2, SUPERMUC) - 0.27) < 0.01
    # our implementation is compute bound as well
    assert not rl_ours.memory_bound
    # IACA-analog bound in the plausible band around the paper's 43 %
    assert 0.3 < port_pressure_bound(mu_static) < 0.6
    # static and dynamic counts agree within 50 %
    assert abs(mu_static.flops - mu_dyn["flops"]) / mu_dyn["flops"] < 0.5
    assert abs(phi_static.flops - phi_dyn["flops"]) / phi_dyn["flops"] < 0.5
