"""Performance-engineering substrate.

The paper's evaluation rests on node-level performance engineering
(roofline + IACA static analysis, LIKWID counters) and machine-scale
models (intranode scaling, communication hiding, weak scaling on three
supercomputers).  Hardware counters and half a million cores are not
available here, so this package provides faithful analytic stand-ins
(documented in DESIGN.md):

* :mod:`repro.perf.metrics` — MLUP/s measurement helpers,
* :mod:`repro.perf.flopcount` — instrumented arrays counting the floating
  point operations a kernel actually performs (LIKWID analog),
* :mod:`repro.perf.kernel_analysis` — static per-cell cost model and
  port-pressure bound (IACA analog),
* :mod:`repro.perf.machines` — SuperMUC / Hornet / JUQUEEN descriptions,
* :mod:`repro.perf.netmodel` — LogGP-style message model with topology
  penalties,
* :mod:`repro.perf.roofline` — roofline bounds,
* :mod:`repro.perf.scaling` — intranode, communication-hiding and weak
  scaling simulators (Figs. 7, 8, 9).

Whole-step regressions are judged outside this package, by
``benchmarks/e2e/compare.py`` over paired runs of ``benchmarks/e2e/run.py``.
"""

from repro.perf.machines import HORNET, JUQUEEN, MACHINES, SUPERMUC, MachineSpec
from repro.perf.metrics import measure_kernel_rate, mlups
from repro.perf.roofline import RooflineResult, roofline

__all__ = [
    "MachineSpec",
    "MACHINES",
    "SUPERMUC",
    "HORNET",
    "JUQUEEN",
    "measure_kernel_rate",
    "mlups",
    "roofline",
    "RooflineResult",
]
