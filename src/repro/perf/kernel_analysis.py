"""Static per-cell kernel cost model (IACA analog).

The paper runs the Intel Architecture Code Analyzer over the compiled
kernels to find that, although fully vectorized, the mu-kernel cannot
exceed ~43 % of peak because of add/multiply imbalance and division
latency.  This module reproduces that style of analysis from a *static
operation count* of the model equations: it tallies adds, multiplies,
divides and square roots per cell update for both kernels (as implemented
by the buffered rung) and derives a port-pressure bound for a generic
2-port (add + mul), 4-wide SIMD core.

The counts are validated against the dynamic instrumentation of
:mod:`repro.perf.flopcount` in the test suite.  They are *model* counts:
the four-cell compiled mu body leaves out terms that are exactly zero,
and :func:`skip_census` tells how much of a state it leaves out;
:func:`shortcut_census` does the same for the shortcuts of
``compiled_shortcuts``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["KernelCost", "phi_kernel_cost", "mu_kernel_cost",
           "port_pressure_bound", "skip_census", "shortcut_census"]

#: The shortcut tolerance of the compiled bodies (``TOL`` in the C text).
SHORTCUT_TOL = 1e-9


@dataclass(frozen=True)
class KernelCost:
    """Scalar operation counts for one cell update."""

    adds: float
    muls: float
    divs: float
    sqrts: float

    @property
    def flops(self) -> float:
        """Total floating point operations."""
        return self.adds + self.muls + self.divs + self.sqrts

    def __add__(self, other: "KernelCost") -> "KernelCost":
        return KernelCost(
            self.adds + other.adds,
            self.muls + other.muls,
            self.divs + other.divs,
            self.sqrts + other.sqrts,
        )

    def scaled(self, f: float) -> "KernelCost":
        """Cost multiplied by an occupancy factor (e.g. face sharing)."""
        return KernelCost(self.adds * f, self.muls * f, self.divs * f, self.sqrts * f)


def phi_kernel_cost(n_phases: int = 4, n_solutes: int = 2, dim: int = 3) -> KernelCost:
    """Per-cell cost of the phi sweep (buffered rung, no shortcuts).

    Terms: centred gradients, pairwise gradient-energy dA/dphi, buffered
    face fluxes of the divergence (each face costed once, i.e. ``dim``
    faces per cell), obstacle potential, driving force via the O(N)
    common-subexpression form, projection onto the simplex.
    """
    n, k, d = n_phases, n_solutes, dim
    pairs = n * (n - 1) // 2
    adds = muls = divs = sqrts = 0.0

    # centred gradients of all phases: d * n * (1 sub + 1 mul-by-1/2dx)
    adds += d * n
    muls += d * n
    # dA/dphi: for each ordered pair (a,b), q_ab (2 muls + 1 sub per dim),
    # dot with grad phi_b (d muls + d-1 adds), scale + accumulate
    ordered = n * (n - 1)
    adds += ordered * (d + (d - 1) + 1)
    muls += ordered * (2 * d + d + 1)
    # buffered divergence: per face and pair: 2 avgs (2 add, 2 mul),
    # 2 diffs (2 add, 2 mul), flux combo (3 mul, 1 add, 1 mul-by-gamma);
    # d faces amortized per cell, both orientations of (a,b) folded in
    faces = d
    adds += faces * pairs * (2 + 2 + 1) * 2
    muls += faces * pairs * (2 + 2 + 4) * 2
    # divergence accumulation: d * n (sub + mul by 1/dx)
    adds += d * n
    muls += d * n
    # obstacle potential: n*(n-1) mul-add + triple terms
    adds += ordered
    muls += ordered
    triples = n * (n - 1) * (n - 2) // 6
    adds += 3 * triples
    muls += 2 * 3 * triples
    # driving force: psi_a per phase: quadratic form (k^2 muls, k^2 adds)
    # + linear (2k) + offset; O(N) combination
    adds += n * (k * k + k + 2) + 2 * n
    muls += n * (k * k + 2 * k + 2) + 2 * n
    divs += 2  # 1/sq_sum shared, tau division
    # assembly: rhs scaling, mean subtraction, euler update
    adds += 3 * n
    muls += 3 * n
    # simplex projection: sort ~ n log n comparisons (not FLOPs), cumsum n,
    # candidate n (add+div), clip
    adds += 2 * n
    divs += n
    return KernelCost(adds, muls, divs, sqrts)


def mu_kernel_cost(n_phases: int = 4, n_solutes: int = 2, dim: int = 3) -> KernelCost:
    """Per-cell cost of the mu sweep (buffered rung, anti-trapping on).

    Dominated by the staggered face values of ``M grad mu - J_at``
    (the quantity the paper's staggered buffer halves): mobility
    contraction, anti-trapping with two vector normalizations per face
    and phase, susceptibility solve, phase-change and dT/dt sources.
    """
    n, k, d = n_phases, n_solutes, dim
    solids = n - 1
    adds = muls = divs = sqrts = 0.0

    # interpolation weights h (old and new): n squares, sum, divide
    adds += 2 * (n - 1 + n)
    muls += 2 * n
    divs += 2 * n
    # phase concentrations c_a(mu): per phase k x k matvec + c_min(T)
    adds += n * (k * k + k)
    muls += n * (k * k + k)
    # phase-change source: n * (k mul + k add) + dT/dt source
    adds += n * k + k + n * k
    muls += n * k + k + n * k
    # diffusive face flux (buffered: d faces/cell): weights (n avg),
    # dmu (k diff), contraction n*k*k mul-add
    adds += d * (n + k + n * k * k)
    muls += d * (n + k + n * k * k + n)
    # anti-trapping per face and solid phase: face grads of phi_a and
    # phi_l (d * 4 ops each), two normalizations (d mul, d-1 add, sqrt,
    # div), n.n dot (d), amplitude (sqrt + 3 mul + div), c_l - c_a (k),
    # outer scale (k mul)
    per_face_pair = KernelCost(
        adds=2 * (2 * d) + 2 * (d - 1) + d + k,
        muls=2 * (2 * d) + 2 * d + d + 4 + 2 * k,
        divs=2 + 1,
        sqrts=2 + 1,
    )
    at = per_face_pair.scaled(d * solids)
    adds += at.adds
    muls += at.muls
    divs += at.divs
    sqrts += at.sqrts
    # divergence accumulation + susceptibility 2x2 solve + euler update
    adds += d * k + (k * k * n) + 3 + 2 * k
    muls += d * k + (k * k * n) + 6 + 2 * k
    divs += k
    return KernelCost(adds, muls, divs, sqrts)


def port_pressure_bound(
    cost: KernelCost,
    vector_width: int = 4,
    div_cycles: float = 7.0,
    sqrt_cycles: float = 7.0,
) -> float:
    """Attainable fraction of peak under ideal conditions (IACA-style).

    A generic core issues one ``vector_width``-wide add and one multiply
    per cycle (peak = ``2 * vector_width`` FLOPs/cycle).  Divisions and
    square roots block the multiply port for several cycles.  The bound is
    ``flops / (cycles * peak_per_cycle)`` where the cycle count is set by
    the busier port — add/multiply imbalance therefore caps the fraction
    below 1 exactly as the paper's IACA report shows.
    """
    add_cycles = cost.adds / vector_width
    mul_cycles = (
        cost.muls / vector_width
        + cost.divs * div_cycles / vector_width
        + cost.sqrts * sqrt_cycles / vector_width
    )
    cycles = max(add_cycles, mul_cycles)
    if cycles <= 0:
        raise ValueError("cost must be positive")
    return cost.flops / (cycles * 2 * vector_width)


def skip_census(phi, phi_dst, liquid: int, width: int = 4) -> tuple[float, float]:
    """Shares of the four-cell vectors that take the exact-zero skips of
    the compiled mu body on a state.

    *phi* and *phi_dst* are ghosted 3-D phase fields whose z extent is a
    multiple of *width*.  Returns ``(zero_at, steady)``: the share of the
    face vectors (the upper faces of *width* consecutive z cells, along
    every axis) through which every solid phase's anti-trapping amplitude
    ``phi_f[a] * phi_f[liquid]`` is 0 on every lane, and the share of cell
    vectors whose phi the step left bitwise unchanged on every lane.
    """
    inner = (slice(None),) + (slice(1, -1),) * 3
    vectors = tuple(n - 2 for n in phi.shape[1:3]) + (
        (phi.shape[3] - 2) // width, width)
    zero = []
    for d in range(3):
        upper = (slice(None),) + tuple(
            slice(2, None) if e == d else slice(1, -1) for e in range(3))
        face = np.clip(0.5 * (phi[inner] + phi[upper]), 0.0, 1.0)
        dead = np.all([face[a] * face[liquid] == 0.0
                       for a in range(len(face)) if a != liquid], axis=0)
        zero.append(dead.reshape(vectors).all(-1))
    same = (phi.view(np.int64) == phi_dst.view(np.int64))[inner].all(0)
    return (float(np.mean(zero)),
            float(same.reshape(vectors).all(-1).mean()))


def shortcut_census(phi, liquid: int, width: int = 4) -> tuple[float, float, float]:
    """Shares of the four-cell vectors whose lanes all take a shortcut of
    ``compiled_shortcuts`` on a state.

    *phi* is a ghosted 2-D or 3-D phase field (the sweeps' ``phi_src``)
    whose z extent is a multiple of *width*; *liquid* its liquid phase.
    The cell flags are the sweep body's, with its comparisons: *diffuse*
    (no phase at or above ``1 - TOL``), *active* (diffuse, or a face
    neighbour more than ``TOL`` away in some phase) and *front* (active,
    with liquid above ``TOL`` at the cell or a face neighbour).  Returns
    ``(inactive, non_diffuse, non_front)``: the shares of the vectors of
    *width* consecutive z cells where no lane is active (the phi sweep
    copies them through), none is diffuse (it skips the driving force)
    and none is a front cell (the mu sweep skips anti-trapping).
    """
    dim = phi.ndim - 1
    if (phi.shape[-1] - 2) % width:
        raise ValueError(f"z extent {phi.shape[-1] - 2} is not a multiple "
                         f"of the vector width {width}")
    inner = (slice(None),) + (slice(1, -1),) * dim
    pc = phi[inner]
    diffuse = ~np.any(pc >= 1.0 - SHORTCUT_TOL, axis=0)
    active = diffuse.copy()
    near = pc[liquid] > SHORTCUT_TOL
    for d in range(dim):
        for lo in (0, 2):
            nb = phi[(slice(None),) + tuple(
                slice(lo, lo + n - 2) if e == d else slice(1, -1)
                for e, n in enumerate(phi.shape[1:]))]
            active |= np.any(np.abs(nb - pc) > SHORTCUT_TOL, axis=0)
            near |= nb[liquid] > SHORTCUT_TOL
    vectors = pc.shape[1:-1] + (pc.shape[-1] // width, width)

    def none_of(flag):
        return float((~flag).reshape(vectors).all(-1).mean())

    return none_of(active), none_of(diffuse), none_of(active & near)
