"""Semi-implicit (IMEX) chemical-potential update — the paper's future work.

"For future work, we plan to switch from the explicit Euler time stepping
scheme to an implicit solver."  The stiff part of Eq. (3) is the solute
diffusion ``chi^{-1} div(M grad mu)`` whose explicit stability limit is
``dt < dx^2 / (2 d D_max)``.  This module implements the standard
stabilized IMEX splitting: a *constant-coefficient* diffusion operator
``Dbar lap(mu)`` is treated implicitly (spectrally, so unconditionally
stable) while the variable-coefficient remainder stays explicit:

.. math::

    (1 - \\Delta t\\, \\bar D \\nabla^2)\\, \\mu^{n+1}
        = \\mu^n + \\Delta t\\, [\\text{explicit Eq. (3) rhs}]
          - \\Delta t\\, \\bar D \\nabla^2 \\mu^n

With ``Dbar >= max_a D_a / 2`` the scheme is stable for time steps far
beyond the explicit limit (first-order consistent: the added and
subtracted stabilization terms cancel to O(dt)).

The implicit solve runs in a mixed spectral basis matching the Fig. 2
boundaries: FFT along the periodic transverse axes and a type-II cosine
transform (homogeneous Neumann) along the growth axis.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as sfft

from repro.core.kernels.api import KernelContext
from repro.core.kernels.optimized import mu_step_impl
from repro.core.stencils import interior, laplacian

__all__ = ["implicit_diffusion_solve", "semi_implicit_mu_step", "default_dbar"]


def default_dbar(ctx: KernelContext) -> float:
    """Stabilization diffusivity: the largest phase diffusivity.

    The effective diffusion operator of Eq. (3) is ``chi^{-1} M``; with
    the shared mobility construction its spectrum is bounded by
    ``max_a D_a``, so this choice over-stabilizes slightly (safe side).
    """
    return float(np.max(ctx.diff))


def _laplacian_symbol(shape: tuple[int, ...], dx: float) -> np.ndarray:
    """Discrete 7-point Laplacian eigenvalues in the mixed basis.

    Periodic axes diagonalize under the DFT with eigenvalue
    ``2 (cos(2 pi k / n) - 1) / dx^2``; the Neumann growth axis under the
    DCT-II with ``2 (cos(pi k / n) - 1) / dx^2``.
    """
    dim = len(shape)
    sym = np.zeros(shape)
    for ax, n in enumerate(shape):
        if ax < dim - 1:
            k = np.arange(n)
            eig = 2.0 * (np.cos(2.0 * np.pi * k / n) - 1.0) / (dx * dx)
        else:
            k = np.arange(n)
            eig = 2.0 * (np.cos(np.pi * k / n) - 1.0) / (dx * dx)
        sym = sym + eig.reshape((1,) * ax + (n,) + (1,) * (dim - ax - 1))
    return sym


def implicit_diffusion_solve(
    rhs: np.ndarray, coeff: float, dx: float
) -> np.ndarray:
    """Solve ``(1 - coeff * lap) u = rhs`` per component, spectrally.

    *rhs* has shape ``(C,) + S``; transverse axes periodic, growth axis
    homogeneous Neumann.  ``coeff = dt * Dbar``.
    """
    rhs = np.asarray(rhs, dtype=float)
    spatial = rhs.shape[1:]
    dim = len(spatial)
    sym = _laplacian_symbol(spatial, dx)
    out = np.empty_like(rhs)
    fft_axes = tuple(range(1, dim))  # component axis excluded, z handled by DCT
    for c in range(rhs.shape[0]):
        u = rhs[c]
        spec = sfft.dct(u, type=2, axis=dim - 1, norm="ortho")
        if fft_axes:
            spec = np.fft.fftn(spec, axes=tuple(a - 1 for a in range(1, dim)))
        spec = spec / (1.0 - coeff * sym)
        if fft_axes:
            spec = np.fft.ifftn(spec, axes=tuple(a - 1 for a in range(1, dim)))
            spec = spec.real
        out[c] = sfft.idct(spec, type=2, axis=dim - 1, norm="ortho")
    return out


def semi_implicit_mu_step(
    ctx: KernelContext,
    mu_src: np.ndarray,
    phi_src: np.ndarray,
    phi_dst: np.ndarray,
    t_old: np.ndarray,
    t_new: np.ndarray,
    *,
    dbar: float | None = None,
    shortcuts: bool = True,
) -> np.ndarray:
    """One stabilized IMEX mu update (drop-in for the explicit mu kernels).

    Computes the full explicit update (so all sources, anti-trapping and
    the variable-coefficient mobility are retained), then applies the
    stabilization correction and the implicit constant-coefficient solve.
    Reduces to the explicit update as ``dbar -> 0``.
    """
    p = ctx.params
    dbar = default_dbar(ctx) if dbar is None else float(dbar)
    explicit = mu_step_impl(
        ctx, mu_src, phi_src, phi_dst, t_old, t_new,
        shortcuts=shortcuts,
    )
    if dbar == 0.0:
        return explicit
    coeff = p.dt * dbar
    lap_old = np.stack(
        [laplacian(mu_src[i], p.dim, p.dx) for i in range(mu_src.shape[0])]
    )
    rhs = explicit - coeff * lap_old
    return implicit_diffusion_solve(rhs, coeff, p.dx)
