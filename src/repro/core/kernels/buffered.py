"""Rung "buffered": staggered face-flux values computed once per face.

The divergence of ``(M grad mu - J_at)`` (and of the gradient-energy flux
in the phi sweep) needs the flux through all ``2*dim`` faces of every cell;
half of those were already computed when updating the previous cell.
Buffering them (Fig. 3 of the paper) halves the flux work — "increases the
mu-kernel performance by almost a factor of two" because that kernel is
dominated by the staggered values; the phi-kernel gains only slightly
because its buffered quantities are cheaper.
"""

from __future__ import annotations

from repro.core.kernels.api import register
from repro.core.kernels.optimized import mu_step_impl, phi_step_impl


@register("phi", "buffered")
def phi_step(ctx, phi_src, mu_src, t_ghost):
    """Buffered phi sweep (slice T, face-flux arrays, no shortcuts)."""
    return phi_step_impl(ctx, phi_src, mu_src, t_ghost, shortcuts=False)


@register("mu", "buffered")
def mu_step(ctx, mu_src, phi_src, phi_dst, t_old, t_new):
    """Buffered mu sweep (slice T, face-flux arrays, no shortcuts)."""
    return mu_step_impl(
        ctx, mu_src, phi_src, phi_dst, t_old, t_new, shortcuts=False)
