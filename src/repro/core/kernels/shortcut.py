"""Rung "shortcut": region-dependent term skipping (the fastest NumPy rung).

Adds the scenario-dependent branches of Sec. 3.3 to the buffered rung: the phi update runs only on the z-slab containing diffuse
interface (bulk cells are fixed points of the projected update), the
driving force only on actual interface cells, and the anti-trapping
current plus phase-change source of the mu update only on the interface
band.  This makes kernel runtimes depend on the domain composition —
the liquid phi-kernel and solid mu-kernel speed up the most, exactly the
behaviour Figs. 5/6/9 report.
"""

from __future__ import annotations

from repro.core.kernels.api import register
from repro.core.kernels.optimized import mu_step_impl, phi_step_impl


@register("phi", "shortcut")
def phi_step(ctx, phi_src, mu_src, t_ghost):
    """Shortcut phi sweep (slice T, face-flux arrays, region skipping)."""
    return phi_step_impl(ctx, phi_src, mu_src, t_ghost, shortcuts=True)


@register("mu", "shortcut")
def mu_step(ctx, mu_src, phi_src, phi_dst, t_old, t_new):
    """Shortcut mu sweep (slice T, face-flux arrays, region skipping)."""
    return mu_step_impl(
        ctx, mu_src, phi_src, phi_dst, t_old, t_new, shortcuts=True)
