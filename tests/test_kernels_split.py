"""Tests of the split mu sweep (Algorithm 2's local + neighbour parts)."""

import numpy as np
import pytest

from repro.core.kernels import get_mu_kernel, make_context
from repro.core.kernels.optimized import (
    mu_step_impl,
    mu_step_local_impl,
    mu_step_neighbor_impl,
)
from repro.core.scenarios import SCENARIOS, fill_ghosts_periodic, make_scenario

FLAG_SETS = [dict(shortcuts=True), dict(shortcuts=False)]


@pytest.fixture(scope="module", params=SCENARIOS)
def setup(request):
    phi, mu, tg, system, params = make_scenario(request.param, (5, 5, 10), seed=1)
    ctx = make_context(system, params)
    from repro.core.kernels import get_phi_kernel

    phi_dst = phi.copy()
    phi_dst[(slice(None),) + (slice(1, -1),) * 3] = get_phi_kernel("buffered")(
        ctx, phi, mu, tg
    )
    fill_ghosts_periodic(phi_dst, 3)
    return ctx, phi, phi_dst, mu, tg, tg - 0.02


@pytest.mark.parametrize("flags", FLAG_SETS)
def test_split_equals_full(setup, flags):
    """local + neighbour == combined sweep (chi-solve is linear)."""
    ctx, phi, phi_dst, mu, t_old, t_new = setup
    full = mu_step_impl(ctx, mu, phi, phi_dst, t_old, t_new, **flags)
    local = mu_step_local_impl(ctx, mu, phi, phi_dst, t_old, t_new, **flags)
    combined = mu_step_neighbor_impl(
        ctx, local, mu, phi, phi_dst, t_old, **flags
    )
    np.testing.assert_allclose(combined, full, atol=1e-12)


def test_local_part_omits_antitrapping(setup):
    ctx, phi, phi_dst, mu, t_old, t_new = setup
    flags = dict(shortcuts=False)
    local = mu_step_local_impl(ctx, mu, phi, phi_dst, t_old, t_new, **flags)
    no_at = mu_step_impl(
        ctx, mu, phi, phi_dst, t_old, t_new,
        include_antitrapping=False, **flags,
    )
    np.testing.assert_allclose(local, no_at, atol=0)


def test_neighbor_is_noop_without_antitrapping(setup):
    ctx, phi, phi_dst, mu, t_old, t_new = setup
    params_off = ctx.params.with_(anti_trapping=False)
    ctx_off = make_context(ctx.system, params_off)
    flags = dict(shortcuts=True)
    local = mu_step_local_impl(ctx_off, mu, phi, phi_dst, t_old, t_new, **flags)
    out = mu_step_neighbor_impl(ctx_off, local, mu, phi, phi_dst, t_old, **flags)
    np.testing.assert_array_equal(out, local)


def test_split_matches_registered_kernel(setup):
    """The split pipeline agrees with the registered buffered mu kernel."""
    ctx, phi, phi_dst, mu, t_old, t_new = setup
    flags = dict(shortcuts=False)
    reg = get_mu_kernel("buffered")(ctx, mu, phi, phi_dst, t_old, t_new)
    local = mu_step_local_impl(ctx, mu, phi, phi_dst, t_old, t_new, **flags)
    split = mu_step_neighbor_impl(ctx, local, mu, phi, phi_dst, t_old, **flags)
    np.testing.assert_allclose(split, reg, atol=1e-12)
