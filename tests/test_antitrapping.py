"""Tests of the anti-trapping current (Eq. 4)."""

import numpy as np
import pytest

from repro.core.antitrapping import face_flux, norm_guarded
from repro.core.kernels import make_context
from repro.core.scenarios import fill_ghosts_periodic, make_scenario


class TestNormGuarded:
    def test_unit_vectors(self):
        v = np.array([[3.0], [4.0], [0.0]])
        norm, unit = norm_guarded(v)
        assert norm[0] == pytest.approx(5.0)
        np.testing.assert_allclose(unit[:, 0], [0.6, 0.8, 0.0])

    def test_zero_vector_guarded(self):
        v = np.zeros((3, 2))
        norm, unit = norm_guarded(v)
        np.testing.assert_allclose(unit, 0.0)
        np.testing.assert_allclose(norm, 0.0)


@pytest.fixture(scope="module")
def interface_setup():
    phi, mu, tg, system, params = make_scenario("interface", (5, 5, 12))
    ctx = make_context(system, params)
    from repro.core.kernels import get_phi_kernel

    phi_dst = phi.copy()
    phi_dst[(slice(None),) + (slice(1, -1),) * 3] = get_phi_kernel("buffered")(
        ctx, phi, mu, tg
    )
    fill_ghosts_periodic(phi_dst, 3)
    return ctx, phi, phi_dst, mu, tg


class TestFaceFlux:
    def test_zero_without_phase_change(self, interface_setup):
        """J_at ~ dphi/dt: a static field produces no flux."""
        ctx, phi, _, mu, tg = interface_setup
        t_face = np.full((1, 1, 13), tg[0])
        j = face_flux(ctx.system, ctx.params, phi, phi, mu, t_face, 2)
        np.testing.assert_allclose(j, 0.0, atol=1e-15)

    def test_zero_in_pure_solid(self, interface_setup):
        ctx, phi, phi_dst, mu, tg = interface_setup
        solid = np.zeros_like(phi)
        solid[0] = 1.0
        t_face = np.full((1, 1, 13), tg[0])
        j = face_flux(ctx.system, ctx.params, solid, phi_dst, mu, t_face, 2)
        np.testing.assert_allclose(j, 0.0, atol=1e-15)

    def test_zero_in_pure_liquid(self, interface_setup):
        ctx, phi, phi_dst, mu, tg = interface_setup
        liq = np.zeros_like(phi)
        liq[ctx.liquid] = 1.0
        t_face = np.full((1, 1, 13), tg[0])
        j = face_flux(ctx.system, ctx.params, liq, liq, mu, t_face, 2)
        np.testing.assert_allclose(j, 0.0, atol=1e-15)

    def test_nonzero_at_moving_front(self, interface_setup):
        ctx, phi, phi_dst, mu, tg = interface_setup
        t_face = np.full((1, 1, 13), tg[0])
        j = face_flux(ctx.system, ctx.params, phi, phi_dst, mu, t_face, 2)
        assert np.abs(j).max() > 0.0

    def test_scales_with_eps(self, interface_setup):
        ctx, phi, phi_dst, mu, tg = interface_setup
        t_face = np.full((1, 1, 13), tg[0])
        j1 = face_flux(ctx.system, ctx.params, phi, phi_dst, mu, t_face, 2)
        params2 = ctx.params.with_(eps=2 * ctx.params.eps)
        j2 = face_flux(ctx.system, params2, phi, phi_dst, mu, t_face, 2)
        np.testing.assert_allclose(j2, 2.0 * j1, atol=1e-14)

    def test_face_shapes(self, interface_setup):
        ctx, phi, phi_dst, mu, tg = interface_setup
        for k, expected in [(0, (2, 6, 5, 12)), (1, (2, 5, 6, 12)), (2, (2, 5, 5, 13))]:
            t_face = (
                np.full((1, 1, 13), tg[0]) if k == 2 else np.full((1, 1, 12), tg[0])
            )
            j = face_flux(ctx.system, ctx.params, phi, phi_dst, mu, t_face, k)
            assert j.shape == expected
