"""Ambient geometry: metric, frame, connection, curvature."""

import math

import numpy as np
import pytest

from ektau.errors import NonPositiveH, OutOfDomain, UnsupportedSign
from ektau.model import (Point3, SpaceParams, base_distance, christoffel,
                         christoffel_components, conformal_factor,
                         critical_mean_curvature, curvature_report,
                         frame_matrix, metric_at, metric_components,
                         orthonormal_frame,
                         scalar_curvature, sphere_exists, _killing_residual_at)
from ektau.graph_geometry import Jet2, shape_data
from fd_curvature import christoffel_fd, curvature_report_fd

NIL = SpaceParams(kappa=0.0, tau=0.5)
PSL = SpaceParams(kappa=-1.0, tau=0.5)
FLAT = SpaceParams(kappa=0.0, tau=0.0)


def random_points(params, count, rng, r=0.8):
    lim = min(r, 0.45 * params.domain_radius) if params.kappa < 0 else r
    for _ in range(count):
        yield rng.uniform(-lim, lim), rng.uniform(-lim, lim), rng.randn()


class TestSpaceParams:
    def test_flat_reduction_allowed(self):
        assert FLAT.is_flat and not FLAT.theorem_scope

    def test_kappa_equals_four_tau_sq_rejected(self):
        with pytest.raises(ValueError):
            SpaceParams(kappa=1.0, tau=0.5)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            SpaceParams(kappa=0.0, tau=-0.5)

    def test_domain_radius(self):
        assert PSL.domain_radius == 2.0
        assert math.isinf(NIL.domain_radius)
        assert SpaceParams(-4.0, 0.5).domain_radius == 1.0

    def test_theorem_scope(self):
        assert NIL.theorem_scope and PSL.theorem_scope
        assert not SpaceParams(-1.0, 0.0).theorem_scope

    def test_roundtrip(self):
        assert SpaceParams.from_dict(PSL.to_dict()) == PSL


# the pointwise entry points, each called at a point with x = v
POINTWISE = {
    "metric_at": lambda v, p: metric_at(Point3(v, 0.0), p),
    "christoffel": lambda v, p: christoffel(Point3(v, 0.0), p),
    "curvature_report": lambda v, p: curvature_report(Point3(v, 0.0), p),
    "orthonormal_frame": lambda v, p: orthonormal_frame(Point3(v, 0.0), p),
    "conformal_factor": lambda v, p: conformal_factor(v, 0.0, p),
    "shape_data": lambda v, p: shape_data(Jet2(v, 0.0, 0, 0, 0, 0, 0, 0), p),
}


@pytest.mark.parametrize("entry", sorted(POINTWISE))
@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("params", [NIL, PSL], ids=["nil", "psl"])
def test_non_finite_point_rejected(entry, bad, params):
    with pytest.raises(OutOfDomain, match="non-finite point"):
        POINTWISE[entry](bad, params)


@pytest.mark.parametrize("entry", sorted(POINTWISE))
@pytest.mark.parametrize("params", [FLAT, NIL], ids=["flat", "nil"])
def test_overflowing_radius_rejected(entry, params):
    # a finite point whose x^2 + y^2 overflows: with kappa = 0 the conformal
    # factor would read 4 / (4 + 0 * inf) = NaN
    with pytest.raises(OutOfDomain, match="x\\^2 \\+ y\\^2 overflows"):
        POINTWISE[entry](1e200, params)


class TestConformalFactor:
    def test_origin_any_params(self):
        for params in (NIL, PSL, FLAT, SpaceParams(2.0, 0.1)):
            assert conformal_factor(0.0, 0.0, params) == 1.0

    def test_flat_base_everywhere_one(self):
        assert conformal_factor(3.7, -2.1, NIL) == 1.0

    def test_direct_substitution(self):
        assert conformal_factor(1.0, 1.0, SpaceParams(-1.0, 0.5)) == pytest.approx(2.0)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            conformal_factor(2.0, 0.1, PSL)


class TestMetric:
    def test_identity_at_origin(self):
        for params in (NIL, PSL, FLAT):
            m = metric_at(Point3(0, 0, 0), params)
            np.testing.assert_allclose(m.g, np.eye(3), atol=1e-15)

    def test_hand_expanded_example(self):
        # k=0, tau=1 at (0,1,0): dx^2 + dy^2 + (dz + dx)^2
        m = metric_at(Point3(0.0, 1.0, 0.0), SpaceParams(0.0, 1.0))
        np.testing.assert_allclose(
            m.g, [[2, 0, 1], [0, 1, 0], [1, 0, 1]], atol=1e-15)

    def test_z_independence(self):
        rng = np.random.RandomState(3)
        for x, y, z in random_points(PSL, 20, rng):
            a = metric_at(Point3(x, y, z), PSL)
            b = metric_at(Point3(x, y, z + 5.0), PSL)
            np.testing.assert_array_equal(a.g, b.g)

    def test_inverse_and_dg_structure(self):
        rng = np.random.RandomState(4)
        for x, y, z in random_points(NIL, 30, rng):
            m = metric_at(Point3(x, y, z), NIL)
            np.testing.assert_allclose(m.g @ m.g_inv, np.eye(3), atol=1e-12)
            np.testing.assert_array_equal(m.dg, np.swapaxes(m.dg, 0, 1))

    def test_dg_matches_finite_differences(self):
        rng = np.random.RandomState(5)
        d = 1e-6
        for x, y, _ in random_points(PSL, 10, rng):
            dg = metric_at(Point3(x, y), PSL).dg
            fd_x = (metric_components(x + d, y, PSL)
                    - metric_components(x - d, y, PSL)) / (2 * d)
            fd_y = (metric_components(x, y + d, PSL)
                    - metric_components(x, y - d, PSL)) / (2 * d)
            np.testing.assert_allclose(dg[..., 0], fd_x, atol=1e-8)
            np.testing.assert_allclose(dg[..., 1], fd_y, atol=1e-8)


class TestFrame:
    def test_coordinate_basis_at_origin(self):
        E1, E2, E3 = orthonormal_frame(Point3(0, 0, 0), NIL)
        np.testing.assert_allclose(E1.components, [1, 0, 0], atol=1e-15)
        np.testing.assert_allclose(E2.components, [0, 1, 0], atol=1e-15)
        np.testing.assert_allclose(E3.components, [0, 0, 1], atol=1e-15)

    def test_horizontal_frame_tilts_with_tau(self):
        E1, _, _ = orthonormal_frame(Point3(0.0, 1.0, 0.0), SpaceParams(0.0, 1.0))
        np.testing.assert_allclose(E1.components, [1, 0, -1], atol=1e-15)

    def test_vertical_field_unit(self):
        rng = np.random.RandomState(6)
        for params in (NIL, PSL):
            for x, y, z in random_points(params, 100, rng):
                g = metric_components(x, y, params)
                assert abs(g[2, 2] - 1.0) < 1e-15

    def test_gram_identity(self):
        rng = np.random.RandomState(7)
        for params in (NIL, PSL):
            worst = 0.0
            for x, y, _ in random_points(params, 100, rng):
                g = metric_components(x, y, params)
                F = frame_matrix(x, y, params)
                worst = max(worst, np.abs(F.T @ g @ F - np.eye(3)).max())
            assert worst < 1e-12


class TestChristoffel:
    def test_flat_zero(self):
        gam = christoffel(Point3(0.3, -0.8, 2.0), FLAT)
        assert np.abs(gam).max() == 0.0

    def test_symmetry(self):
        gam = christoffel(Point3(0.4, 0.2, 0.0), PSL)
        np.testing.assert_allclose(gam, np.swapaxes(gam, 1, 2), atol=1e-14)

    def test_killing_identity(self):
        # nabla_X dz = tau X x dz over random points and directions
        rng = np.random.RandomState(8)
        for params in (NIL, PSL):
            worst = 0.0
            for x, y, _ in random_points(params, 100, rng):
                gam = christoffel_components(x, y, params)
                worst = max(worst, _killing_residual_at(x, y, params, gam))
            assert worst < 1e-9

    def test_exact_vs_fd_metric_derivatives(self):
        rng = np.random.RandomState(9)
        for params in (NIL, PSL):
            for x, y, _ in random_points(params, 10, rng):
                exact = christoffel_components(x, y, params)
                fd = christoffel_fd(x, y, params)
                np.testing.assert_allclose(exact, fd, atol=1e-6)

    def test_metric_compatibility(self):
        # d_k g_ij = Gamma^l_ki g_lj + Gamma^l_kj g_il
        rng = np.random.RandomState(10)
        for params in (NIL, PSL):
            for x, y, _ in random_points(params, 20, rng):
                m = metric_at(Point3(x, y), params)
                g, dg = m.g, m.dg
                gam = christoffel_components(x, y, params)
                lhs = np.moveaxis(dg, -1, 0)  # [k, i, j]
                rhs = (np.einsum("lki,lj->kij", gam, g)
                       + np.einsum("lkj,il->kij", gam, g))
                assert np.abs(lhs - rhs).max() < 1e-8


class TestCurvature:
    def test_flat_scalar_zero(self):
        rep = curvature_report(Point3(0.4, 0.1, -1.0), FLAT)
        assert rep.scalar == 0.0
        assert np.abs(rep.ricci).max() == 0.0

    def test_homogeneity(self):
        # finite differences of the exact Christoffels at two points agree
        # with each other and with the closed form S = 2 kappa - 2 tau^2
        for params in (NIL, PSL):
            a = curvature_report_fd(Point3(0, 0, 0), params,
                                    christoffel_components).scalar
            b = curvature_report_fd(Point3(0.6, -0.3, 2.0), params,
                                    christoffel_components).scalar
            assert abs(a - b) < 1e-9
            assert abs(a - scalar_curvature(params)) < 1e-9

    def test_frozen_scalar_values(self):
        # fixed ahead of time with the all-finite-difference oracle
        assert scalar_curvature(NIL) == pytest.approx(-0.5, abs=1e-8)
        assert scalar_curvature(PSL) == pytest.approx(-2.5, abs=1e-8)
        assert scalar_curvature(SpaceParams(-1.0, 0.0)) == pytest.approx(-2.0, abs=1e-8)

    def test_exact_path_vs_fd_oracle(self):
        for params in (NIL, PSL, SpaceParams(-1.0, 0.0), SpaceParams(-4.0, 0.5)):
            p = Point3(0.25, -0.35, 0.7)
            a = curvature_report(p, params)
            b = curvature_report_fd(p, params)
            assert abs(a.scalar - b.scalar) < 1e-5
            np.testing.assert_allclose(a.ricci, b.ricci, atol=1e-5)

    def test_ricci_frame_diagonal(self):
        # Ric(E1) = Ric(E2) = kappa - 2 tau^2, Ric(E3) = 2 tau^2
        for params in (NIL, PSL):
            rep = curvature_report(Point3(0.3, 0.4, 0.0), params)
            want = [params.kappa - 2 * params.tau**2] * 2 + [2 * params.tau**2]
            np.testing.assert_allclose(rep.ricci_diag_frame, want, atol=1e-8)
            # the coordinate Ricci tensor is diagonal on the frame
            F = frame_matrix(0.3, 0.4, params)
            np.testing.assert_allclose(F.T @ rep.ricci @ F, np.diag(want),
                                       atol=1e-12)

    def test_report_killing_residual_small(self):
        rep = curvature_report(Point3(0.2, 0.1, 0.0), PSL)
        assert rep.killing_residual < 1e-12


class TestDerivedConstants:
    def test_critical_mean_curvature(self):
        assert critical_mean_curvature(FLAT) == 0.0
        assert critical_mean_curvature(SpaceParams(-4.0, 0.5)) == 1.0
        assert critical_mean_curvature(PSL) == 0.5
        with pytest.raises(UnsupportedSign):
            critical_mean_curvature(SpaceParams(2.0, 0.1))

    def test_sphere_exists(self):
        assert sphere_exists(1.0, NIL)
        assert not sphere_exists(1.0, SpaceParams(-4.0, 0.5))
        assert sphere_exists(1.01, SpaceParams(-4.0, 0.5))
        with pytest.raises(NonPositiveH):
            sphere_exists(0.0, NIL)

    def test_base_distance_flat_and_hyperbolic(self):
        assert base_distance((0, 0), (3, 4), NIL) == pytest.approx(5.0)
        # radial geodesic in the curvature -1 disk of radius 2
        r = 0.6
        assert base_distance((0, 0), (r, 0), PSL) == pytest.approx(
            2 * math.atanh(r / 2), rel=1e-12)
        # triangle inequality on a random triple
        a, b, c = (0.1, 0.2), (-0.4, 0.5), (0.3, -0.6)
        assert base_distance(a, c, PSL) <= base_distance(a, b, PSL) \
            + base_distance(b, c, PSL) + 1e-12
