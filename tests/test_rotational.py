"""Rotational profiles, hemisphere heights, cylinder base curves."""

import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from ektau.errors import ConfigInvalid, IoFailure, NoSphere, UnsupportedSign
from ektau.graph_geometry import _forms
from ektau.model import SpaceParams, ambient_components, conformal_factor_jet
from ektau.rotational import (EQUATOR_NU, PROFILE_PANELS, _equator_angle,
                              cap_heights, cmc_cylinder_curve,
                              hemisphere_height, shoot_rotational_graph)
from ode_shoot import _series_quartic, shoot

NIL = SpaceParams(0.0, 0.5)
PSL = SpaceParams(-1.0, 0.5)
H2R = SpaceParams(-1.0, 0.0)
FLAT = SpaceParams(0.0, 0.0)
SPACES = {"nil": NIL, "psl": PSL, "h2r": H2R, "flat": FLAT}

# hemisphere heights at H = 1, frozen from the ODE shoot of tests/ode_shoot.py
# at two step sizes agreeing to 1e-6; the closed form is within 4e-8 of both
NIL_HEMI_H1 = 1.0795583
PSL_HEMI_H1 = 1.3089867
# PSL at H = 0.5001, just above the critical 1/2: within 7e-15 relative of
# a 40-digit mpmath evaluation of the height integral, 218.596605151918051
PSL_HEMI_NEAR_CRITICAL = 218.5966051519166


def circle_geodesic_curvature(r_model: float, params: SpaceParams) -> float:
    """Geodesic curvature of the origin-centered base circle of model radius r.

    Generic curve-curvature evaluation in the conformal base metric
    lam^2 (dx^2 + dy^2): acceleration through the 2D Christoffels, projected
    orthogonally to the tangent.  Evaluated at (r, 0) by symmetry.  This is
    the numeric oracle for the closed form k_g = 1/r - kappa r/4.
    """
    lam, lam_x, lam_y = conformal_factor_jet(r_model, 0.0, params)
    lam = float(lam); lam_x = float(lam_x); lam_y = float(lam_y)
    # c(t) = (r cos t, r sin t) at t=0: c' = (0, r), c'' = (-r, 0)
    cp = np.array([0.0, r_model])
    cpp = np.array([-r_model, 0.0])
    dln = np.array([lam_x / lam, lam_y / lam])
    # conformal Christoffels: G^k_ij = d_i ln(lam) delta_kj + d_j ln(lam) delta_ki
    #                                  - d_k ln(lam) delta_ij
    acc = cpp.copy()
    for k in range(2):
        s = 0.0
        for i in range(2):
            for j in range(2):
                gam = (dln[j] if k == i else 0.0) + (dln[i] if k == j else 0.0) \
                    - (dln[k] if i == j else 0.0)
                s += gam * cp[i] * cp[j]
        acc[k] += s
    g = lam * lam * np.eye(2)
    speed2 = cp @ g @ cp
    T = cp / math.sqrt(speed2)
    a_perp = acc - (acc @ g @ T) * T
    return float(math.sqrt(a_perp @ g @ a_perp) / speed2)


class TestSeriesStart:
    def test_quartic_matches_flat_expansion(self):
        # flat profile 1/H - sqrt(1/H^2 - r^2) = H r^2/2 + H^3 r^4/8 + ...
        for H in (0.5, 1.0, 2.0):
            a4 = _series_quartic(H, FLAT, 0.02 / H)
            assert a4 == pytest.approx(H**3 / 8.0, rel=5e-3)


class TestShooting:
    def test_flat_profile_is_circle_arc(self):
        prof = shoot_rotational_graph(1.0, FLAT)
        r, f = prof.samples[:, 0], prof.samples[:, 1]
        m = r < 0.999
        np.testing.assert_allclose(f[m], 1 - np.sqrt(1 - r[m] ** 2), atol=1e-13)

    def test_equator_termination(self):
        for params in (FLAT, NIL, PSL):
            prof = shoot_rotational_graph(1.0, params)
            assert prof.nu[-1] == pytest.approx(EQUATOR_NU, rel=1e-8)
            assert prof.samples[-1, 0] < 1.0  # the equator is at r = 1/H
            assert abs(prof.samples[-1, 2]) > 1e4  # f' diverges exactly there

    def test_samples_strictly_increasing_and_regular_at_pole(self):
        prof = shoot_rotational_graph(0.8, NIL)
        r = prof.samples[:, 0]
        assert np.all(np.diff(r) > 0)
        assert prof.samples[0, 0] == 0.0
        assert prof.samples[0, 2] == 0.0  # f'(0) = 0

    def test_defining_equation_along_profile(self):
        # the closed-form slope solves the graph equation: with f'' from
        # d log f'/dr, the graph kernel gives H(jet) = H_target; the equator
        # samples are skipped, where 1 - H^2 r^2 cancels to a few digits
        for params in SPACES.values():
            H, k, t = 1.3, params.kappa, params.tau
            prof = shoot_rotational_graph(H, params)
            for (r, _, p), nu in zip(prof.samples[1:], prof.nu[1:]):
                if nu < 1e-3:
                    continue
                r, p = float(r), float(p)
                fpp = p * (1 / r - 2 * k * r / (4 + k * r * r)
                           + t * t * r / (1 + t * t * r * r)
                           + H * H * r / (1 - H * H * r * r))
                d = _forms(ambient_components(r, 0.0, params), p, 0.0, fpp,
                           0.0, p / r, +1)
                assert d["H"] == pytest.approx(H, rel=1e-10)

    @pytest.mark.parametrize("space", sorted(SPACES))
    def test_nu_column_matches_graph_kernel(self, space):
        params = SPACES[space]
        for H in (0.5001, 0.8, 1.0, 4.0):
            prof = shoot_rotational_graph(H, params)
            for (r, _, p), nu in zip(prof.samples, prof.nu):
                d = _forms(ambient_components(float(r), 0.0, params), float(p),
                           0.0, 0.0, 0.0, 0.0, +1)
                assert d["nu"] == pytest.approx(nu, rel=1e-12)

    def test_profile_height_is_hemisphere_height(self):
        # the last sample is the cut t* = 1/EQUATOR_NU for both functions
        for params in SPACES.values():
            for H in (0.5001, 0.6, 1.0, 5.0):
                prof = shoot_rotational_graph(H, params)
                assert prof.samples[-1, 1] == prof.hemisphere_height
                assert prof.hemisphere_height == hemisphere_height(H, params)

    def test_no_sphere_raises(self):
        with pytest.raises(NoSphere):
            shoot_rotational_graph(0.49, PSL)
        with pytest.raises(NoSphere):
            shoot_rotational_graph(1.0, SpaceParams(-4.0, 0.5))

    def test_kappa_positive_rejected(self):
        with pytest.raises(UnsupportedSign):
            shoot_rotational_graph(1.0, SpaceParams(2.0, 0.1))

    def test_columnar_serialization(self, tmp_path):
        prof = shoot_rotational_graph(1.0, FLAT)
        path = tmp_path / "profile.dat"
        prof.to_columnar(path)
        data = np.loadtxt(path)
        assert data.shape == (len(prof.samples), 4)
        np.testing.assert_allclose(data[:, :3], prof.samples)
        np.testing.assert_allclose(data[:, 3], prof.nu)

    def test_columnar_to_unwritable_path_is_io_failure(self, tmp_path):
        path = tmp_path / "missing" / "profile.dat"
        with pytest.raises(IoFailure, match="cannot write %s" % path):
            shoot_rotational_graph(1.0, FLAT).to_columnar(path)
        assert not (tmp_path / "missing").exists()


class TestHemisphereHeight:
    def test_flat_one_over_H(self):
        for H in (0.5, 1.0, 2.0):
            assert hemisphere_height(H, FLAT) == pytest.approx(1.0 / H, abs=1e-4)

    def test_flat_exact_at_the_cut(self):
        # a round sphere of radius 1/H, cut where nu = cos(theta*) = EQUATOR_NU
        for H in (0.5, 1.0, 2.0, 7.3):
            assert hemisphere_height(H, FLAT) == pytest.approx(
                (1.0 - EQUATOR_NU) / H, rel=1e-14)

    @pytest.mark.parametrize("space", sorted(SPACES))
    @pytest.mark.parametrize("H", [0.6, 1.0, 2.0, 5.0, 10.0])
    def test_pinned_to_ode_oracle(self, space, H):
        params = SPACES[space]
        prof = shoot(H, params)
        assert prof.termination == "equator"
        assert hemisphere_height(H, params) == pytest.approx(
            prof.hemisphere_height, rel=1e-7)

    def test_nil_frozen_value_and_refinement(self):
        coarse = shoot(1.0, NIL, step=0.002)
        fine = shoot(1.0, NIL, step=0.001)
        assert abs(coarse.hemisphere_height - fine.hemisphere_height) < 1e-6
        assert hemisphere_height(1.0, NIL) == pytest.approx(NIL_HEMI_H1, abs=1e-5)

    def test_psl_frozen_value(self):
        assert hemisphere_height(1.0, PSL) == pytest.approx(PSL_HEMI_H1, abs=1e-5)

    def test_psl_near_critical(self):
        # the ODE shoot stops at its step limit here, although the sphere
        # exists (4H^2 + kappa = 4e-4 > 0)
        assert hemisphere_height(0.5001, PSL) == pytest.approx(
            PSL_HEMI_NEAR_CRITICAL, rel=1e-12)

    def test_decreasing_in_H(self):
        hs = [hemisphere_height(H, NIL) for H in (0.6, 1.0, 2.0, 5.0, 10.0)]
        assert all(a > b for a, b in zip(hs, hs[1:]))

    def test_height_decay_below_critical_fails(self):
        with pytest.raises(NoSphere):
            hemisphere_height(0.49, PSL)

    @pytest.mark.parametrize("H", [math.nan, math.inf, -math.inf, 0.0])
    def test_bad_H_rejected_at_entry(self, H):
        with pytest.raises(ValueError, match="finite H > 0"):
            hemisphere_height(H, NIL)

    # the floor is relative: H more than 2^511 below tau, where the
    # normalized H^2 is no longer a normal float
    @pytest.mark.parametrize("H", [1e-61, 1e-200])
    def test_H_below_the_floor_rejected(self, H):
        with pytest.raises(ConfigInvalid, match=re.escape(
                "hemisphere height needs H >= 2^-511 max(tau, sqrt(-kappa)), "
                "got %r" % H)):
            hemisphere_height(H, SpaceParams(0.0, 1e100))

    def test_no_sphere_below_the_floor_stays_no_sphere(self):
        with pytest.raises(NoSphere):
            hemisphere_height(1e-100, PSL)

    def test_exact_at_the_floor(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flat = hemisphere_height(1e-60, FLAT)
            prof = shoot_rotational_graph(1e-60, FLAT)
            nil = hemisphere_height(1e-60, NIL)
        assert flat == pytest.approx((1.0 - EQUATOR_NU) / 1e-60, rel=1e-14)
        assert prof.hemisphere_height == flat
        assert np.isfinite(prof.samples).all()
        # H t << tau up to the cut: the integrand is H t^2 / tau^2 to 1e-100
        t = 1.0 / EQUATOR_NU
        assert nil == pytest.approx(1e-60 * (t**3 - 1) / (3 * 0.25), rel=1e-14)

    @pytest.mark.parametrize("H", [1e-61, 1e-200, 1e-300, 1e100, 1e300])
    def test_flat_sphere_at_any_scale(self, H):
        # the range [1e-60, 1e60] is gone: flat space has no scale but H
        prof = shoot_rotational_graph(H, FLAT)
        assert prof.hemisphere_height == hemisphere_height(H, FLAT)
        assert prof.hemisphere_height == pytest.approx(
            (1.0 - EQUATOR_NU) / H, rel=1e-14, abs=0.0)
        assert prof.samples[-1, 0] == pytest.approx(
            math.sqrt(1.0 - EQUATOR_NU ** 2) / H, rel=1e-14, abs=0.0)

    # each raised ZeroDivisionError, returned 0.0, inf or NaN, or drifted
    # by 7% before the closed forms were evaluated in `model.unit_scale`
    @pytest.mark.parametrize("H, kappa, tau", [
        (1e-20, 0.0, 1e-150), (1e20, -1.0, 1e100), (1e3, -1.0, 1e80),
        (1e100, 0.0, 0.5), (1e300, 0.0, 0.5)])
    def test_extreme_scale_ratios_match_mpmath(self, H, kappa, tau):
        params = SpaceParams(kappa, tau)
        assert_match([hemisphere_height(H, params)],
                     mpmath_heights(H, params, [1.0 / EQUATOR_NU]))

    @pytest.mark.parametrize("H, kappa", [
        (1000.0, -1e-300), (1e20, -1e-300),
        (5.945295452681629e46, -4.507274165404363e-223)])
    def test_tiny_kappa_against_H_has_the_flat_limit(self, H, kappa):
        # 1 / -kappa overflowed before the factor D = -kappa cancelled it
        assert hemisphere_height(H, SpaceParams(kappa, 0.0)) == pytest.approx(
            (1.0 - EQUATOR_NU) / H, rel=1e-14, abs=0.0)


def mpmath_heights(H: float, params: SpaceParams, ts) -> list:
    """Heights from the pole to each t = 1/nu of the increasing ts at 40
    digits: mpmath's integration of the rational integrand in t, split at
    each decade of t and at each t.  The integrand is divided by its value
    at t = 1, as quad's tolerance is absolute and would pass a tiny height
    after one level of the rule."""
    with mpmath.workdps(40):
        H, k, tau = (mpmath.mpf(v) for v in (H, params.kappa, params.tau))
        C, D = 4 * H * H + k, 4 * tau * tau - k
        ts = [mpmath.mpf(t) for t in ts]
        ends = sorted(set([mpmath.mpf(1)] + ts + [
            mpmath.mpf(10) ** j for j in range(1, 7) if 10 ** j < ts[-1]]))

        def dh(u):
            return (4 * H * (H * H + tau * tau) * u * u
                    / ((H * H * u * u + tau * tau) * (C * u * u + D)))

        cum = [mpmath.mpf(0)]
        for a, b in zip(ends, ends[1:]):
            cum.append(cum[-1] + mpmath.quad(lambda u: dh(u) / dh(1), [a, b]))
        return [dh(1) * cum[ends.index(t)] for t in ts]


def assert_match(got, refs):
    for g, ref in zip(got, refs):
        assert abs(g - ref) <= 1e-13 * ref, (g, ref)


class TestClosedForm:
    """The closed-form heights against an independent 40-digit oracle."""

    @pytest.mark.parametrize("kappa", [0.0, -1e-8, -1e-4, -1.0, -4.0])
    def test_heights_match_mpmath_oracle(self, kappa):
        # kappa -> 0^- and tau -> 0 cancel in the partial fractions; next to
        # the critical H = sqrt(-kappa)/2, 4H^2 + kappa cancels
        low = math.sqrt(-kappa) / 2 * (1 + 1e-9) if kappa else 1e-3
        for tau in (0.0, 1e-8, 0.5, 2.0):
            params = SpaceParams(kappa, tau)
            for H in (low, 1.3, 1000.0):
                # the profile at theta, where t = sqrt(1 + tau^2 r^2) / cos
                prof = shoot_rotational_graph(H, params)
                theta = np.linspace(0.0, _equator_angle(H, params),
                                    PROFILE_PANELS + 1)
                picks = (1, 64, PROFILE_PANELS - 1)
                with mpmath.workdps(40):
                    th = [mpmath.mpf(theta[i]) for i in picks]
                    ts = [mpmath.sqrt(1 + (tau * mpmath.sin(x) / H) ** 2)
                          / mpmath.cos(x) for x in th]
                assert_match([prof.samples[i, 1] for i in picks]
                             + [hemisphere_height(H, params)],
                             mpmath_heights(H, params, ts + [1.0 / EQUATOR_NU]))

    @pytest.mark.parametrize("kappa, H", [(-1.0, 0.5 * (1 + 1e-6)),
                                          (-1.0, 0.5 * (1 + 1e-7)),
                                          (-4.0, 1.0 + 1e-7)])
    def test_near_critical_without_warnings(self, kappa, H):
        params = SpaceParams(kappa, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = hemisphere_height(H, params)
            prof = shoot_rotational_graph(H, params)
        assert prof.hemisphere_height == h
        assert_match([h], mpmath_heights(H, params, [1.0 / EQUATOR_NU]))

    def test_heights_leave_scipy_integrate_unimported(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        code = ("import sys\n"
                "from ektau import SpaceParams, hemisphere_height, "
                "shoot_rotational_graph\n"
                "hemisphere_height(0.8, SpaceParams(-1.0, 0.5))\n"
                "shoot_rotational_graph(0.8, SpaceParams(-1.0, 0.5))\n"
                "print('scipy.integrate' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


class TestCapHeights:
    """The sampled cap int_r^R f'(s) ds that seeds cold Dirichlet solves."""

    @pytest.mark.parametrize("H, R", [(1.0, 0.5), (0.8, 1.0), (2.0, 0.45),
                                      (0.999, 1.0)])
    def test_flat_is_the_spherical_cap(self, H, R):
        # sqrt(1/H^2 - r^2) - sqrt(1/H^2 - R^2), written without cancellation
        r = np.linspace(0.0, R, 33)
        exact = (R - r) * (R + r) / (np.sqrt(1 / H**2 - r**2)
                                     + np.sqrt(1 / H**2 - R**2))
        np.testing.assert_allclose(cap_heights(r, R, H, FLAT), exact,
                                   rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("space", ["nil", "psl", "h2r"])
    @pytest.mark.parametrize("H", [0.6, 0.8, 1.0])
    def test_matches_ode_oracle(self, space, H):
        # the cap from R = r_j down to the shoot's own samples r_i < r_j is
        # f(r_j) - f(r_i) of the independent ODE profile
        params = SPACES[space]
        prof = shoot(H, params)
        r, f = prof.samples[:, 0], prof.samples[:, 1]
        j = int(np.searchsorted(r, 0.95 / H))
        np.testing.assert_allclose(cap_heights(r[:j], r[j], H, params),
                                   f[j] - f[:j], rtol=1e-7, atol=0.0)


class TestCylinderCurves:
    def test_flat_circle(self):
        c = cmc_cylinder_curve(1.0, FLAT)
        assert c.closed and c.radius == pytest.approx(0.5)
        assert c.geodesic_curvature == 2.0

    def test_closedness_matches_sphere_condition(self):
        c = cmc_cylinder_curve(1.0, SpaceParams(-4.0, 0.5))
        assert not c.closed and math.isnan(c.radius)
        c = cmc_cylinder_curve(1.01, SpaceParams(-4.0, 0.5))
        assert c.closed

    @pytest.mark.parametrize("H", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_H(self, H):
        with pytest.raises(ValueError, match="finite"):
            cmc_cylinder_curve(H, NIL)

    def test_tiny_H(self):
        # (2H)^2 underflows to 0 at H = 1e-170 and loses digits at 1e-160;
        # closure and radius must not square H
        c = cmc_cylinder_curve(1e-170, SpaceParams(0.0, 0.5))
        assert c.closed and c.model_radius == pytest.approx(5e169, rel=1e-15)
        c = cmc_cylinder_curve(1e-160, SpaceParams(0.0, 0.5))
        assert c.model_radius == pytest.approx(5e159, rel=1e-15)
        assert c.radius == c.model_radius

    def test_hyperbolic_radius_against_closed_form(self):
        # geodesic circles of curvature k_g in curvature kappa = -a^2 have
        # k_g = a coth(a rho): rho = artanh(a / k_g) / a
        for H in (0.75, 1.0, 1.5):
            c = cmc_cylinder_curve(H, PSL)
            assert c.radius == pytest.approx(math.atanh(1.0 / (2 * H)), rel=1e-10)

    def test_numeric_curvature_evaluation(self):
        # the closed-form radius, checked by a numeric curvature evaluation
        for kappa, H in ((-1.0, 1.0), (-1.0, 0.51), (-1.0, 3.0), (-4.0, 1.01),
                         (-4.0, 2.5), (-0.25, 0.3), (-9.0, 1.6)):
            params = SpaceParams(kappa, 0.5)
            c = cmc_cylinder_curve(H, params)
            assert c.closed
            assert circle_geodesic_curvature(c.model_radius, params) == \
                pytest.approx(2.0 * H, rel=1e-12)
