"""Extrinsic geometry of graph jets through the kernel's array entry:
forms, angle function, potential."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ektau import model
from ektau.errors import ConfigInvalid, DegenerateMetric, OutOfDomain
from ektau.graph_geometry import (_forms, jacobi_potential_from,
                                  mean_curvature_arrays,
                                  mean_curvature_sensitivities)
from ektau.model import (Point3, SpaceParams, ambient_components,
                         curvature_report)

NIL = SpaceParams(0.0, 0.5)
PSL = SpaceParams(-1.0, 0.5)
H2R = SpaceParams(-1.0, 0.0)
FLAT = SpaceParams(0.0, 0.0)


def random_jet_arrays(rng, params, count, lim=0.8):
    """`count` random jets, each drawn as x, y, then f, fx, fy, fxx, fxy,
    fyy: the points x, y and the rows fx, fy, fxx, fxy, fyy (a graph's
    height f changes nothing here and is dropped)."""
    lim = min(lim, 0.45 * params.domain_radius) if params.kappa < 0 else lim
    x, y, _, *jet = np.array([np.r_[rng.uniform(-lim, lim, 2), rng.randn(6)]
                              for _ in range(count)]).T
    return x, y, np.array(jet)


def kernel(params, x, y, jet, orientation=-1):
    """`mean_curvature_arrays` at the points (x, y) for the jet rows fx, fy,
    fxx, fxy, fyy; a scalar point and a 5-entry jet make one point."""
    x, y = np.atleast_1d(x, y)
    jet = np.reshape(np.asarray(jet, dtype=float), (5, x.size))
    return mean_curvature_arrays(ambient_components(x, y, params), *jet,
                                 orientation)


class TestSections:
    def test_sections_are_minimal(self):
        rng = np.random.RandomState(11)
        for params in (NIL, PSL):
            x, y, _ = random_jet_arrays(rng, params, 200)
            d = kernel(params, x, y, np.zeros((5, 200)))
            assert np.abs(d["H"]).max() < 1e-10

    def test_section_angle_at_origin_downward(self):
        nu = kernel(NIL, 0.0, 0.0, np.zeros(5), orientation=-1)["nu"][0]
        assert nu == pytest.approx(-1.0)

    def test_section_angle_off_axis(self):
        # hand-solved 3x3 orthogonality system at (0, 1, 0), tau = 1/2:
        # the normal is not -dz because <dx, dz> = tau*lam*y there
        nu = kernel(NIL, 0.0, 1.0, np.zeros(5), -1)["nu"][0]
        assert nu == pytest.approx(-2.0 / math.sqrt(5.0), abs=1e-14)


class TestEuclideanReduction:
    def test_unit_sphere_south_pole(self):
        d = kernel(FLAT, 0.0, 0.0, (0, 0, 1.0, 0.0, 1.0), +1)
        assert d["H"][0] == pytest.approx(1.0)
        assert d["nu"][0] == pytest.approx(1.0)
        assert d["sigma_sq"][0] == pytest.approx(2.0)

    def test_tilted_plane(self):
        d = kernel(FLAT, 0.0, 0.0, (1.0, 0, 0, 0, 0), -1)
        assert d["H"][0] == pytest.approx(0.0, abs=1e-15)
        assert d["nu"][0] == pytest.approx(-1 / math.sqrt(2))

    def test_divergence_form_mean_curvature(self):
        rng = np.random.RandomState(12)
        x, y, jet = random_jet_arrays(rng, FLAT, 200, lim=2.0)
        fx, fy, fxx, fxy, fyy = jet
        W = np.sqrt(1 + fx**2 + fy**2)
        Hdiv = ((1 + fy**2) * fxx - 2 * fx * fy * fxy
                + (1 + fx**2) * fyy) / (2 * W**3)
        assert kernel(FLAT, x, y, jet, +1)["H"] == pytest.approx(Hdiv, abs=1e-10)


class TestAngleFunction:
    def test_bounded_by_one(self):
        rng = np.random.RandomState(13)
        for params in (NIL, PSL, FLAT):
            nu = kernel(params, *random_jet_arrays(rng, params, 150))["nu"]
            assert (nu**2 <= 1.0 + 1e-12).all()

    def test_never_zero(self):
        rng = np.random.RandomState(14)
        x, y, jet = random_jet_arrays(rng, NIL, 100)
        jet[:2] = [[50.0], [-80.0]]
        assert (kernel(NIL, x, y, jet)["nu"] != 0.0).all()


def potential(params, x, y, jet, orientation=-1):
    d = kernel(params, x, y, jet, orientation)
    return d, jacobi_potential_from(d["nu"], d["sigma_sq"], params)


class TestJacobiPotential:
    def test_flat_planar_zero(self):
        assert potential(FLAT, 0.2, 0.1, np.zeros(5))[1][0] == 0.0

    def test_vertical_limit_value(self):
        # as nu -> 0 in Nil (tau = 1/2) the potential tends to |sigma|^2 - 1/2
        d, q = potential(NIL, 0.0, 0.0, (1e8, 0.0, 0.3, 0.0, 0.1))
        assert q[0] == pytest.approx(d["sigma_sq"][0] - 0.5, abs=1e-6)

    def test_orientation_independent(self):
        rng = np.random.RandomState(15)
        jet = random_jet_arrays(rng, PSL, 1)
        qa = potential(PSL, *jet, +1)[1]
        qb = potential(PSL, *jet, -1)[1]
        assert qa == pytest.approx(qb, rel=1e-14)

    def test_matches_curvature_contraction(self):
        # |sigma|^2 + Ric(normal) computed tensorially equals the closed form
        rng = np.random.RandomState(16)
        for params in (NIL, PSL):
            x, y, jet = random_jet_arrays(rng, params, 60)
            d, q = potential(params, x, y, jet)
            for i, normal in enumerate(np.transpose(d["normal"])):
                ricci = curvature_report(Point3(x[i], y[i]), params).ricci
                assert q[i] == pytest.approx(
                    d["sigma_sq"][i] + normal @ ricci @ normal, abs=1e-6)


class TestOrientationFlip:
    def test_flip_negates_odd_quantities(self):
        rng = np.random.RandomState(17)
        for params in (NIL, PSL, FLAT):
            jets = random_jet_arrays(rng, params, 40)
            up = kernel(params, *jets, +1)
            dn = kernel(params, *jets, -1)
            assert up["H"] == pytest.approx(-dn["H"], rel=1e-12, abs=1e-13)
            assert up["nu"] == pytest.approx(-dn["nu"], rel=1e-12)
            for key in ("II11", "II12", "II22"):
                np.testing.assert_allclose(up[key], -dn[key], atol=1e-12)
            for key in ("I11", "I12", "I22"):
                np.testing.assert_allclose(up[key], dn[key])
            assert up["sigma_sq"] == pytest.approx(dn["sigma_sq"], rel=1e-12)


class TestShapeInvariants:
    def test_normal_is_unit(self):
        rng = np.random.RandomState(18)
        for params in (NIL, PSL):
            x, y, jet = random_jet_arrays(rng, params, 50)
            n = np.stack(kernel(params, x, y, jet)["normal"], axis=-1)
            g = model.metric_components(x, y, params)
            assert np.einsum("...i,...ij,...j->...", n, g, n) == pytest.approx(
                1.0, abs=1e-10)

    def test_sigma_sq_dominates_2H_sq(self):
        rng = np.random.RandomState(19)
        for params in (NIL, PSL, FLAT):
            d = kernel(params, *random_jet_arrays(rng, params, 100))
            assert (d["sigma_sq"] >= 2 * d["H"]**2 - 1e-9).all()

    def test_first_form_positive_definite(self):
        rng = np.random.RandomState(20)
        d = kernel(PSL, *random_jet_arrays(rng, PSL, 1))
        first = np.array([[d["I11"][0], d["I12"][0]], [d["I12"][0], d["I22"][0]]])
        assert np.linalg.eigvalsh(first).min() > 0


def einsum_reference(x, y, params, fx, fy, fxx, fxy, fyy, orientation):
    """The graph operator through second-kind Christoffels, kept as the
    oracle for the kernel's arithmetic: metric, `np.linalg.inv`,
    `model.christoffel_components` and `einsum` contractions over full
    3-vectors.  The ambient data it starts from is the kernel's own; the
    sympy derivation in `test_sympy_oracle.py` checks that."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    fx, fy, fxx, fxy, fyy = (np.asarray(v, dtype=float)
                             for v in (fx, fy, fxx, fxy, fyy))
    g = model.metric_components(x, y, params)
    g_inv = np.linalg.inv(g)
    gamma = model.christoffel_components(x, y, params)
    shape = np.broadcast(fx, x).shape
    T1, T2, w = (np.zeros(shape + (3,)) for _ in range(3))
    T1[..., 0], T1[..., 2] = 1.0, fx
    T2[..., 1], T2[..., 2] = 1.0, fy
    w[..., 0], w[..., 1], w[..., 2] = -fx, -fy, 1.0
    w *= float(orientation)
    I11 = np.einsum("...i,...ij,...j->...", T1, g, T1)
    I12 = np.einsum("...i,...ij,...j->...", T1, g, T2)
    I22 = np.einsum("...i,...ij,...j->...", T2, g, T2)
    g_inv_w = np.einsum("...ij,...j->...i", g_inv, w)
    nrm = np.sqrt(np.einsum("...i,...i->...", w, g_inv_w))

    def second(f_ab, a, b):
        acc = np.einsum("...kij,...i,...j->...k", gamma, a, b)
        acc[..., 2] += f_ab
        return np.einsum("...k,...k->...", acc, w) / nrm

    II11, II12, II22 = second(fxx, T1, T1), second(fxy, T1, T2), second(fyy, T2, T2)
    det_I = I11 * I22 - I12 * I12
    Iinv = np.array([[I22, -I12], [-I12, I11]]) / det_I
    S = np.einsum("ab...,bc...->ac...", Iinv, np.array([[II11, II12], [II12, II22]]))
    nu = float(orientation) / nrm
    return {
        "I11": I11, "I12": I12, "I22": I22, "II11": II11, "II12": II12,
        "II22": II22, "normal": g_inv_w / nrm[..., None], "nu": nu,
        "H": 0.5 * (S[0, 0] + S[1, 1]),
        "sigma_sq": S[0, 0] ** 2 + S[1, 1] ** 2 + 2.0 * S[0, 1] * S[1, 0],
        "fxx": 0.5 * nu * Iinv[0, 0], "fxy": nu * Iinv[0, 1],
        "fyy": 0.5 * nu * Iinv[1, 1],
    }


def random_jets(rng, params, count):
    lim = min(0.8, 0.45 * params.domain_radius)
    x, y = rng.uniform(-lim, lim, (2, count))
    return x, y, rng.randn(5, count)


def _rel(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


class TestEinsumOracle:
    def test_pinned_to_einsum_reference(self):
        # the explicit-component kernel against the einsum contraction, on
        # arrays and on floats, both orientations, four spaces
        rng = np.random.RandomState(21)
        for params in (NIL, PSL, H2R, FLAT):
            x, y, jets = random_jets(rng, params, 300)
            amb = ambient_components(x, y, params)
            for ori in (+1, -1):
                ref = einsum_reference(x, y, params, *jets, ori)
                d = mean_curvature_arrays(amb, *jets, ori)
                dH = mean_curvature_sensitivities(amb, d, ori)
                assert _rel(np.stack(d["normal"], axis=-1),
                            ref["normal"]) <= 1e-13
                for key in ("I11", "I12", "I22", "II11", "II12", "II22",
                            "nu", "H", "sigma_sq"):
                    assert _rel(d[key], ref[key]) <= 1e-13, key
                for key in ("fxx", "fxy", "fyy"):
                    assert _rel(dH[key], ref[key]) <= 1e-13, key
                for i in range(0, 300, 37):
                    f = _forms(ambient_components(x[i], y[i], params),
                               *(float(v) for v in jets[:, i]), ori)
                    for key in ("H", "nu", "sigma_sq", "II11", "II12", "II22"):
                        assert _rel(f[key], ref[key][i]) <= 1e-13, key
                    assert _rel(f["normal"], ref["normal"][i]) <= 1e-13

    @settings(max_examples=200, deadline=None)
    @given(space=st.sampled_from([NIL, PSL, H2R, FLAT]),
           xy=st.tuples(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9)),
           jet=st.tuples(*[st.floats(-50, 50)] * 5),
           orientation=st.sampled_from([-1, 1]))
    def test_float_call_bit_identical_to_arrays(self, space, xy, jet, orientation):
        # the ODE's float path returns Python floats, equal bit for bit to
        # the same jet evaluated as 1-element arrays
        f = _forms(ambient_components(*xy, space), *jet, orientation)
        a = _forms(ambient_components(*(np.array([v]) for v in xy), space),
                   *(np.array([v]) for v in jet), orientation)
        for key in ("I11", "I12", "I22", "det_I", "II11", "II12", "II22",
                    "Iinv11", "Iinv12", "Iinv22", "nu", "H", "sigma_sq"):
            assert type(f[key]) is float, key
            assert f[key] == a[key][0], key
        for fv, av in zip(f["normal"], a["normal"]):
            assert type(fv) is float and fv == av[0]


class TestErrorPaths:
    def test_out_of_domain_float_point(self):
        with pytest.raises(OutOfDomain):
            ambient_components(2.5, 0.0, PSL)

    def test_out_of_domain_array_point(self):
        with pytest.raises(OutOfDomain):
            ambient_components(np.array([0.1, 2.5]), np.array([0.0, 0.0]), PSL)

    # on x = 0 with fy = 0, I12 = 0 and fx = 1e200 overflows det I to +inf
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200])
    def test_degenerate_metric_float_jet(self, bad):
        with pytest.raises(DegenerateMetric):
            _forms(ambient_components(0.0, 0.1, NIL), bad, 0.0, 0.0, 0.0, 0.0, -1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200])
    def test_degenerate_metric_array_jet(self, bad):
        amb = ambient_components(np.array([0.2, 0.0]), np.array([0.1, 0.3]), PSL)
        jet = [np.array([0.5, bad])] + [np.zeros(2)] * 4
        with pytest.raises(DegenerateMetric):
            mean_curvature_arrays(amb, *jet)

    @pytest.mark.parametrize("entry", ["float_forms", "mean_curvature_arrays"])
    @pytest.mark.parametrize("orientation", [0, 2, True, 1.0, "1", None])
    def test_bad_orientation_rejected(self, entry, orientation):
        # the solver's rule: the int +1 or -1, where True would run as +1;
        # the kernel's float path (the ODE oracle's) keeps it too
        jet = (0.3, -0.2, 0.5, 0.1, -0.4)
        with pytest.raises(ConfigInvalid,
                           match="orientation must be the integer"):
            if entry == "float_forms":
                _forms(ambient_components(0.2, 0.1, NIL), *jet, orientation)
            else:
                kernel(NIL, 0.2, 0.1, jet, orientation)
