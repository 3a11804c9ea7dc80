"""Dirichlet solver: oracles, invariants, continuation, serialization."""

import json
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from ektau import graph_geometry, solver
from ektau.errors import (ConfigInvalid, DegenerateMetric, IoFailure,
                          NonConvergence, OutOfDomain, VerticalBlowup)
from ektau.graph_geometry import (mean_curvature_arrays,
                                  mean_curvature_sensitivities)
from ektau.model import DOMAIN_MARGIN, SpaceParams, base_distance
from ektau.solver import (DomainGrid, GraphSolution, continuation_in_H,
                          disk_grid, graph_height, rectangle_grid,
                          sigma_profile, solve_dirichlet)

NIL = SpaceParams(0.0, 0.5)
PSL = SpaceParams(-1.0, 0.5)
H2R = SpaceParams(-1.0, 0.0)
FLAT = SpaceParams(0.0, 0.0)
NIL_TAU2 = SpaceParams(0.0, 2.0)
JETS = ("fx", "fy", "fxx", "fxy", "fyy")

CAP_ORACLE = 1.0 - math.sqrt(1.0 - 0.25)  # 1/H - sqrt(1/H^2 - R^2), H=1, R=1/2

# Dirichlet solve in Nil (tau=1/2) on the unit disk at H=0.8, frozen by
# Richardson extrapolation over n in {32, 64, 128} and cross-checked against
# the rotational profile through r=1 (0.5325537)
NIL_DISK_H08 = 0.53240


class TestGrids:
    def test_minimum_size(self):
        with pytest.raises(ConfigInvalid):
            disk_grid(0.5, 7, FLAT)

    def test_disk_mask_inside_model_domain(self):
        with pytest.raises(OutOfDomain):
            disk_grid(2.5, 24, PSL)
        # every interior node inside 4 + kappa r^2 > 0, the farthest at
        # radius 2 - 1e-10: within DOMAIN_MARGIN of the edge of the PSL disk
        center = (1.6093134831976523, 0.0)
        g = disk_grid(0.5, 9, NIL, center=center)
        r = np.hypot(g.X[g.interior], g.Y[g.interior])
        assert 2.0 - DOMAIN_MARGIN < r.max() < 2.0
        with pytest.raises(OutOfDomain, match="leaves the model domain"):
            disk_grid(0.5, 9, PSL, center=center)

    def test_ghosts_touch_interior(self):
        g = disk_grid(0.7, 24, NIL)
        gi, gj = np.nonzero(g.ghost)
        for i, j in zip(gi, gj):
            neigh = g.interior[max(0, i - 1):i + 2, max(0, j - 1):j + 2]
            assert neigh.any()

    def test_ghost_weights_match_per_node_reference(self):
        # the closure's ghost rows against a per-ghost transcription of the
        # extrapolation rule in plain Python floats; the closure holds
        # boundary value zero, and the weights reproduce constants, so the
        # reference's boundary weight is what the node weights leave of 1
        for g in (disk_grid(0.7, 33, PSL, center=(0.05, -0.02)),
                  disk_grid(0.45, 20, FLAT, center=(-0.1, 0.07))):
            A = g.closure_A.tocsr()
            for i, j in zip(*np.nonzero(g.ghost)):
                bv, nodes = _ghost_reference(g, i, j)
                row = i * g.n + j
                got = dict(zip(A.indices[A.indptr[row]:A.indptr[row + 1]],
                               A.data[A.indptr[row]:A.indptr[row + 1]]))
                want = {g.idx[ni, nj]: w for (ni, nj), w in nodes}
                assert got.keys() == want.keys()
                for k, w in want.items():
                    assert got[k] == pytest.approx(w, rel=1e-13, abs=1e-15)
                assert 1.0 - sum(got.values()) == pytest.approx(bv, rel=1e-13)

    @pytest.mark.parametrize("make", [
        lambda: disk_grid(math.nan, 16, FLAT),
        lambda: disk_grid(math.inf, 16, FLAT),
        lambda: disk_grid(0.5, 16, FLAT, center=(math.nan, 0.0)),
        lambda: disk_grid(0.5, 16, FLAT, center=(0.0, -math.inf)),
        lambda: rectangle_grid((0.5, math.nan), 16, FLAT),
        lambda: rectangle_grid((math.inf, 0.5), 16, FLAT),
        lambda: rectangle_grid((0.5, 0.5), 16, FLAT, center=(math.nan, 0.0))])
    def test_non_finite_geometry_rejected(self, make):
        with pytest.raises(ConfigInvalid, match="finite"):
            make()

    def test_empty_interior_rejected(self):
        # the squared node distances and radius underflow to zero
        with pytest.raises(ConfigInvalid, match="no interior nodes"):
            disk_grid(1e-300, 16, FLAT)

    @pytest.mark.parametrize("center", [(1e17, 0.0), (0.0, -1e17), (1e16, 0.0)])
    def test_vanishing_spacing_rejected(self, center):
        # the nodes round onto the center (or onto a few of its neighbouring
        # floats), so some lattice steps are zero
        with pytest.raises(ConfigInvalid, match="lattice spacing"):
            disk_grid(1.0, 16, FLAT, center=center)

    def test_non_uniform_spacing_rejected(self):
        # rounded against the center, the x-steps are 0.03125 and 0.046875,
        # while the stencils assume one hx
        with pytest.raises(ConfigInvalid, match="not uniform"):
            disk_grid(0.5, 24, FLAT, center=(1e14, 0.0))

    def test_overflowing_stencil_weights_rejected_quietly(self):
        # hx ~ 1.3e-161 squares to a finite subnormal, but 1 / hx^2 overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigInvalid, match="stencil weights"):
                disk_grid(1e-160, 16, FLAT)

    @pytest.mark.parametrize("extents", [(1e308, 1.0), (1e300, 1.0),
                                         (1.0, 1e300)])
    def test_overflowing_extents_rejected_quietly(self, extents):
        # 1e308: the span overflows inside linspace; 1e300: the step is
        # finite but its square, which the stencils divide by, is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigInvalid, match="overflow"):
                rectangle_grid(extents, 16, FLAT)

    def test_descriptor_roundtrip(self):
        g = disk_grid(0.7, 24, NIL, center=(0.1, -0.2))
        g2 = DomainGrid.from_descriptor(g.descriptor(), NIL)
        assert g2.shape == "disk" and g2.n == 24 and g2.radius == 0.7
        r = rectangle_grid((0.4, 0.3), 16, FLAT)
        r2 = DomainGrid.from_descriptor(r.descriptor(), FLAT)
        assert r2.extents == (0.4, 0.3)

    @pytest.mark.parametrize("extents, n, center", [
        ((0.4, 0.3), 16, (0.1, -0.2)), ((0.6, 0.5), 24, (0.0, 0.0))])
    def test_hyperbolic_rectangle_boundary_distance(self, extents, n, center):
        # kappa < 0: the grid samples the edges, so its distance lies just
        # above the geodesic distance to the boundary, minimized per edge
        g = rectangle_grid(extents, n, PSL, center=center)
        (cx, cy), (ex, ey) = center, extents
        edges = [((cx - ex, cx + ex), lambda t: (t, cy - ey)),
                 ((cx - ex, cx + ex), lambda t: (t, cy + ey)),
                 ((cy - ey, cy + ey), lambda t: (cx - ex, t)),
                 ((cy - ey, cy + ey), lambda t: (cx + ex, t))]
        got = g.boundary_distance()
        for (i, j), d in zip(g.interior_ij, got):
            p = (g.xs[i], g.ys[j])
            oracle = math.inf
            for bounds, point in edges:
                dist = lambda t: float(base_distance(p, point(t), PSL))
                best = minimize_scalar(dist, bounds=bounds, method="bounded",
                                       options={"xatol": 1e-12})
                oracle = min(oracle, best.fun, *(dist(t) for t in bounds))
            assert oracle - 1e-9 <= d <= 1.01 * oracle


def _ghost_reference(g, i, j):
    """(boundary weight, [((i, j), weight), ...]) of ghost (i, j)."""
    cx, cy = g.center
    best = None
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1),
                   (1, 1), (1, -1), (-1, 1), (-1, -1)):
        i1, j1 = i + di, j + dj
        if not (0 <= i1 < g.n and 0 <= j1 < g.n) or not g.interior[i1, j1]:
            continue
        dx, dy = g.xs[i1] - g.xs[i], g.ys[j1] - g.ys[j]
        ex, ey = g.xs[i] - cx, g.ys[j] - cy
        a = dx * dx + dy * dy
        b = 2.0 * (dx * ex + dy * ey)
        c = ex * ex + ey * ey - g.radius ** 2
        disc = b * b - 4.0 * a * c
        if disc < 0:
            continue
        for s in ((-b - math.sqrt(disc)) / (2 * a),
                  (-b + math.sqrt(disc)) / (2 * a)):
            if -1e-12 <= s <= 1.0 + 1e-12:
                s = min(max(s, 0.0), 1.0)
                if best is None or s < best[0]:
                    best = (s, di, dj)
                break
    if best is None:
        return 1.0, []
    s, di, dj = best
    n1, n2 = (i + di, j + dj), (i + 2 * di, j + 2 * dj)
    if not (0 <= n2[0] < g.n and 0 <= n2[1] < g.n and g.interior[n2]):
        s = min(s, 0.8)
        return 1.0 / (1.0 - s), [(n1, -s / (1.0 - s))]
    if s > 0.8:
        return 2.0 / (2.0 - s), [(n2, -s / (2.0 - s))]
    return (2.0 / ((1.0 - s) * (2.0 - s)),
            [(n1, -2.0 * s / (1.0 - s)), (n2, s / (2.0 - s))])


def _lattice_jets(g, f):
    full = f(g.X, g.Y).ravel()
    jets = solver._jet_stencils(g) @ full
    return dict(zip(JETS, jets.reshape(len(JETS), -1)))


class TestStencilExactness:
    @settings(max_examples=25, deadline=None)
    @given(cx=st.floats(-0.5, 0.5), cy=st.floats(-0.5, 0.5),
           radius=st.floats(0.2, 1.2), n=st.integers(8, 48),
           coef=st.tuples(*[st.floats(-3, 3)] * 3))
    def test_disk_lattice_reproduces_affine(self, cx, cy, radius, n, coef):
        a, b, c = coef
        g = disk_grid(radius, n, NIL, center=(cx, cy))
        j = _lattice_jets(g, lambda x, y: a + b * x + c * y)
        scale = 1.0 + abs(a) + abs(b) + abs(c)
        np.testing.assert_allclose(j["fx"], b, atol=1e-12 * scale / g.hx)
        np.testing.assert_allclose(j["fy"], c, atol=1e-12 * scale / g.hy)
        for k in ("fxx", "fxy", "fyy"):
            np.testing.assert_allclose(j[k], 0.0,
                                       atol=1e-12 * scale / (g.hx * g.hy))

    @settings(max_examples=25, deadline=None)
    @given(cx=st.floats(-0.5, 0.5), cy=st.floats(-0.5, 0.5),
           ext=st.tuples(st.floats(0.2, 1.0), st.floats(0.2, 1.0)),
           n=st.integers(8, 48), coef=st.tuples(*[st.floats(-3, 3)] * 5))
    def test_rectangle_lattice_reproduces_quadratics(self, cx, cy, ext, n,
                                                     coef):
        b, c, p, q, r = coef
        g = rectangle_grid(ext, n, FLAT, center=(cx, cy))
        j = _lattice_jets(g, lambda x, y: 0.3 + b * x + c * y + p * x * x
                          + q * x * y + r * y * y)
        ii, jj = g.interior_ij[:, 0], g.interior_ij[:, 1]
        x, y = g.X[ii, jj], g.Y[ii, jj]
        scale = 1.0 + sum(abs(v) for v in coef)
        tol1 = 1e-12 * scale / min(g.hx, g.hy)
        tol2 = 1e-12 * scale / (g.hx * g.hy)
        np.testing.assert_allclose(j["fx"], b + 2 * p * x + q * y, atol=tol1)
        np.testing.assert_allclose(j["fy"], c + q * x + 2 * r * y, atol=tol1)
        np.testing.assert_allclose(j["fxx"], 2 * p, atol=tol2)
        np.testing.assert_allclose(j["fxy"], q, atol=tol2)
        np.testing.assert_allclose(j["fyy"], 2 * r, atol=tol2)


class TestExactJacobian:
    @pytest.mark.parametrize("params", [NIL, PSL, H2R, FLAT],
                             ids=["nil", "psl", "h2r", "flat"])
    @pytest.mark.parametrize("orientation", [-1, 1])
    def test_matches_centered_difference_of_residual(self, params,
                                                     orientation):
        g = disk_grid(0.6, 24, params, center=(0.05, -0.03))
        rng = np.random.RandomState(5)
        ii, jj = g.interior_ij[:, 0], g.interior_ij[:, 1]
        x, y = g.X[ii, jj] - 0.05, g.Y[ii, jj] + 0.03
        u = 0.4 * (x * x + y * y - 0.36) + 0.2 * x * y + 0.1 * x \
            + 1e-3 * rng.randn(g.n_interior)
        v = rng.randn(g.n_interior)
        H = 0.7
        _, d = solver._residual(g, u, H, orientation)
        Jv = solver._jacobian(g, d, orientation) @ v
        eps = 1e-6
        rp, _ = solver._residual(g, u + eps * v, H, orientation)
        rm, _ = solver._residual(g, u - eps * v, H, orientation)
        fd = (rp - rm) / (2 * eps)
        assert np.abs(Jv - fd).max() <= 1e-7 * np.abs(Jv).max()


class TestJacobianRefill:
    """The bincount refill against the operator it stands for: the sum over
    jets k of diag(dH/d jet k) times block k of jet_u, by scipy products."""

    @pytest.mark.parametrize("grid", [
        lambda: disk_grid(0.6, 24, NIL, center=(0.05, -0.03)),
        lambda: disk_grid(0.8, 33, PSL, center=(-0.1, 0.07)),
        lambda: rectangle_grid((0.5, 0.3), 20, FLAT, center=(0.1, 0.0))],
        ids=["nil_disk", "psl_disk", "flat_rectangle"])
    @pytest.mark.parametrize("orientation", [-1, 1])
    def test_matches_sum_of_scaled_blocks(self, grid, orientation):
        g = grid()
        ii, jj = g.interior_ij[:, 0], g.interior_ij[:, 1]
        x, y = g.X[ii, jj], g.Y[ii, jj]
        u = 0.3 * (x * x - y * y) + 0.2 * x * y - 0.1 * y
        _, d = solver._residual(g, u, 0.7, orientation)
        J = solver._jacobian(g, d, orientation)
        dH = mean_curvature_sensitivities(g.ambient(), d, orientation)
        m = g.n_interior
        blocks = [g.jet_u[k * m:(k + 1) * m] for k in range(len(JETS))]
        ref = sum(sp.diags(dH[k]) @ b for k, b in zip(JETS, blocks))
        assert J.shape == ref.shape == (m, m)
        assert abs(J - ref).max() <= 1e-13 * abs(J).max()


class TestSolveDirichlet:
    def test_zero_H_is_the_section(self):
        g = disk_grid(0.6, 24, NIL)
        sol = solve_dirichlet(g, 0.0, 0.0, NIL)
        assert sol.newton_iterations == 0
        assert sol.residual_max < 1e-10
        assert graph_height(sol) == 0.0

    def test_euclidean_cap_height(self):
        g = disk_grid(0.5, 64, FLAT)
        sol = solve_dirichlet(g, 0.0, 1.0, FLAT)
        assert graph_height(sol) == pytest.approx(CAP_ORACLE, rel=0.02)
        assert sol.residual_max <= 1e-10

    def test_defining_equation_holds_at_nodes(self):
        g = disk_grid(0.5, 32, FLAT)
        sol = solve_dirichlet(g, 0.0, 1.0, FLAT)
        fx, fy, fxx, fxy, fyy = sol.jets()
        H = mean_curvature_arrays(g.ambient(), fx, fy, fxx, fxy, fyy,
                                  sol.orientation)["H"]
        assert np.abs(H - 1.0).max() <= 1e-10

    def test_translation_equivariance(self):
        g = disk_grid(0.5, 24, FLAT)
        a = solve_dirichlet(g, 0.0, 1.0, FLAT)
        b = solve_dirichlet(g, 1.3, 1.0, FLAT)
        np.testing.assert_allclose(b.values, a.values + 1.3, atol=1e-12)
        assert graph_height(a) == pytest.approx(graph_height(b), abs=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(params=st.sampled_from([NIL, PSL]), n=st.integers(8, 33),
           H=st.floats(0.05, 0.9))
    def test_quarter_turn_invariance(self, params, n, H):
        # (x, y) -> (-y, x) is an isometry of E(kappa, tau) (tau lam (y dx -
        # x dy) is rotation invariant) and maps an origin-centered disk
        # lattice, even or odd n, onto itself
        sol = solve_dirichlet(disk_grid(1.0, n, params), 0.0, H, params)
        U = sol.values
        assert np.abs(np.rot90(U) - U).max() <= 1e-13 * np.abs(U).max()

    @settings(max_examples=10, deadline=None)
    @given(params=st.sampled_from([NIL, PSL]), n=st.integers(8, 33),
           H=st.floats(0.05, 0.9))
    def test_orientation_flip(self, params, n, H):
        # the half-turn (x, y, z) -> (x, -y, -z) about the x-axis is an
        # isometry that reverses the fibre: it maps the graph of u with one
        # orientation to the graph of -u(x, -y) with the other, at the same
        # H, and an origin-centered disk lattice onto itself
        grid = disk_grid(1.0, n, params)
        down = solve_dirichlet(grid, 0.0, H, params, orientation=-1).values
        up = solve_dirichlet(grid, 0.0, H, params, orientation=+1).values
        assert np.abs(up + down[:, ::-1]).max() <= 1e-13 * np.abs(down).max()

    def test_single_sign_above_boundary(self):
        for params in (FLAT, NIL):
            g = disk_grid(0.6, 24, params)
            sol = solve_dirichlet(g, 0.0, 0.7, params)
            assert sol.interior_values().min() >= -1e-12

    def test_nil_unit_disk_frozen_value(self):
        g = disk_grid(1.0, 64, NIL)
        sol = solve_dirichlet(g, 0.0, 0.8, NIL)
        assert graph_height(sol) == pytest.approx(NIL_DISK_H08, abs=5e-4)
        assert sol.min_abs_nu > 0

    def test_refinement_ratio(self):
        hs = {}
        for n in (32, 64, 128):
            g = disk_grid(0.5, n, FLAT)
            hs[n] = graph_height(solve_dirichlet(g, 0.0, 1.0, FLAT))
        ratio = (hs[32] - hs[64]) / (hs[64] - hs[128])
        assert 3.5 <= ratio <= 4.5

    def test_rectangle_solve(self):
        g = rectangle_grid((0.4, 0.4), 24, FLAT)
        sol = solve_dirichlet(g, 0.0, 0.5, FLAT)
        assert graph_height(sol) > 0
        # boundary nodes carry the boundary value exactly
        edge = ~g.interior
        np.testing.assert_array_equal(sol.values[edge], 0.0)

    @pytest.mark.parametrize("H", [math.nan, math.inf, -math.inf, -0.5])
    def test_bad_H_rejected_before_newton(self, H):
        g = disk_grid(0.5, 16, FLAT)
        with pytest.raises(ConfigInvalid, match="finite and >= 0"):
            solve_dirichlet(g, 0.0, H, FLAT)

    def test_line_search_lets_programming_errors_through(self, monkeypatch):
        # only a degenerate metric shortens a line-search step; any other
        # exception from the residual propagates
        real = solver.mean_curvature_arrays
        calls = []

        def broken_after_first(*args, **kwargs):
            calls.append(1)
            if len(calls) > 1:
                raise TypeError("broken residual")
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "mean_curvature_arrays", broken_after_first)
        g = disk_grid(0.5, 16, FLAT)
        with pytest.raises(TypeError, match="broken residual"):
            solve_dirichlet(g, 0.0, 0.5, FLAT)

    def test_degenerate_trial_shortens_the_step(self, monkeypatch):
        from ektau.errors import DegenerateMetric
        real = solver.mean_curvature_arrays
        calls = []

        def degenerate_second(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise DegenerateMetric("first fundamental form is degenerate")
            return real(*args, **kwargs)

        g = disk_grid(0.5, 16, FLAT)
        plain = solve_dirichlet(g, 0.0, 0.5, FLAT)
        monkeypatch.setattr(solver, "mean_curvature_arrays", degenerate_second)
        sol = solve_dirichlet(g, 0.0, 0.5, FLAT)
        assert sol.residual_max <= 1e-10
        assert graph_height(sol) == pytest.approx(graph_height(plain), rel=1e-9)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_boundary_value_rejected(self, value):
        g = disk_grid(0.5, 16, FLAT)
        with pytest.raises(ConfigInvalid, match="boundary value must be finite"):
            solve_dirichlet(g, value, 0.5, FLAT)

    def test_mismatched_params_rejected(self):
        g = disk_grid(0.5, 24, FLAT)
        with pytest.raises(ConfigInvalid):
            solve_dirichlet(g, 0.0, 0.5, NIL)

    @pytest.mark.parametrize("init, message", [
        (np.zeros((10, 10)), "lattice shape"),
        (np.zeros(24 * 24 + 1), "lattice shape"),
        (np.zeros(24 * 24), "lattice shape"),
        (np.full((24, 24), np.nan), "finite at the interior nodes"),
        ([["a"] * 24] * 24, "numeric")],
        ids=["small", "one_too_many", "flat", "nan", "strings"])
    def test_bad_init_values_rejected_before_newton(self, monkeypatch, init,
                                                    message):
        calls = []
        monkeypatch.setattr(solver, "_newton",
                            lambda *args: calls.append(args))
        g = disk_grid(1.0, 24, NIL)
        with pytest.raises(ConfigInvalid, match="init_values must .*" + message):
            solve_dirichlet(g, 0.0, 0.8, NIL, init_values=init)
        assert calls == []

    @pytest.mark.parametrize("entry", ["solve_dirichlet", "continuation_in_H",
                                       "from_record"])
    @pytest.mark.parametrize("orientation", [0, 2, -2, True, 1.0, "1", None])
    def test_bad_orientation_rejected_before_the_cap(self, monkeypatch, entry,
                                                     orientation):
        calls = []
        monkeypatch.setattr(solver.rotational, "cap_heights",
                            lambda *args: calls.append(args))
        g = disk_grid(1.0, 16, NIL)
        with pytest.raises(ConfigInvalid,
                           match="orientation must be the integer"):
            if entry == "solve_dirichlet":
                solve_dirichlet(g, 0.0, 0.8, NIL, orientation=orientation)
            elif entry == "continuation_in_H":
                continuation_in_H(g, 0.0, [0.4, 0.8], NIL,
                                  orientation=orientation)
            else:
                rec = GraphSolution(g, np.zeros((16, 16)), NIL, 0.0, 0.0, 0.0,
                                    1.0, 0.0).to_record()
                rec["orientation"] = orientation
                GraphSolution.from_record(rec)
        assert calls == []


class TestColdStart:
    """Cold solves start from the rotational cap where `has_cap` holds and
    from zero otherwise; explicit initial values are taken as given."""

    @staticmethod
    def _first_iterates(monkeypatch):
        starts = []
        real = solver._newton

        def spy(grid, H, orientation, u):
            starts.append(u.copy())
            return real(grid, H, orientation, u)

        monkeypatch.setattr(solver, "_newton", spy)
        return starts

    def test_off_centre_cap_reaches_the_zero_start_solution(self):
        g = disk_grid(1.0, 64, NIL, center=(0.07, -0.05))
        assert solver.has_cap(g, 0.8)
        u, _, _, iters = solver._newton(g, 0.8, -1, np.zeros(g.n_interior))
        sol = solve_dirichlet(g, 0.0, 0.8, NIL)
        assert graph_height(sol) == pytest.approx(np.abs(u).max(), rel=1e-12)
        assert sol.newton_iterations < iters

    @pytest.mark.parametrize("orientation", [-1, 1])
    def test_cap_is_signed_against_the_orientation(self, monkeypatch,
                                                   orientation):
        starts = self._first_iterates(monkeypatch)
        sol = solve_dirichlet(disk_grid(1.0, 24, PSL), 0.0, 0.6, PSL,
                              orientation=orientation)
        u0 = starts[0]
        assert np.all(-orientation * u0 > 0)
        interior = sol.values[sol.grid.interior]
        assert np.abs(u0 - interior).max() < 0.05 * np.abs(interior).max()

    @pytest.mark.parametrize("grid, H", [
        (rectangle_grid((0.4, 0.4), 24, FLAT), 0.5),
        (disk_grid(0.6, 24, NIL), 0.0)])
    def test_zero_start_without_a_cap(self, grid, H):
        assert not solver.has_cap(grid, H)
        u, _, _, iters = solver._newton(grid, H, -1,
                                        np.zeros(grid.n_interior))
        sol = solve_dirichlet(grid, 0.0, H, grid.params)
        assert sol.newton_iterations == iters
        np.testing.assert_array_equal(sol.values[grid.interior], u)

    def test_zero_start_at_the_equator_radius(self, monkeypatch):
        # H R = 1: the cap would turn vertical on the rim
        grid = disk_grid(0.5, 16, FLAT)
        assert not solver.has_cap(grid, 2.0)
        starts = self._first_iterates(monkeypatch)
        with pytest.raises(VerticalBlowup):
            solve_dirichlet(grid, 0.0, 2.0, FLAT)
        assert not starts[0].any()

    def test_explicit_init_values_are_the_start(self, monkeypatch):
        g = disk_grid(1.0, 32, NIL)
        warm = solve_dirichlet(g, 0.0, 0.7, NIL).values
        u, _, _, iters = solver._newton(g, 0.75, -1, warm[g.interior])
        starts = self._first_iterates(monkeypatch)
        sol = solve_dirichlet(g, 0.0, 0.75, NIL, init_values=warm)
        np.testing.assert_array_equal(starts[0], warm[g.interior])
        assert sol.newton_iterations == iters
        np.testing.assert_array_equal(sol.values[g.interior], u)


class TestComparison:
    """The comparison principle behind height estimates: an H-graph with
    boundary value 0 over D(c, R) inside D(0, 1), H < 1, lies below the
    rotational cap over D(0, 1) and grows with its domain.  The cap comes
    from the flux first integral, not from the solver.  The discrete
    maximum principle holds up to truncation error, which grows with the
    cap's slope at the rim: hence a margin of 2 h^2 / (1 - H^2)."""

    @settings(max_examples=8, deadline=None)
    @given(params=st.sampled_from([NIL, PSL, NIL_TAU2]),
           H=st.sampled_from([0.5, 0.6, 0.7, 0.8, 0.9, 0.95]),
           R=st.floats(0.2, 1 / 1.2), offset=st.floats(0.0, 1.0),
           angle=st.floats(0.0, 2 * math.pi),
           n=st.sampled_from([24, 32, 48]))
    # D(0, 1.2 R) is D(0, 1), where the cap is the continuous solution
    @example(params=NIL_TAU2, H=0.95, R=1 / 1.2, offset=0.0, angle=0.0, n=48)
    def test_below_the_cap_and_growing_with_the_domain(self, params, H, R,
                                                       offset, angle, n):
        # D(c, 1.2 R) inside D(0, 1); offset 1 makes it internally tangent
        rho = offset * (1.0 - 1.2 * R)
        center = (rho * math.cos(angle), rho * math.sin(angle))
        heights = []
        for radius in (R, 1.2 * R):
            g = disk_grid(radius, n, params, center=center)
            sol = solve_dirichlet(g, 0.0, H, params)
            r = np.hypot(g.X[g.interior], g.Y[g.interior])
            cap = solver.rotational.cap_heights(r, 1.0, H, params)
            margin = 2.0 * g.hx ** 2 / (1.0 - H * H)
            assert (sol.interior_values() <= cap + margin).all()
            heights.append(graph_height(sol))
        assert heights[1] > heights[0]


class TestKernelPasses:
    """Each Newton point runs the graph kernel once: the Jacobian and the
    solution summary are read off the dict of its residual."""

    @staticmethod
    def _count(monkeypatch):
        counts = {"forms": 0, "residual": 0}

        def counting(key, real):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return real(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(graph_geometry, "_forms",
                            counting("forms", graph_geometry._forms))
        monkeypatch.setattr(solver, "mean_curvature_arrays",
                            counting("residual", solver.mean_curvature_arrays))
        return counts

    @pytest.mark.parametrize("params", [NIL, PSL], ids=["nil", "psl"])
    def test_cold_solve(self, monkeypatch, params):
        g = disk_grid(1.0, 32, params, center=(0.07, -0.05))
        counts = self._count(monkeypatch)
        sol = solve_dirichlet(g, 0.0, 0.8, params)
        assert sol.newton_iterations >= 2
        assert counts["forms"] == counts["residual"] \
            >= sol.newton_iterations + 1
        monkeypatch.undo()
        # the summary is the one the kernel gives at the solution's jets
        d = mean_curvature_arrays(g.ambient(), *sol.jets(), sol.orientation)
        assert sol.min_abs_nu == float(np.min(np.abs(d["nu"])))
        assert sol.max_sigma_interior == float(np.sqrt(np.max(d["sigma_sq"])))

    @pytest.mark.parametrize("n", [16, 33, 48])
    @pytest.mark.parametrize("center", [(0.0, 0.0), (0.07, -0.05)],
                             ids=["centred", "off_centre"])
    @pytest.mark.parametrize("params", [NIL, PSL, FLAT],
                             ids=["nil", "psl", "flat"])
    def test_solution_jets_are_the_converged_jets(self, params, center, n):
        # one jet operator: the kernel on sol.jets() gives back the summary
        # of the last Newton residual to the bit
        g = disk_grid(0.6, n, params, center=center)
        sol = solve_dirichlet(g, 0.0, 0.8, params)
        assert sol.newton_iterations >= 1
        d = mean_curvature_arrays(g.ambient(), *sol.jets(), sol.orientation)
        assert sol.residual_max == float(np.max(np.abs(d["H"] - 0.8)))
        assert sol.min_abs_nu == float(np.min(np.abs(d["nu"])))
        assert sol.max_sigma_interior == float(np.sqrt(np.max(d["sigma_sq"])))

    def test_failed_cold_solve(self, monkeypatch):
        counts = self._count(monkeypatch)
        with pytest.raises(VerticalBlowup) as info:
            solve_dirichlet(disk_grid(1.0, 16, FLAT), 0.0, 1.0, FLAT)
        assert "ramp" not in str(info.value)
        assert counts["forms"] == counts["residual"] > 0


class TestNewtonLinearSolve:
    """The branches of `_linear_solve`: reuse, refactor, regularize."""

    @staticmethod
    def _count_splu(monkeypatch):
        calls = []
        real = spla.splu

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(spla, "splu", counting)
        return calls

    def test_one_factor_serves_several_newton_steps(self, monkeypatch):
        calls = self._count_splu(monkeypatch)
        sol = solve_dirichlet(disk_grid(1.0, 64, NIL), 0.0, 0.8, NIL)
        assert sol.newton_iterations >= 2
        assert len(calls) < sol.newton_iterations

    def test_singular_factor_falls_back_to_regularized_step(self, monkeypatch):
        g = disk_grid(1.0, 32, NIL)
        plain = solve_dirichlet(g, 0.0, 0.8, NIL)
        real = solver._factor
        calls = []

        def singular_first(J):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("Factor is exactly singular")
            return real(J)

        monkeypatch.setattr(solver, "_factor", singular_first)
        sol = solve_dirichlet(g, 0.0, 0.8, NIL)
        assert len(calls) >= 2
        assert sol.residual_max <= 1e-10
        assert graph_height(sol) == pytest.approx(graph_height(plain), rel=1e-10)

    def test_short_krylov_cycle_refactors(self, monkeypatch):
        g = disk_grid(1.0, 32, NIL)
        calls = self._count_splu(monkeypatch)
        plain = solve_dirichlet(g, 0.0, 0.8, NIL)
        default_lus = len(calls)
        # one GMRES iteration rarely reaches the tolerance
        monkeypatch.setattr(solver, "_KRYLOV_ITERATIONS", 1)
        sol = solve_dirichlet(g, 0.0, 0.8, NIL)
        assert len(calls) - default_lus > default_lus
        assert sol.newton_iterations == plain.newton_iterations
        assert graph_height(sol) == pytest.approx(graph_height(plain), rel=1e-12)

    def test_iteration_budget_exhausted(self, monkeypatch):
        g = disk_grid(1.0, 32, NIL)
        assert solve_dirichlet(g, 0.0, 0.8, NIL).newton_iterations > 1
        monkeypatch.setattr(solver, "_MAX_NEWTON", 1)
        with pytest.raises(NonConvergence, match="exhausted 1 iterations"):
            solve_dirichlet(g, 0.0, 0.8, NIL)


class TestGlobalization:
    """Cold solves past the fold: line search, forced steps and chase mode
    in one Newton run, pinned by its outcome and the number of Jacobians
    built.  H R >= 1 on every case, so each starts from zero and the graph
    turns vertical."""

    @pytest.mark.parametrize("params, n, H, exc, message, jacobians", [
        (FLAT, 16, 1.0, VerticalBlowup, "graph turned vertical during "
         "iteration: min|nu| < 0.001 at H=1", 13),
        (FLAT, 16, 1.2, VerticalBlowup, "graph turned vertical during "
         "iteration: min|nu| < 0.001 at H=1.2", 15),
        # forced steps without chase mode
        (NIL, 24, 1.05, VerticalBlowup, "graph turned vertical during "
         "iteration: min|nu| < 0.001 at H=1.05", 7),
        (NIL, 32, 1.3, VerticalBlowup, "graph turned vertical during "
         "iteration: min|nu| < 0.001 at H=1.3", 6)])
    def test_cold_solve_past_the_fold(self, monkeypatch, params, n, H, exc,
                                      message, jacobians):
        real = solver.mean_curvature_sensitivities
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "mean_curvature_sensitivities", counting)
        with pytest.raises(exc) as info:
            solve_dirichlet(disk_grid(1.0, n, params), 0.0, H, params)
        assert str(info.value) == message
        assert len(calls) == jacobians


class TestContinuation:
    def test_flat_unit_disk_blows_up_past_one(self):
        g = disk_grid(1.0, 32, FLAT)
        steps = continuation_in_H(g, 0.0, np.linspace(0.0, 1.2, 13), FLAT)
        assert all(s.ok for s in steps if s.H <= 0.91)
        late = [s for s in steps if s.H > 1.05]
        assert late and all(s.failure == "vertical_blowup" for s in late)

    def test_zero_H_always_succeeds(self):
        g = disk_grid(0.8, 24, NIL)
        steps = continuation_in_H(g, 0.0, np.linspace(0.0, 0.4, 3), NIL)
        assert steps[0].H == 0.0 and steps[0].ok

    def test_heights_nondecreasing_on_success_prefix(self):
        g = disk_grid(1.0, 32, FLAT)
        steps = continuation_in_H(g, 0.0, np.linspace(0.0, 1.1, 12), FLAT)
        heights = [s.height for s in steps if s.ok]
        assert all(b >= a - 1e-6 for a, b in zip(heights, heights[1:]))

    @pytest.mark.parametrize("grid, params, H_values", [
        (disk_grid(1.0, 24, NIL), NIL, [0.0, 0.4, 0.8, 1.05, 1.3]),
        (rectangle_grid((0.4, 0.4), 24, FLAT), FLAT,
         [0.5, 1.0, 1.5, 2.0, 3.0])], ids=["nil-disk", "flat-rectangle"])
    def test_every_step_is_its_standalone_solve(self, grid, params, H_values):
        # the rectangle has no cap, so a start carried over from an earlier
        # row would converge to other bits at H = 1, 1.5 and 2
        steps = continuation_in_H(grid, 0.0, H_values, params)
        assert {s.ok for s in steps} == {True, False}
        for s in steps:
            try:
                alone = solve_dirichlet(grid, 0.0, s.H, params)
            except tuple(solver.FAILURES) as exc:
                assert (s.failure, s.message) == (solver.FAILURES[type(exc)],
                                                  str(exc))
            else:
                assert s.ok
                assert (s.solution.newton_iterations
                        == alone.newton_iterations)
                assert np.array_equal(s.solution.values, alone.values)

    def test_sweep_never_aborts(self):
        g = disk_grid(1.0, 24, NIL)
        steps = continuation_in_H(g, 0.0, np.linspace(0.5, 2.0, 7), NIL)
        assert len(steps) == 7
        assert any(not s.ok for s in steps)

    def test_numerical_errors_recorded_as_failures(self, monkeypatch):
        real = solver.solve_dirichlet
        raised = {0.3: DegenerateMetric("first fundamental form degenerate"),
                  0.5: OutOfDomain("point outside the model disk")}

        def raise_by_H(grid, bv, H, *args, **kwargs):
            if H in raised:
                raise raised[H]
            return real(grid, bv, H, *args, **kwargs)

        monkeypatch.setattr(solver, "solve_dirichlet", raise_by_H)
        steps = continuation_in_H(disk_grid(1.0, 24, NIL), 0.0,
                                  [0.3, 0.5, 0.6], NIL)
        assert [s.failure for s in steps] == [
            "degenerate_metric", "out_of_domain", None]
        assert [s.message for s in steps[:2]] == [str(e) for e in raised.values()]
        assert steps[2].ok and steps[2].height > 0

    @pytest.mark.parametrize("H_values", [
        [], [0.5, 0.3], [0.3, 0.3], [-0.1, 0.5], [0.2, math.nan],
        [0.2, math.inf]], ids=["empty", "descending", "repeated", "negative",
                               "nan", "inf"])
    def test_bad_H_values_rejected(self, H_values):
        with pytest.raises(ConfigInvalid, match="H values"):
            continuation_in_H(disk_grid(1.0, 16, NIL), 0.0, H_values, NIL)


class TestSigmaProfile:
    def test_flat_section_is_totally_geodesic(self):
        g = disk_grid(0.6, 24, FLAT)
        sol = solve_dirichlet(g, 0.0, 0.0, FLAT)
        for _, s in sigma_profile(sol):
            assert s < 1e-12

    def test_nil_section_profile_matches_pointwise_norm(self):
        # sections with tau > 0 are minimal but not totally geodesic: the
        # profile reports the pointwise |sigma| of the section
        from ektau.graph_geometry import Jet2, shape_data
        g = disk_grid(0.8, 24, NIL)
        sol = solve_dirichlet(g, 0.0, 0.0, NIL)
        prof = sigma_profile(sol)
        assert prof
        # the twist vanishes on the fiber axis and grows outward
        assert max(s for _, s in prof) > 0.05
        oracle = max(
            math.sqrt(shape_data(Jet2(x, y, 0, 0, 0, 0, 0, 0), NIL).sigma_sq)
            for x, y in zip(g.X[g.interior], g.Y[g.interior]))
        assert max(s for _, s in prof) == pytest.approx(oracle, rel=1e-8)

    def test_euclidean_cap_is_umbilic(self):
        g = disk_grid(0.5, 48, FLAT)
        sol = solve_dirichlet(g, 0.0, 1.0, FLAT)
        prof = sigma_profile(sol)
        inner = [(d, s) for d, s in prof if d > 0.05]
        assert inner
        for _, s in inner:
            assert s == pytest.approx(math.sqrt(2.0), abs=2e-3)

    def test_bounded_far_from_boundary_across_sweep(self):
        g = disk_grid(1.0, 24, FLAT)
        steps = continuation_in_H(g, 0.0, np.linspace(0.1, 0.9, 5), FLAT)
        far = []
        for s in steps:
            assert s.ok
            far.extend(v for d, v in sigma_profile(s.solution) if d > 0.2)
        assert max(far) < 5.0


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        g = disk_grid(0.6, 24, NIL)
        sol = solve_dirichlet(g, 0.25, 0.6, NIL)
        path = tmp_path / "sol.json"
        sol.save(path)
        back = GraphSolution.load(path)
        assert graph_height(back) == graph_height(sol)
        np.testing.assert_array_equal(back.values, sol.values)
        assert back.params == sol.params
        assert back.H_target == sol.H_target

    def test_reloaded_jets_reproduce_residual(self, tmp_path):
        g = disk_grid(0.6, 24, NIL)
        sol = solve_dirichlet(g, 0.0, 0.6, NIL)
        path = tmp_path / "sol.json"
        sol.save(path)
        back = GraphSolution.load(path)
        fx, fy, fxx, fxy, fyy = back.jets()
        H = mean_curvature_arrays(back.grid.ambient(), fx, fy, fxx, fxy,
                                  fyy, back.orientation)["H"]
        # the saved values and the rebuilt grid give back the Newton jets
        assert float(np.abs(H - 0.6).max()) == back.residual_max

    @pytest.mark.parametrize("damage", ["truncated_values", "missing_key",
                                        "not_json"])
    def test_bad_record_rejected_with_path(self, tmp_path, damage):
        rec = solve_dirichlet(disk_grid(0.6, 16, NIL), 0.0, 0.6,
                              NIL).to_record()
        path = tmp_path / "sol.json"
        if damage == "truncated_values":
            rec["values"] = rec["values"][:-1]
        elif damage == "missing_key":
            del rec["H_target"]
        path.write_text("{" if damage == "not_json" else json.dumps(rec))
        with pytest.raises(ConfigInvalid, match="bad solution .*sol.json"):
            GraphSolution.load(path)
        if damage != "not_json":
            with pytest.raises(ConfigInvalid, match="bad solution record"):
                GraphSolution.from_record(rec)

    def test_missing_file_is_io_failure(self, tmp_path):
        with pytest.raises(IoFailure, match="missing.json"):
            GraphSolution.load(tmp_path / "missing.json")

    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        sol = solve_dirichlet(disk_grid(0.6, 16, NIL), 0.0, 0.6, NIL)
        path = tmp_path / "sol.json"
        path.write_text("old")

        def disk_full(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(solver.os, "replace", disk_full)
        with pytest.raises(IoFailure, match="disk full"):
            sol.save(path)
        assert path.read_text() == "old"

    def test_failed_write_leaves_no_temporary_file(self, tmp_path):
        target = tmp_path / "x.json"
        target.mkdir()                  # the rename onto it fails
        with pytest.raises(IoFailure) as info:
            solver._atomic_write(target, "text")
        assert str(info.value).startswith("cannot write %s: " % target)
        assert ".tmp" not in str(info.value)
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]

    def test_older_record_with_converged_key_loads(self):
        g = disk_grid(0.6, 24, NIL)
        rec = solve_dirichlet(g, 0.0, 0.6, NIL).to_record()
        assert "converged" not in rec
        rec["converged"] = True
        back = GraphSolution.from_record(rec)
        assert back.to_record() == {k: v for k, v in rec.items()
                                    if k != "converged"}
