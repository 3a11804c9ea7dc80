"""Dirichlet solver: oracles, invariants, sweeps in H, serialization."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from ektau import errors, graph_geometry, solver
from ektau.errors import (ConfigInvalid, DegenerateMetric, IoFailure,
                          NonConvergence, OutOfDomain, VerticalBlowup)
from ektau.graph_geometry import (mean_curvature_arrays,
                                  mean_curvature_sensitivities)
from ektau.model import DOMAIN_MARGIN, SpaceParams, base_distance
from ektau.solver import (DomainGrid, GraphSolution, disk_grid, graph_height,
                          rectangle_grid, sigma_profile, solve_dirichlet)

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


class Allocated(Exception):
    """Raised by a patched `np.linspace`: a lattice was about to be built."""


def _allocate(*args, **kwargs):
    raise Allocated


class TestGrids:
    def test_minimum_size(self):
        with pytest.raises(ConfigInvalid):
            disk_grid(0.5, 7, FLAT)

    @pytest.mark.parametrize("entry", ["disk_grid", "rectangle_grid",
                                       "from_record"])
    def test_lattice_cap_checked_before_any_allocation(self, monkeypatch,
                                                       entry):
        rec = GraphSolution(disk_grid(1.0, 16, NIL), np.zeros((16, 16)),
                            H_target=0.0, boundary_value=0.0, residual_max=0.0,
                            min_abs_nu=1.0, max_sigma_interior=0.0).to_record()
        monkeypatch.setattr(np, "linspace", _allocate)

        def build(n):
            if entry == "disk_grid":
                return disk_grid(1.0, n, NIL)
            if entry == "rectangle_grid":
                return rectangle_grid((0.5, 0.5), n, NIL)
            rec["grid"]["n"] = n
            return GraphSolution.from_record(rec)

        for n in (solver.MAX_NODES_PER_SIDE + 1, 10**9):
            with pytest.raises(ConfigInvalid, match="nodes per side"):
                build(n)
        # the cap itself is a valid size: the build goes on to the lattice
        with pytest.raises(Allocated):
            build(solver.MAX_NODES_PER_SIDE)

    def test_disk_mask_inside_model_domain(self):
        with pytest.raises(OutOfDomain):
            disk_grid(2.5, 24, PSL)
        # every interior node inside 4 + kappa r^2 > 0, the farthest at
        # radius 2 - 1e-10: within the margin, 2 DOMAIN_MARGIN, of the edge
        # of the PSL disk
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

    @pytest.mark.parametrize("params", [PSL, H2R, SpaceParams(-0.3, 0.5)],
                             ids=["psl", "h2r", "kappa_0.3"])
    @pytest.mark.parametrize("center", [(0.0, 0.0), (0.07, -0.05), (0.3, 0.0),
                                        (-0.2, 0.4)])
    def test_hyperbolic_disk_boundary_distance(self, params, center):
        # kappa < 0: against the minimum distance to 4000 points on the
        # boundary circle, which lies above the exact one by at most 2.2e-5
        # on these grids
        g = disk_grid(1.0, 24, params, center=center)
        theta = np.linspace(0.0, 2 * np.pi, 4000, endpoint=False)
        circle = (center[0] + np.cos(theta), center[1] + np.sin(theta))
        got = g.boundary_distance()
        oracle = np.array([base_distance((g.xs[i], g.ys[j]), circle, params).min()
                           for i, j in g.interior_ij])
        assert np.all(got <= oracle + 1e-12)
        assert np.all(oracle - got <= 3e-5)


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


def _coo_jet_stencils(g):
    """The jet stencils by COO triplets and scipy's conversion, which sorts
    each row: the oracle of the direct CSR construction."""
    n, m = g.n, g.n_interior
    hx, hy = g.hx, g.hy
    ii, jj = g.interior_ij[:, 0], g.interior_ij[:, 1]
    stencils = (
        [((1, 0), 1 / (2 * hx)), ((-1, 0), -1 / (2 * hx))],
        [((0, 1), 1 / (2 * hy)), ((0, -1), -1 / (2 * hy))],
        [((1, 0), 1 / hx**2), ((0, 0), -2 / hx**2), ((-1, 0), 1 / hx**2)],
        [((1, 1), 1 / (4 * hx * hy)), ((-1, -1), 1 / (4 * hx * hy)),
         ((1, -1), -1 / (4 * hx * hy)), ((-1, 1), -1 / (4 * hx * hy))],
        [((0, 1), 1 / hy**2), ((0, 0), -2 / hy**2), ((0, -1), 1 / hy**2)],
    )
    rows, cols, vals = [], [], []
    for k, entries in enumerate(stencils):
        for (di, dj), w in entries:
            rows.append(k * m + np.arange(m))
            cols.append((ii + di) * n + (jj + dj))
            vals.append(np.full(m, w))
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(len(stencils) * m, n * n))


class TestJetStencilsCsr:
    @pytest.mark.parametrize("n", [24, 25, 48, 49])
    @pytest.mark.parametrize("grid", [
        lambda n: disk_grid(1.0, n, NIL, center=(0.03, -0.02)),
        lambda n: disk_grid(0.8, n, PSL, center=(-0.1, 0.07)),
        lambda n: rectangle_grid((0.5, 0.3), n, FLAT, center=(0.1, 0.0))],
        ids=["nil_disk", "psl_disk", "flat_rectangle"])
    def test_matches_the_coo_construction(self, grid, n):
        g = grid(n)
        S, ref = solver._jet_stencils(g), _coo_jet_stencils(g)
        assert S.shape == ref.shape and S.has_sorted_indices
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(S, name), getattr(ref, name)), name


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
        dH = mean_curvature_sensitivities(g.ambient(), d, orientation)
        Jv = solver._jacobian(g, dH, np.arange(g.n_interior)) @ v
        eps = 1e-6
        rp, _ = solver._residual(g, u + eps * v, H, orientation)
        rm, _ = solver._residual(g, u - eps * v, H, orientation)
        fd = (rp - rm) / (2 * eps)
        assert np.abs(Jv - fd).max() <= 1e-7 * np.abs(Jv).max()


class TestJacobianProduct:
    """The Jacobian product S @ jet_u against the operator it stands for: the
    sum over jets k of diag(dH/d jet k) times block k of jet_u, by scipy's
    sparse addition.  Both add the blocks in order, so they agree to the bit.
    The matrix-free action of GMRES stands for the same operator."""

    GRIDS = pytest.mark.parametrize("grid", [
        lambda: disk_grid(0.6, 24, NIL, center=(0.05, -0.03)),
        lambda: disk_grid(0.8, 33, PSL, center=(-0.1, 0.07)),
        lambda: rectangle_grid((0.5, 0.3), 20, FLAT, center=(0.1, 0.0))],
        ids=["nil_disk", "psl_disk", "flat_rectangle"])

    @staticmethod
    def _sensitivities(g, orientation):
        ii, jj = g.interior_ij[:, 0], g.interior_ij[:, 1]
        x, y = g.X[ii, jj], g.Y[ii, jj]
        u = 0.3 * (x * x - y * y) + 0.2 * x * y - 0.1 * y
        _, d = solver._residual(g, u, 0.7, orientation)
        return mean_curvature_sensitivities(g.ambient(), d, orientation)

    @GRIDS
    @pytest.mark.parametrize("orientation", [-1, 1])
    def test_matches_sum_of_scaled_blocks(self, grid, orientation):
        g = grid()
        dH = self._sensitivities(g, orientation)
        m = g.n_interior
        J = solver._jacobian(g, dH, np.arange(m))
        blocks = [g.jet_u[k * m:(k + 1) * m] for k in range(len(JETS))]
        ref = sum(sp.diags(dH[k]) @ b for k, b in zip(JETS, blocks))
        assert J.shape == ref.shape == (m, m)
        assert J.format == "csc" and J.has_sorted_indices
        assert (J != ref).nnz == 0

    @GRIDS
    @pytest.mark.parametrize("orientation", [-1, 1])
    def test_action_matches_the_assembled_jacobian(self, grid, orientation):
        # in Newton's order, as its GMRES applies it
        g = grid()
        dH = self._sensitivities(g, orientation)
        p = g.newton_order()
        J = solver._jacobian(g, dH, p)
        x = np.random.RandomState(3).randn(g.n_interior)
        Jx = solver._jacobian_action(g, dH, p)(x)
        assert np.abs(Jx - J @ x).max() \
            <= 1e-14 * np.abs(J.data).max() * np.abs(x).max()


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

    @settings(max_examples=10, deadline=None)
    @given(params=st.sampled_from([FLAT, NIL, PSL]), n=st.integers(16, 33),
           H=st.floats(0.05, 0.9),
           center=st.tuples(st.floats(-0.1, 0.1), st.floats(-0.1, 0.1)),
           c=st.one_of(st.floats(-1e3, -1.0), st.floats(1.0, 1e3)))
    def test_translation_equivariance(self, params, n, H, center, c):
        # the solver runs at boundary value zero and shifts the result, so
        # a shifted boundary value is the same Newton run to the bit
        g = disk_grid(1.0, n, params, center=center)
        a = solve_dirichlet(g, 0.0, H, params)
        b = solve_dirichlet(g, c, H, params)
        assert np.array_equal(b.values, a.values + c)
        for key in ("newton_iterations", "residual_max", "min_abs_nu",
                    "max_sigma_interior"):
            assert getattr(b, key) == getattr(a, key), key
        # graph_height rounds (u + c) - c: with |u| < 1 <= |c| the sum is
        # off by at most one ulp of |c| and the difference by half of one
        assert abs(graph_height(b) - graph_height(a)) \
            <= 1.5 * np.spacing(abs(c))

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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_boundary_value_rejected(self, value):
        g = disk_grid(0.5, 16, FLAT)
        with pytest.raises(ConfigInvalid, match="boundary value must be finite"):
            solve_dirichlet(g, value, 0.5, FLAT)

    def test_mismatched_params_rejected(self):
        g = disk_grid(0.5, 24, FLAT)
        with pytest.raises(ConfigInvalid):
            solve_dirichlet(g, 0.0, 0.5, NIL)

    @pytest.mark.parametrize("entry", ["solve_dirichlet", "from_record"])
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
            else:
                rec = GraphSolution(
                    g, np.zeros((16, 16)), H_target=0.0, boundary_value=0.0,
                    residual_max=0.0, min_abs_nu=1.0,
                    max_sigma_interior=0.0).to_record()
                rec["orientation"] = orientation
                GraphSolution.from_record(rec)
        assert calls == []


class TestColdStart:
    """Every solve starts from the rotational cap where `has_cap` holds and
    from zero otherwise."""

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


class TestNestedDissectionOrder:
    """Newton factors its Jacobian in the grid's nested-dissection order,
    with the closure's long couplings lifted into their separators."""

    @pytest.mark.parametrize("grid", [
        lambda: disk_grid(1.0, 33, NIL, center=(0.03, -0.02)),
        lambda: disk_grid(0.6, 48, PSL, center=(0.2, -0.1)),
        lambda: rectangle_grid((0.5, 0.3), 20, FLAT, center=(0.1, 0.0)),
        lambda: rectangle_grid((0.4, 0.4), 33, NIL)],
        ids=["nil_disk", "psl_disk", "flat_rectangle", "nil_square"])
    def test_grid_order_is_a_permutation_of_its_unknowns(self, grid):
        g = grid()
        p = g.nd_order()
        assert np.array_equal(np.sort(p), np.arange(g.n_interior))
        assert not p.flags.writeable and g.nd_order() is p
        nd = g.idx.ravel()[solver._nd_order(g.n, g.n)[0]]
        assert np.array_equal(p, nd[nd >= 0])

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(8, 64), radius=st.floats(0.1, 3.0),
           cx=st.floats(-1.0, 1.0), cy=st.floats(-1.0, 1.0))
    def test_newton_order_separates_every_jacobian_coupling(self, n, radius,
                                                            cx, cy):
        g = disk_grid(radius, n, NIL, center=(cx, cy))
        p = g.newton_order()
        assert np.array_equal(np.sort(p), np.arange(g.n_interior))
        assert not p.flags.writeable and g.newton_order() is p
        order, blocks = solver._newton_dissection(g)
        assert np.array_equal(order, p)
        _, lattice_block, parent, _ = solver._nd_order(g.n, g.n)
        ii, jj = g.interior_ij[:, 0], g.interior_ij[:, 1]
        home = lattice_block[ii * g.n + jj]
        # blocks follow in elimination order, each block's own nodes
        # behind the ones lifted into it
        assert (np.diff(2 * blocks[p] + (blocks == home)[p]) >= 0).all()
        ancestors = {}

        def ancestors_of(b):
            if b not in ancestors:
                chain, a = {b}, b
                while parent[a] >= 0:
                    a = parent[a]
                    chain.add(a)
                ancestors[b] = chain
            return ancestors[b]

        for b, h in set(zip(blocks.tolist(), home.tolist())):
            assert b in ancestors_of(h)
        # the pattern of `_jacobian`: every jet's couplings
        m = g.n_interior
        pattern = sum(abs(g.jet_u[k * m:(k + 1) * m]) for k in range(len(JETS)))
        rows, cols = pattern.nonzero()
        for a, b in set(zip(blocks[rows].tolist(), blocks[cols].tolist())):
            assert a in ancestors_of(b) or b in ancestors_of(a), (a, b)

    @pytest.mark.parametrize("grid", [
        lambda: rectangle_grid((0.5, 0.3), 20, FLAT, center=(0.1, 0.0)),
        lambda: rectangle_grid((0.4, 0.4), 33, NIL)],
        ids=["flat_rectangle", "nil_square"])
    def test_rectangle_newton_order_is_the_grid_order(self, grid):
        g = grid()
        assert g.newton_order() is g.nd_order()

    def test_newton_fill_of_the_n96_nil_cap_start(self, monkeypatch):
        # SuperLU's fill depends on its version: pinned only under the
        # versions that made the acceptance digests
        versions = json.loads((Path(__file__).with_name(
            "acceptance_digests.json")).read_text())["versions"]
        if versions != {"numpy": np.__version__, "scipy": scipy.__version__}:
            pytest.skip("fill pinned with numpy %(numpy)s and scipy %(scipy)s"
                        % versions)
        fills, real = [], solver._factor

        def recording_factor(J, ordering):
            lu = real(J, ordering)
            fills.append(lu.L.nnz + lu.U.nnz)
            return lu

        monkeypatch.setattr(solver, "_factor", recording_factor)
        solve_dirichlet(disk_grid(1.0, 96, NIL, center=(0.03, -0.02)), 0.0,
                        0.8, NIL)
        # 577,836 in the lattice's own order, whose lines leave the
        # closure's long couplings unseparated
        assert fills[0] <= 460_000

    def test_factor_takes_the_permuted_jacobian_natural(self, monkeypatch):
        g = disk_grid(1.0, 32, NIL, center=(0.03, -0.02))
        jacobians, factors = [], []
        real_jacobian, real_factor = solver._jacobian, solver._factor

        def recording_jacobian(*args):
            jacobians.append(args)
            return real_jacobian(*args)

        def recording_factor(J, ordering):
            factors.append((J, ordering))
            return real_factor(J, ordering)

        monkeypatch.setattr(solver, "_jacobian", recording_jacobian)
        monkeypatch.setattr(solver, "_factor", recording_factor)
        solve_dirichlet(g, 0.0, 0.8, NIL)
        (J, ordering), = factors
        assert ordering == "NATURAL"
        grid, dH, order = jacobians[0]
        p = g.newton_order()
        assert order is p
        ref = solver._jacobian(grid, dH, np.arange(grid.n_interior))[p][:, p]
        assert J.format == "csc" and J.has_sorted_indices
        assert J.shape == ref.shape and (J != ref).nnz == 0


class TestMatrixFreeKrylov:
    """Reused-factor steps run GMRES on the Jacobian applied from its
    partials; a Jacobian is assembled only to be factored."""

    @staticmethod
    def _record_cycles(monkeypatch):
        """(log of its factor solves and Jacobian actions, answer) of each
        `_krylov` cycle from here on."""
        cycles, real = [], solver._krylov

        class CountingLU:
            def __init__(self, lu, log):
                self.lu, self.log = lu, log

            def solve(self, y):
                self.log.append("solve")
                return self.lu.solve(y)

        def recording_krylov(lu, apply, b):
            log = []

            def counting_apply(x):
                log.append("apply")
                return apply(x)

            x = real(CountingLU(lu, log), counting_apply, b)
            cycles.append((log, x))
            return x

        monkeypatch.setattr(solver, "_krylov", recording_krylov)
        return cycles

    def test_reused_factor_steps_solve_once_per_arnoldi_vector(self, monkeypatch):
        # the chord step and its residual, then per Arnoldi vector one
        # solve and one action; the answer combines the kept solves, so no
        # solve follows the last action
        residuals = []
        real_linear_solve, real_jacobian = solver._linear_solve, solver._jacobian

        def checking_linear_solve(grid, dH, b, state):
            reused = state.get("lu") is not None
            x = real_linear_solve(grid, dH, b, state)
            if reused:
                J = real_jacobian(grid, dH, grid.newton_order())
                residuals.append(np.linalg.norm(b - J @ x) / np.linalg.norm(b))
            return x

        cycles = self._record_cycles(monkeypatch)
        monkeypatch.setattr(solver, "_linear_solve", checking_linear_solve)
        sol = solve_dirichlet(disk_grid(1.0, 64, NIL), 0.0, 0.8, NIL)
        assert sol.newton_iterations >= 2 and cycles
        assert len(residuals) == len(cycles)
        for log, x in cycles:
            assert x is not None
            assert len(log) >= 2 and log == ["solve", "apply"] * (len(log) // 2)
        assert max(residuals) <= solver._KRYLOV_RTOL

    def test_every_assembled_jacobian_is_factored(self, monkeypatch):
        counts = _count_calls(monkeypatch, "_factor", "_jacobian")
        sol = solve_dirichlet(disk_grid(1.0, 64, NIL), 0.0, 0.8, NIL)
        assert sol.newton_iterations > counts["_factor"] >= 1
        assert counts["_jacobian"] == counts["_factor"]

    def test_chord_step_within_tolerance_returns_early(self, monkeypatch):
        # near H = 0 the second step's chord step on the first factor
        # already meets the tolerance: one solve, one action, no Arnoldi
        cycles = self._record_cycles(monkeypatch)
        g = rectangle_grid((0.5, 0.3), 16, FLAT)
        sol = solve_dirichlet(g, 0.0, 0.001, FLAT, orientation=-1)
        assert sol.newton_iterations == 2
        (log, x), = cycles
        assert log == ["solve", "apply"] and x is not None


class TestNewtonLinearSolve:
    """The branches of `_linear_solve`: reuse, refactor, and a singular
    factor raised as `NonConvergence`."""

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

    def test_singular_factor_raises_non_convergence(self, monkeypatch):
        # no input probed has made SuperLU fail, so the factor is stubbed:
        # its error leaves a solve as the named failure, and harness rows
        # record it as non_convergence
        def singular(J, ordering):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(solver, "_factor", singular)
        with pytest.raises(NonConvergence) as info:
            solve_dirichlet(disk_grid(1.0, 32, NIL), 0.0, 0.8, NIL)
        assert str(info.value) == \
            "singular Newton Jacobian: Factor is exactly singular"

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

    def test_hopeless_cycle_stops_after_five_vectors(self, monkeypatch):
        # a zero start past the fold: five Arnoldi vectors leave the second
        # cycle's residual at 0.27 of its start, a rate that fifteen cannot
        # carry to 1e-6, so the cycle gives up there, after six triangular
        # solves (the chord step and one per vector) instead of sixteen, and
        # the Jacobian is factored
        cycles = TestMatrixFreeKrylov._record_cycles(monkeypatch)
        counts = _count_calls(monkeypatch, "_factor")
        with pytest.raises(VerticalBlowup, match=r"at H=1.179$"):
            solve_dirichlet(disk_grid(1.0, 48, NIL), 0.0, 1.179, NIL)
        (_, x1), (second, x2) = cycles
        assert x1 is not None and x2 is None
        assert second == ["solve", "apply"] * 6
        assert counts["_factor"] == 5


def _count_calls(monkeypatch, *names):
    """Count the calls of the named `solver` functions from here on."""
    counts = dict.fromkeys(names, 0)

    def counting(name, real):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapped

    for name in names:
        monkeypatch.setattr(solver, name, counting(name, getattr(solver, name)))
    return counts


class TestFullSteps:
    """The premise under the factor rule of `_newton`: a converged cap-start
    solve accepts the full Newton step on every iteration, so it never drops
    its factor and runs one residual per iteration."""

    @pytest.mark.parametrize("HR", [0.3, 0.6, 0.9])
    @pytest.mark.parametrize("center", [(0.0, 0.0), (0.07, -0.05)],
                             ids=["centred", "off_centre"])
    @pytest.mark.parametrize("params", [FLAT, NIL, PSL, H2R],
                             ids=["flat", "nil", "psl", "h2r"])
    def test_one_factor_and_full_steps(self, monkeypatch, params, center, HR):
        g = disk_grid(1.0, 24, params, center=center)
        assert solver.has_cap(g, HR)
        counts = _count_calls(monkeypatch, "_factor", "_residual")
        sol = solve_dirichlet(g, 0.0, HR, params)
        assert sol.newton_iterations >= 1
        assert counts == {"_factor": 1,
                          "_residual": sol.newton_iterations + 1}


class TestGlobalization:
    """Cold solves past the fold: line search, forced steps and chase mode
    in one Newton run, pinned by its outcome and the number of Jacobians
    built.  H R >= 1 on every case, so each starts from zero and the graph
    turns vertical."""

    @pytest.mark.parametrize("params, n, H, exc, message, jacobians", [
        # four full steps and five damped ones; then the full step cuts
        # min|nu| from 0.25 to 0.01 and is forced, and one chase step ends it
        (FLAT, 16, 1.0, VerticalBlowup, "graph turned vertical during "
         "iteration: min|nu| < 0.001 at H=1", 11),
        # two full steps; the third's GMRES cycle is given up after five
        # vectors and one damped step follows; then the full step cuts
        # min|nu| from 0.17 to 0.014 and is forced, and one chase step ends it
        (FLAT, 16, 1.2, VerticalBlowup, "graph turned vertical during "
         "iteration: min|nu| < 0.001 at H=1.2", 5),
        # a forced step without chase mode
        (NIL, 24, 1.05, VerticalBlowup, "graph turned vertical during "
         "iteration: min|nu| < 0.001 at H=1.05", 7),
        # two damped steps start chase mode
        (NIL, 32, 1.3, VerticalBlowup, "graph turned vertical during "
         "iteration: min|nu| < 0.001 at H=1.3", 5)])
    def test_cold_solve_past_the_fold(self, monkeypatch, params, n, H, exc,
                                      message, jacobians):
        counts = _count_calls(monkeypatch, "mean_curvature_sensitivities")
        with pytest.raises(exc) as info:
            solve_dirichlet(disk_grid(1.0, n, params), 0.0, H, params)
        assert str(info.value) == message
        assert counts["mean_curvature_sensitivities"] == jacobians

    def test_damped_steps_refactor(self, monkeypatch):
        # two full steps, two damped ones (the first after a GMRES cycle
        # given up at five vectors), then the full step that cuts min|nu|
        # from 0.11 to 0.004 is forced and one chase step ends it: each
        # damped or forced step drops the factor, so every later Jacobian is
        # factored afresh; each assembled Jacobian is one that is factored
        counts = _count_calls(monkeypatch, "_factor", "_residual", "_jacobian")
        with pytest.raises(VerticalBlowup,
                           match=r"min\|nu\| < 0.001 at H=1.236"):
            solve_dirichlet(disk_grid(1.0, 48, NIL), 0.0, 1.236, NIL)
        assert counts == {"_factor": 5, "_residual": 13, "_jacobian": 5}

    @pytest.mark.parametrize("params, n, H", [(NIL, 32, 4.0), (PSL, 24, 3.5)],
                             ids=["nil", "psl"])
    def test_rectangle_past_the_fold(self, params, n, H):
        # no cap on a rectangle: the zero start slides past the fold until
        # the graph turns vertical, not until the iteration budget runs out
        g = rectangle_grid((0.4, 0.4), n, params, center=(0.05, -0.03))
        with pytest.raises(VerticalBlowup) as info:
            solve_dirichlet(g, 0.0, H, params)
        assert str(info.value) == ("graph turned vertical during iteration: "
                                   "min|nu| < 0.001 at H=%g" % H)

    @pytest.mark.parametrize("extents, n, params, center, boundary, H", [
        # rectangles past the fold that turn vertical through a forced full
        # step cutting min|nu| tenfold; without that rule the first stalls
        # and the second exhausts the budget
        ((0.5, 0.8), 48, SpaceParams(0.0, 1.0), (0.2, 0.1), 0.3, 1.5),
        ((0.3, 0.3), 12, NIL_TAU2, (0.0, 0.0), 0.0, 5.5)],
        ids=["stalled", "exhausted"])
    def test_forced_collapse_ends_as_vertical(self, extents, n, params,
                                              center, boundary, H):
        g = rectangle_grid(extents, n, params, center=center)
        with pytest.raises(VerticalBlowup) as info:
            solve_dirichlet(g, boundary, H, params, orientation=1)
        assert str(info.value) == ("graph turned vertical during iteration: "
                                   "min|nu| < 0.001 at H=%g" % H)


class TestNewtonExits:
    """Each way `_newton` gives up, reached on purpose."""

    def test_steep_start_is_vertical_before_any_jacobian(self, monkeypatch):
        g = disk_grid(1.0, 24, NIL)
        counts = _count_calls(monkeypatch, "_jacobian")
        steep = 1e4 * g.X[g.interior]
        with pytest.raises(VerticalBlowup) as info:
            solver._newton(g, 0.5, -1, steep)
        assert str(info.value) == ("graph turned vertical during iteration: "
                                   "min|nu| < 0.001 at H=0.5")
        assert counts["_jacobian"] == 0

    @staticmethod
    def _trial_outcomes(monkeypatch):
        """'ok' or 'degenerate' for each residual evaluation from here on."""
        outcomes, real = [], solver._residual

        def recording(*args):
            try:
                value = real(*args)
            except DegenerateMetric:
                outcomes.append("degenerate")
                raise
            outcomes.append("ok")
            return value

        monkeypatch.setattr(solver, "_residual", recording)
        return outcomes

    def test_degenerate_trial_shortens_the_step(self, monkeypatch):
        # flat, H R = 6 from zero: a trial whose metric degenerates is
        # skipped for the next shorter one, and the graph turns vertical
        outcomes = self._trial_outcomes(monkeypatch)
        with pytest.raises(VerticalBlowup) as info:
            solve_dirichlet(disk_grid(1.0, 24, FLAT), 0.0, 6.0, FLAT,
                            orientation=1)
        assert str(info.value) == ("graph turned vertical during iteration: "
                                   "min|nu| < 0.001 at H=6")
        assert "degenerate" in outcomes
        skipped = outcomes.index("degenerate")
        assert "ok" in outcomes[skipped:]

    def test_no_admissible_trial_stalls(self, monkeypatch):
        # an off-centre PSL-type disk at H = 3.25: the metric degenerates
        # on every trial of a pass, so there is nothing to force
        params = SpaceParams(-0.25, 0.5)
        g = disk_grid(1.5, 12, params, center=(0.3, 0.1))
        outcomes = self._trial_outcomes(monkeypatch)
        with pytest.raises(NonConvergence) as info:
            solve_dirichlet(g, 0.0, 3.25, params, orientation=-1)
        assert str(info.value) == "Newton stalled at residual 2.852e+00 (H=3.25)"
        assert outcomes[-len(solver._STEP_LENGTHS):] == \
            ["degenerate"] * len(solver._STEP_LENGTHS)

    def test_forced_step_that_helps_neither_stalls(self, monkeypatch):
        # a zero start on an off-centre disk past the fold, found by the
        # seeded random probe (`probe_matrix.py --random`): a forced full
        # step cuts min|nu| tenfold to 0.021, and in chase mode the next
        # candidate evaluates but does not lower min|nu|; the non-existence
        # it stands for would rather end as VerticalBlowup, so a change to
        # the globalization (ROADMAP item 2) may move this pin
        params = SpaceParams(0.5, 0.0)
        g = disk_grid(0.7708362494222822, 13, params,
                      center=(0.06747587521437837, -0.09214781217150597))
        outcomes = self._trial_outcomes(monkeypatch)
        with pytest.raises(NonConvergence) as info:
            solve_dirichlet(g, 0.0, 1.3908328828241383, params, orientation=1)
        assert str(info.value) == \
            "Newton stalled at residual 1.306e+00 (H=1.39083)"
        # the pass had a candidate: this is not the every-trial-skipped stall
        assert outcomes[-1] == "ok"

    def test_iteration_budget_exhausted(self, monkeypatch):
        # the budget guards the loop: a rectangle in Nil with tau = 3 past
        # the fold (a seeded random probe row, rounded) neither converges
        # nor turns vertical in 50 steps
        params = SpaceParams(0.0, 3.0)
        g = rectangle_grid((0.7, 0.94), 14, params, center=(0.24, 0.1))
        counts = _count_calls(monkeypatch, "mean_curvature_sensitivities")
        with pytest.raises(NonConvergence) as info:
            solve_dirichlet(g, 0.0, 1.2, params, orientation=1)
        assert str(info.value) == ("Newton exhausted 50 iterations, "
                                   "residual 3.762e-01 (H=1.2)")
        assert counts["mean_curvature_sensitivities"] == solver._MAX_NEWTON


class TestSolvesAlongH:
    """Independent solves along a sweep of H on one grid."""

    def test_heights_nondecreasing_on_success_prefix(self):
        g = disk_grid(1.0, 32, FLAT)
        heights = []
        for H in np.linspace(0.0, 1.1, 12):
            try:
                heights.append(graph_height(solve_dirichlet(g, 0.0, H, FLAT)))
            except (VerticalBlowup, NonConvergence):
                pass
        assert all(b >= a - 1e-6 for a, b in zip(heights, heights[1:]))


class TestSmallDomains:
    """Disks shrunk by powers of two: H R fixed, so the discrete problem is
    the unit disk's up to the residual's rounding floor, which grows with H."""

    @pytest.mark.parametrize("params", [FLAT, NIL, PSL])
    @pytest.mark.parametrize("k", [14, 30, 100])
    def test_tiny_disk_converges_to_the_flat_height(self, params, k):
        R = 2.0 ** -k
        H = 0.7 / R
        sol = solve_dirichlet(disk_grid(R, 32, params), 0.0, H, params)
        assert sol.newton_iterations == 3
        assert sol.residual_max <= math.ldexp(1e-10, math.frexp(H)[1] - 1)
        assert graph_height(sol) / R == pytest.approx(0.4074469511485,
                                                      rel=1e-9)

    @pytest.mark.parametrize("k", [250, 300])
    def test_ghost_weights_are_dilation_invariant(self, k):
        # the circle crossings in units of a power of two near R: the
        # closure of a disk of R = 2^-k is the unit disk's, to the bit
        g, g_k = disk_grid(1.0, 32, FLAT), disk_grid(2.0 ** -k, 32, FLAT)
        assert (g.closure_A != g_k.closure_A).nnz == 0


class TestSigmaProfile:
    def test_flat_section_is_totally_geodesic(self):
        g = disk_grid(0.6, 24, FLAT)
        sol = solve_dirichlet(g, 0.0, 0.0, FLAT)
        for _, s in sigma_profile(sol):
            assert s < 1e-12

    def test_nil_section_profile_matches_pointwise_norm(self):
        # sections with tau > 0 are minimal but not totally geodesic: the
        # profile reports the pointwise |sigma| of the section
        from ektau.graph_geometry import mean_curvature_arrays
        from ektau.model import ambient_components
        g = disk_grid(0.8, 24, NIL)
        sol = solve_dirichlet(g, 0.0, 0.0, NIL)
        prof = sigma_profile(sol)
        assert prof
        # the twist vanishes on the fiber axis and grows outward
        assert max(s for _, s in prof) > 0.05
        x, y = g.X[g.interior], g.Y[g.interior]
        d = mean_curvature_arrays(ambient_components(x, y, NIL),
                                  *np.zeros((5, x.size)))
        oracle = math.sqrt(d["sigma_sq"].max())
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
        far = []
        for H in np.linspace(0.1, 0.9, 5):
            sol = solve_dirichlet(g, 0.0, H, FLAT)
            far.extend(v for d, v in sigma_profile(sol) if d > 0.2)
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
        assert back.grid.params == sol.grid.params
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

        monkeypatch.setattr(errors.os, "replace", disk_full)
        with pytest.raises(IoFailure, match="disk full"):
            sol.save(path)
        assert path.read_text() == "old"

    def test_failed_write_leaves_no_temporary_file(self, tmp_path):
        target = tmp_path / "x.json"
        target.mkdir()                  # the rename onto it fails
        with pytest.raises(IoFailure) as info:
            errors.atomic_write(target, "text")
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
