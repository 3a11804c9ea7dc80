"""Discrete stability operators, eigensolver, angle-function residual."""

import dataclasses
import functools
import math
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from q1_oracle import q1_assemble

from ektau import model, rotational, stability
from ektau.errors import ConfigInvalid, IterationLimit
from ektau.model import SpaceParams
from ektau.solver import _nd_order, disk_grid, rectangle_grid, solve_dirichlet
from ektau.stability import (_KRYLOV_BASIS, DiscreteOperator,
                             angle_jacobi_residual, assemble_jacobi,
                             cylinder_stability, smallest_eigenvalue)

NIL = SpaceParams(0.0, 0.5)
PSL = SpaceParams(-1.0, 0.5)
FLAT = SpaceParams(0.0, 0.0)


def unit_square_operator(n=40):
    g = rectangle_grid((0.5, 0.5), n, FLAT, center=(0.5, 0.5))
    sol = solve_dirichlet(g, 0.0, 0.0, FLAT)
    return assemble_jacobi(sol), sol


class TestAssembly:
    def test_symmetry(self):
        op, _ = unit_square_operator(32)
        assert abs(op.matrix - op.matrix.T).max() < 1e-12

    def test_mass_positive(self):
        op, _ = unit_square_operator(24)
        assert op.mass.min() > 0

    def test_flat_section_reduces_to_dirichlet_laplacian(self):
        # q = 0 and W = identity: lambda_min -> 2 pi^2 on the unit square
        op, _ = unit_square_operator(48)
        rep = smallest_eigenvalue(op)
        assert rep.lambda_min == pytest.approx(2 * math.pi**2, rel=0.01)

    def test_rayleigh_quotient_matches_direct_quadrature(self):
        # energy of a compactly supported test function computed through
        # the assembled matrix vs direct midpoint quadrature of
        # |grad f|^2_I - q f^2 with the induced metric
        g = disk_grid(0.6, 48, NIL)
        sol = solve_dirichlet(g, 0.0, 0.7, NIL)
        op = assemble_jacobi(sol)
        X, Y = g.X[g.interior], g.Y[g.interior]
        bump = np.cos(0.5 * np.pi * np.hypot(X, Y) / 0.6) ** 2
        bump[np.hypot(X, Y) > 0.59] = 0.0
        energy_matrix = float(bump @ (op.matrix @ bump))

        from ektau.graph_geometry import (jacobi_potential_from,
                                          mean_curvature_arrays)
        fx, fy, fxx, fxy, fyy = sol.jets()
        d = mean_curvature_arrays(g.ambient(), fx, fy, fxx, fxy, fyy,
                                  sol.orientation)
        q = jacobi_potential_from(d["nu"], d["sigma_sq"], g.params)
        det = d["det_I"]
        full = np.zeros((g.n, g.n))
        full[g.interior] = bump
        gx = np.zeros_like(full)
        gy = np.zeros_like(full)
        gx[1:-1, :] = (full[2:, :] - full[:-2, :]) / (2 * g.hx)
        gy[:, 1:-1] = (full[:, 2:] - full[:, :-2]) / (2 * g.hy)
        gxi, gyi = gx[g.interior], gy[g.interior]
        grad_sq = (d["I22"] * gxi**2 - 2 * d["I12"] * gxi * gyi
                   + d["I11"] * gyi**2) / det
        energy_quad = float(np.sum((grad_sq - q * bump**2) * np.sqrt(det))
                            * g.hx * g.hy)
        assert energy_matrix == pytest.approx(energy_quad, rel=0.02)


class TestAgainstCornerPairOracle:
    """The index-arithmetic CSR assembly against the COO corner-pair one."""

    @staticmethod
    def assert_close(A, lump, K, lump_ref):
        assert A.shape == K.shape
        assert abs(A - K).max() <= 1e-14 * abs(K).max()
        assert np.max(np.abs(lump - lump_ref)) <= 1e-14 * np.max(lump_ref)

    @pytest.mark.parametrize("n", [24, 48, 96])
    @pytest.mark.parametrize("params,center,H", [
        (NIL, (0.13, -0.07), 0.7), (PSL, (-0.1, 0.2), 0.6)])
    def test_off_centre_disks(self, n, params, center, H):
        g = disk_grid(0.7, n, params, center=center)
        sol = solve_dirichlet(g, 0.0, H, params)
        op = assemble_jacobi(sol)
        f = stability._solution_fields(sol)
        K, lump = q1_assemble(g.idx, f["W11"], f["W12"], f["W22"],
                              f["sqrt_det"], f["q"], g.hx, g.hy)
        self.assert_close(op.matrix, op.mass, K, lump)

    @pytest.mark.parametrize("n", [24, 48, 96])
    def test_flat_rectangle(self, n):
        g = rectangle_grid((0.5, 0.3), n, FLAT, center=(0.2, -0.1))
        sol = solve_dirichlet(g, 0.0, 0.9, FLAT)
        op = assemble_jacobi(sol)
        f = stability._solution_fields(sol)
        K, lump = q1_assemble(g.idx, f["W11"], f["W12"], f["W22"],
                              f["sqrt_det"], f["q"], g.hx, g.hy)
        self.assert_close(op.matrix, op.mass, K, lump)


def _shifted_mmd_factor(op):
    """SuperLU of the shifted, mass-scaled operator in minimum-degree order."""
    d = sp.diags(1.0 / np.sqrt(op.mass))
    B = (d @ op.matrix @ d).tocsr()
    lb = op.lower_bound
    shift = lb - 1e-3 * max(1.0, abs(lb))
    M = (B - shift * sp.identity(op.mass.size, format="csr")).tocsc()
    return spla.splu(M, permc_spec="MMD_AT_PLUS_A",
                     options=dict(SymmetricMode=True))


class TestNestedDissection:
    @pytest.mark.parametrize("n", [64, 96])
    @pytest.mark.parametrize("params", [NIL, PSL])
    def test_fill_at_most_minimum_degree(self, monkeypatch, params, n):
        sol = solve_dirichlet(disk_grid(1.0, n, params), 0.0, 0.8, params)
        op = assemble_jacobi(sol)
        factors = []
        real = spla.splu

        def recording_splu(*args, **kwargs):
            factors.append(real(*args, **kwargs))
            return factors[-1]

        monkeypatch.setattr(spla, "splu", recording_splu)
        rep = smallest_eigenvalue(op)
        lu, = factors
        mmd = _shifted_mmd_factor(op)
        assert lu.L.nnz + lu.U.nnz <= mmd.L.nnz + mmd.U.nnz
        rep_mmd = smallest_eigenvalue(dataclasses.replace(op, ordering=None))
        assert rep.lambda_min == pytest.approx(rep_mmd.lambda_min, rel=1e-12)

    def test_graph_operator_takes_the_grid_order(self):
        sol = solve_dirichlet(disk_grid(1.0, 24, PSL), 0.0, 0.8, PSL)
        assert assemble_jacobi(sol).ordering is sol.grid.nd_order()

    @pytest.mark.parametrize("shape", [(8, 8), (33, 33), (16, 40)])
    def test_order_is_a_permutation_with_separating_lines(self, shape):
        order = _nd_order(*shape)[0]
        assert np.array_equal(np.sort(order), np.arange(order.size))
        assert not order.flags.writeable
        rank = np.argsort(order).reshape(shape)
        # the last node numbered lies on the first cut, which splits the
        # box across its longer side into two halves numbered before it
        i, j = np.unravel_index(np.argmax(rank), shape)
        nx, ny = shape
        if nx >= ny:
            cut, low, high = rank[i], rank[:i], rank[i + 1:]
        else:
            cut, low, high = rank[:, j], rank[:, :j], rank[:, j + 1:]
        assert low.max() < high.min() and high.max() < cut.min()


@functools.lru_cache(maxsize=None)
def _centred_disk_solution(space, n):
    params = {"nil": NIL, "psl": PSL, "flat": FLAT}[space]
    R = 0.5 if space == "flat" else 1.0
    return solve_dirichlet(disk_grid(R, n, params), 0.0, 0.7 / R, params)


class TestRotationAboutTheAxis:
    @settings(max_examples=30, deadline=None)
    @given(space=st.sampled_from(["nil", "psl", "flat"]),
           n=st.sampled_from([24, 33, 48]), k=st.integers(1, 3))
    def test_lambda_min_unchanged_by_quarter_turns(self, space, n, k):
        # a turn about the z-axis is an isometry of E(kappa, tau), and a
        # quarter turn maps the centred disk lattice to itself
        sol = _centred_disk_solution(space, n)
        assert np.array_equal(np.rot90(sol.grid.interior, k), sol.grid.interior)
        turned = dataclasses.replace(sol, values=np.rot90(sol.values, k).copy())
        lam = smallest_eigenvalue(assemble_jacobi(sol)).lambda_min
        lam_turned = smallest_eigenvalue(assemble_jacobi(turned)).lambda_min
        assert lam_turned == pytest.approx(lam, rel=1e-12)


class TestSmallestEigenvalue:
    def test_against_lanczos_oracle(self):
        g = disk_grid(0.5, 40, FLAT)
        sol = solve_dirichlet(g, 0.0, 1.0, FLAT)
        op = assemble_jacobi(sol)
        rep = smallest_eigenvalue(op)
        d = sp.diags(1.0 / np.sqrt(op.mass))
        B = (d @ op.matrix @ d).tocsc()
        oracle = spla.eigsh(B, k=1, which="SA", maxiter=10000)[0][0]
        assert rep.lambda_min == pytest.approx(oracle, abs=1e-8)
        assert rep.eigvec_residual < 1e-8

    def test_constant_potential_shift_is_exact(self):
        op, _ = unit_square_operator(32)
        rep = smallest_eigenvalue(op)
        c = 3.7
        shifted = DiscreteOperator((op.matrix - c * sp.diags(op.mass)).tocsr(),
                                   op.mass, op.lower_bound - c)
        rep_c = smallest_eigenvalue(shifted)
        assert rep_c.lambda_min == pytest.approx(rep.lambda_min - c, abs=1e-8)

    def test_one_factorization_per_solve(self, monkeypatch):
        sol = solve_dirichlet(disk_grid(1.0, 32, PSL), 0.0, 0.8, PSL)
        graph_op = assemble_jacobi(sol)
        calls = []
        real = spla.splu

        def counting_splu(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(spla, "splu", counting_splu)
        smallest_eigenvalue(graph_op)
        assert len(calls) == 1
        # a cylinder's stability is closed form: nothing to factor
        cylinder_stability(1.0, NIL)
        assert len(calls) == 1

    def test_graph_lower_bound_below_lanczos_oracle(self):
        for params, R, H in ((PSL, 1.0, 0.8), (FLAT, 0.5, 1.0)):
            sol = solve_dirichlet(disk_grid(R, 40, params), 0.0, H, params)
            op = assemble_jacobi(sol)
            d = sp.diags(1.0 / np.sqrt(op.mass))
            B = (d @ op.matrix @ d).tocsc()
            oracle = spla.eigsh(B, k=1, which="SA", maxiter=10000)[0][0]
            assert op.lower_bound <= oracle

    def test_guard_recovers_ground_state_orthogonal_to_start(self):
        # blocks [[2, 1], [1, 2]]: the ones vector is an eigenvector for 3,
        # orthogonal to the ground state (1, -1) with eigenvalue 1
        m = 20
        A = sp.kron(sp.identity(m), sp.csr_matrix([[2.0, 1.0], [1.0, 2.0]]))
        op = DiscreteOperator(A.tocsr(), np.ones(2 * m), lower_bound=1.0)
        rep = smallest_eigenvalue(op)
        assert rep.lambda_min == pytest.approx(1.0, abs=1e-10)
        assert rep.eigvec_residual < 1e-10

    def test_restarts_when_the_basis_fills(self):
        # Dirichlet Laplacian tridiag(-1, 2, -1) at its Gershgorin bound 0:
        # lambda_1 ~ 6e-7 sits so close to lambda_2 relative to the shift
        # that the basis fills and restarts from its Ritz vector
        n = 4000
        A = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                     [-1, 0, 1])
        op = DiscreteOperator(A.tocsr(), np.ones(n), lower_bound=0.0)
        rep = smallest_eigenvalue(op)
        assert rep.iterations > _KRYLOV_BASIS
        exact = 2.0 - 2.0 * math.cos(math.pi / (n + 1))
        assert rep.lambda_min == pytest.approx(exact, rel=1e-9)
        assert rep.eigvec_residual <= 1e-10

    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_operator_past_2_to_the_500_is_scaled(self, scale):
        # the Krylov norms square the entries: no overflow, and no run to
        # the solve budget
        n = 50
        A = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                     [-1, 0, 1]) * scale
        rep = smallest_eigenvalue(DiscreteOperator(A.tocsr(), np.ones(n), 0.0))
        exact = scale * 2.0 * (1.0 - math.cos(math.pi / (n + 1)))
        assert rep.lambda_min == pytest.approx(exact, rel=1e-10)

    def test_tiny_mass_scales_the_matrix_before_the_product(self):
        # max|A| / min(mass) ~ 4e310 overflows the mass scaling unless A is
        # scaled first; lambda ~ 3.8e307 is a finite float (warnings are
        # errors, so an overflow warning fails here too)
        n = 50
        A = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                     [-1, 0, 1]) * 1e10
        rep = smallest_eigenvalue(DiscreteOperator(A.tocsr(), np.full(n, 1e-300),
                                                   0.0))
        exact = 1e10 * 2.0 * (1.0 - math.cos(math.pi / (n + 1))) / 1e-300
        assert rep.lambda_min == pytest.approx(exact, rel=1e-12)

    def test_tiny_disk_keeps_the_unit_disk_eigenvalue(self):
        # R = 2^-300: the Jacobi operator's entries are of order 2^600
        lams = []
        for R in (1.0, 2.0 ** -300):
            sol = solve_dirichlet(disk_grid(R, 16, FLAT), 0.0, 0.7 / R, FLAT)
            lams.append(smallest_eigenvalue(assemble_jacobi(sol)).lambda_min
                        * R * R)
        assert lams[1] == pytest.approx(lams[0], rel=1e-12)
        assert lams[0] == pytest.approx(3.0829128420238, rel=1e-12)

    def test_iteration_limit(self, monkeypatch):
        op, _ = unit_square_operator(24)
        monkeypatch.setattr(stability, "_EIG_MAX_SOLVES", 2)
        with pytest.raises(IterationLimit, match="did not converge in 2"):
            smallest_eigenvalue(op)

    def test_factor_failure(self, monkeypatch):
        op, _ = unit_square_operator(16)

        def singular(*args):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(stability, "_factor", singular)
        with pytest.raises(IterationLimit,
                           match="could not factor the shifted operator"):
            smallest_eigenvalue(op)

    @pytest.mark.parametrize("entry", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_mass(self, entry):
        op, _ = unit_square_operator(16)
        m = op.mass.copy()
        m[3] = entry
        bad = DiscreteOperator(op.matrix, m, op.lower_bound)
        with pytest.raises(ValueError, match="mass diagonal"):
            smallest_eigenvalue(bad)

    def test_rejects_non_square_matrix(self):
        op, _ = unit_square_operator(16)
        bad = DiscreteOperator(op.matrix[:, :-1], op.mass, op.lower_bound)
        with pytest.raises(ValueError, match="must be square"):
            smallest_eigenvalue(bad)

    def test_rejects_mass_not_matching_matrix(self, monkeypatch):
        op, _ = unit_square_operator(16)
        n = op.mass.size
        calls = []
        monkeypatch.setattr(spla, "splu", lambda *a, **k: calls.append(1))
        with pytest.raises(ConfigInvalid, match="1-d real array of %d entries"
                           % n):
            smallest_eigenvalue(DiscreteOperator(op.matrix, op.mass[:-1],
                                                 op.lower_bound))
        assert not calls

    @pytest.mark.parametrize("mass", [
        np.diag, lambda m: m[:, None], list, lambda m: m > 0, lambda m: None],
        ids=["square", "column", "list", "bool", "none"])
    def test_rejects_mass_that_is_no_1d_real_array(self, monkeypatch, mass):
        # a 2-d array, a column, a list, a bool array and None, each before
        # any factorization and none as a raw TypeError
        op, _ = unit_square_operator(16)
        calls = []
        monkeypatch.setattr(spla, "splu", lambda *a, **k: calls.append(1))
        with pytest.raises(ConfigInvalid, match="mass must be the lumped diagonal"):
            smallest_eigenvalue(DiscreteOperator(op.matrix, mass(op.mass),
                                                 op.lower_bound))
        assert not calls

    def test_rejects_consistent_mass(self, monkeypatch):
        # P1 Dirichlet problem on 50 nodes with its consistent mass: reading
        # only the mass diagonal would give 754.786, the true generalized
        # eigenvalue is 503.509
        n, h = 50, 1.0 / 51
        K = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                     [-1, 0, 1]) / h ** 2
        M = sp.diags([np.ones(n - 1), 4 * np.ones(n), np.ones(n - 1)],
                     [-1, 0, 1]) * (h / 6)
        exact = scipy.linalg.eigh(K.toarray(), M.toarray(),
                                  eigvals_only=True)[0]
        assert exact == pytest.approx(503.509, abs=1e-3)
        calls = []
        monkeypatch.setattr(spla, "splu", lambda *a, **k: calls.append(1))
        with pytest.raises(ConfigInvalid, match="mass must be the lumped "
                           "diagonal, a 1-d real array of 50 entries"):
            smallest_eigenvalue(DiscreteOperator(K.tocsr(), M.tocsr(),
                                                 lower_bound=0.0))
        assert not calls

    @pytest.mark.parametrize("ordering", [[0, 0, 1], [0, 1, 3], [2, 1]])
    def test_rejects_ordering_that_is_no_permutation(self, ordering):
        op = DiscreteOperator(sp.identity(3, format="csr"), np.ones(3),
                              lower_bound=1.0, ordering=ordering)
        with pytest.raises(ValueError, match="permutation of the 3 unknowns"):
            smallest_eigenvalue(op)

    def test_diagonal_missing_from_the_pattern_is_shifted(self):
        # [[0, 1], [1, 0]] blocks store no diagonal: eigenvalues -1 and 1
        m = 10
        A = sp.kron(sp.identity(m), sp.csr_matrix([[0.0, 1.0], [1.0, 0.0]]))
        A = A.tocsr()
        A.eliminate_zeros()
        assert not A.diagonal().any() and A.nnz == 2 * m
        rep = smallest_eigenvalue(
            DiscreteOperator(A, np.ones(2 * m), lower_bound=-1.0))
        assert rep.lambda_min == pytest.approx(-1.0, abs=1e-10)

    @pytest.mark.parametrize("bound", ["0", math.nan, math.inf, -math.inf])
    def test_rejects_lower_bound_that_is_no_finite_real(self, monkeypatch,
                                                        bound):
        # a string escaped as a raw TypeError, NaN and +inf as a failed
        # factor, and -inf ran the whole Lanczos budget
        op, _ = unit_square_operator(16)
        calls = []
        monkeypatch.setattr(spla, "splu", lambda *a, **k: calls.append(1))
        with pytest.raises(ConfigInvalid, match="lower bound of the spectrum "
                           "must be a finite real"):
            smallest_eigenvalue(DiscreteOperator(op.matrix, op.mass, bound))
        assert not calls

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_rejects_non_finite_matrix_entry(self, monkeypatch, entry):
        op, _ = unit_square_operator(16)
        A = op.matrix.copy()
        A.data[7] = entry
        calls = []
        monkeypatch.setattr(spla, "splu", lambda *a, **k: calls.append(1))
        with pytest.raises(ValueError, match="non-finite entry"):
            smallest_eigenvalue(DiscreteOperator(A, op.mass, op.lower_bound))
        assert not calls

    def test_solved_graphs_are_stable(self):
        for params, R, H in ((FLAT, 0.5, 1.0), (NIL, 1.0, 0.8), (PSL, 1.0, 0.8)):
            sol = solve_dirichlet(disk_grid(R, 40, params), 0.0, H, params)
            rep = smallest_eigenvalue(assemble_jacobi(sol))
            assert rep.lambda_min > 0.0


class TestAngleJacobiResidual:
    def test_flat_section_residual_zero(self):
        g = rectangle_grid((0.5, 0.5), 32, FLAT)
        sol = solve_dirichlet(g, 0.0, 0.0, FLAT)
        assert angle_jacobi_residual(sol) == pytest.approx(0.0, abs=1e-13)

    def test_cap_residual_second_order(self):
        res = {}
        for n in (32, 64, 128):
            sol = solve_dirichlet(disk_grid(0.5, n, FLAT), 0.0, 1.0, FLAT)
            res[n] = angle_jacobi_residual(sol, margin=0.15)
        assert 3.0 <= res[32] / res[64] <= 5.0
        assert 3.0 <= res[64] / res[128] <= 5.0

    def test_residual_commensurate_with_solver_scale(self):
        sol = solve_dirichlet(disk_grid(0.8, 48, NIL), 0.0, 0.6, NIL)
        # the discrete angle function satisfies its equation up to the
        # discretization scale h^2, far above the solver residual
        assert angle_jacobi_residual(sol) < 0.1


def tube_eigenvalue(H, params):
    """Smallest eigenvalue of the cylinder's Jacobi operator, Laplacian +
    (4H^2 + kappa), on a 40 x 80 Q1 tube (around the base curve, along the
    axis) of length 20/(2H), periodic around a closed curve and with free
    ends otherwise; assembled by the corner-pair oracle in the unit scale
    of (H, params) and scaled back by 4^e."""
    e, H1, p1 = model.floored_unit_scale(H, params, "tube")
    curve = rotational.cmc_cylinder_curve(H1, p1)
    c = 4.0 * H1 * H1 + p1.kappa
    L = 20.0 / (2.0 * H1)
    nx, ny = 40, 80
    if curve.closed:
        # induced flat metric in (arclength, z): [[1 + F^2, F], [F, 1]] with
        # F = <gamma', dz>; det 1, so its inverse is [[1, -F], [-F, 1 + F^2]]
        r = curve.model_radius
        a = model.ambient_components(r, 0.0, p1)
        F = a.g_yz / a.lam                 # unit base tangent at (r, 0) is dy/lam
        Gi, hx = (1.0, -F, 1.0 + F * F), 2.0 * math.pi * r * a.lam / nx
    else:
        Gi, hx = (1.0, 0.0, 1.0), L / (nx - 1)
    dof = np.arange(nx * ny).reshape(nx, ny)
    A, lump = q1_assemble(dof, *Gi, 1.0, c, hx, L / (ny - 1),
                          periodic_x=curve.closed)
    # the stiffness is positive semidefinite, so -c bounds the spectrum
    op = DiscreteOperator(A, lump, lower_bound=-c)
    return math.ldexp(smallest_eigenvalue(op).lambda_min, 2 * e), curve.closed


class TestCylinderStability:
    @pytest.mark.parametrize("kappa,H,closed", [
        (0.0, 1.0, True), (-1.0, 1.0, True), (-1.0, 0.3, False),
        (-9.0, 1.0, False)])
    def test_tube_eigensolve_realizes_the_margin(self, kappa, H, closed):
        # the closed form against a discretized spectrum: the constant mode
        # attains -(4H^2 + kappa) on the tube, and no mode goes below it
        params = SpaceParams(kappa, 0.5)
        cs = cylinder_stability(H, params)
        lam, tube_closed = tube_eigenvalue(H, params)
        assert cs.closed == tube_closed == closed
        assert abs(lam - cs.margin) <= 1e-12 * max(1.0, abs(cs.margin))
        assert cs.lambda_min_spectral == cs.margin

    def test_nil_cylinder_unstable(self):
        cs = cylinder_stability(1.0, NIL)
        assert not cs.stable and cs.margin == -4.0
        assert cs.closed

    def test_boundary_case_stable(self):
        cs = cylinder_stability(1.0, SpaceParams(-4.0, 0.5))
        assert cs.stable and cs.margin == 0.0

    def test_deep_hyperbolic_stable(self):
        cs = cylinder_stability(1.0, SpaceParams(-9.0, 0.5))
        assert cs.stable and cs.margin == 5.0
        assert not cs.closed

    def test_spectral_surrogate_realizes_constant_mode(self):
        for kappa, H in ((0.0, 1.0), (-9.0, 1.0), (-1.0, 0.4)):
            cs = cylinder_stability(H, SpaceParams(kappa, 0.5))
            assert cs.lambda_min_spectral == cs.margin

    @pytest.mark.parametrize("H", [math.nan, math.inf, -math.inf, 0.0])
    def test_rejects_non_finite_or_non_positive_H(self, H):
        with pytest.raises(ValueError, match="finite H > 0"):
            cylinder_stability(H, NIL)

    @pytest.mark.parametrize("H, params, message", [
        (1e-200, NIL, "cylinder stability needs H >= 2^-511 max(tau, "
         "sqrt(-kappa)), got 1e-200"),
        (1e200, NIL, "cylinder stability at H = 1e+200: the margin -6.82693 "
         "* 4^664 leaves the float range"),
        (1e-160, SpaceParams(0.0, 0.0), "cylinder stability at H = 1e-160: "
         "the margin -7.90634 * 4^-532 leaves the float range")])
    def test_rejects_H_past_the_float_range_before_assembly(self, monkeypatch,
                                                            H, params,
                                                            message):
        calls = []
        monkeypatch.setattr(stability, "_q1_assemble",
                            lambda *a, **k: calls.append(1))
        with pytest.raises(ConfigInvalid, match=re.escape(message)):
            cylinder_stability(H, params)
        assert not calls

    @pytest.mark.parametrize("params", [NIL, PSL, SpaceParams(-100.0, 0.5)])
    @pytest.mark.parametrize("H", [1.3e-151, 1.2e74])
    def test_H_at_either_end_of_the_range_keeps_the_closed_form(self, params,
                                                                H):
        # no overflow warning (warnings are errors) and the constant mode
        cs = cylinder_stability(H, params)
        c = 4.0 * H * H + params.kappa
        assert cs.lambda_min_spectral == pytest.approx(-c, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("H, params", [
        (1.2e-151, NIL), (1.3e74, NIL), (1e100, NIL), (1e150, NIL),
        (0.3, SpaceParams(-1e200, 0.5)), (0.3, SpaceParams(-1e300, 0.5))])
    def test_far_scales_keep_the_closed_form(self, H, params):
        # the margin is evaluated in the unit scale: only the normalized H
        # and the margin itself are limited
        cs = cylinder_stability(H, params)
        c = 4.0 * H * H + params.kappa
        assert cs.lambda_min_spectral == pytest.approx(-c, rel=1e-12, abs=1e-12)
        assert cs.margin == pytest.approx(-c, rel=1e-15)

    def test_sign_grid(self):
        for H in (0.25, 0.5, 1.0, 2.0):
            for kappa in (0.0, -1.0, -4.0, -9.0):
                cs = cylinder_stability(H, SpaceParams(kappa, 0.5))
                assert cs.stable == (4 * H * H + kappa <= 0)
                assert cs.spectral_stable == cs.stable
