"""Discrete stability operators, eigensolver, angle-function residual."""

import dataclasses
import functools
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from q1_oracle import q1_assemble

from ektau import stability
from ektau.errors import IterationLimit
from ektau.model import SpaceParams
from ektau.solver import disk_grid, rectangle_grid, solve_dirichlet
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
        assert op.mass.diagonal().min() > 0

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
        q = jacobi_potential_from(d["nu"], d["sigma_sq"], sol.params)
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
        self.assert_close(op.matrix, op.mass.diagonal(), K, lump)

    @pytest.mark.parametrize("n", [24, 48, 96])
    def test_flat_rectangle(self, n):
        g = rectangle_grid((0.5, 0.3), n, FLAT, center=(0.2, -0.1))
        sol = solve_dirichlet(g, 0.0, 0.9, FLAT)
        op = assemble_jacobi(sol)
        f = stability._solution_fields(sol)
        K, lump = q1_assemble(g.idx, f["W11"], f["W12"], f["W22"],
                              f["sqrt_det"], f["q"], g.hx, g.hy)
        self.assert_close(op.matrix, op.mass.diagonal(), K, lump)

    @pytest.mark.parametrize("kappa,H,closed", [
        (0.0, 1.0, True), (-1.0, 1.0, True), (-1.0, 0.3, False)])
    def test_cylinder_lattices(self, monkeypatch, kappa, H, closed):
        calls = []
        real = stability._q1_assemble

        def recording(*args, **kwargs):
            calls.append((args, kwargs, real(*args, **kwargs)))
            return calls[-1][2]

        monkeypatch.setattr(stability, "_q1_assemble", recording)
        assert cylinder_stability(H, SpaceParams(kappa, 0.5)).closed == closed
        (args, kwargs, (A, lump)), = calls
        assert kwargs == {"periodic_x": closed}
        K, lump_ref = q1_assemble(*args, **kwargs)
        self.assert_close(A, lump, K, lump_ref)


def _shifted_mmd_factor(op):
    """SuperLU of the shifted, mass-scaled operator in minimum-degree order."""
    d = sp.diags(1.0 / np.sqrt(op.mass.diagonal()))
    B = (d @ op.matrix @ d).tocsr()
    lb = op.lower_bound
    shift = lb - 1e-3 * max(1.0, abs(lb))
    M = (B - shift * sp.identity(op.dimension, format="csr")).tocsc()
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

    @pytest.mark.parametrize("shape", [(8, 8), (33, 33), (16, 40)])
    def test_order_is_a_permutation_with_separating_lines(self, shape):
        order = stability._nd_order(*shape)
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
        d = sp.diags(1.0 / np.sqrt(op.mass.diagonal()))
        B = (d @ op.matrix @ d).tocsc()
        oracle = spla.eigsh(B, k=1, which="SA", maxiter=10000)[0][0]
        assert rep.lambda_min == pytest.approx(oracle, abs=1e-8)
        assert rep.eigvec_residual < 1e-8

    def test_constant_potential_shift_is_exact(self):
        op, _ = unit_square_operator(32)
        rep = smallest_eigenvalue(op)
        c = 3.7
        shifted = DiscreteOperator(op.dimension,
                                   (op.matrix - c * op.mass).tocsr(), op.mass)
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
        cylinder_stability(1.0, NIL)
        assert len(calls) == 2

    def test_graph_lower_bound_below_lanczos_oracle(self):
        for params, R, H in ((PSL, 1.0, 0.8), (FLAT, 0.5, 1.0)):
            sol = solve_dirichlet(disk_grid(R, 40, params), 0.0, H, params)
            op = assemble_jacobi(sol)
            d = sp.diags(1.0 / np.sqrt(op.mass.diagonal()))
            B = (d @ op.matrix @ d).tocsc()
            oracle = spla.eigsh(B, k=1, which="SA", maxiter=10000)[0][0]
            assert op.lower_bound <= oracle

    def test_guard_recovers_ground_state_orthogonal_to_start(self):
        # blocks [[2, 1], [1, 2]]: the ones vector is an eigenvector for 3,
        # orthogonal to the ground state (1, -1) with eigenvalue 1
        m = 20
        A = sp.kron(sp.identity(m), sp.csr_matrix([[2.0, 1.0], [1.0, 2.0]]))
        op = DiscreteOperator(2 * m, A.tocsr(), sp.identity(2 * m, format="csr"))
        rep = smallest_eigenvalue(op)
        assert rep.lambda_min == pytest.approx(1.0, abs=1e-10)
        assert rep.eigvec_residual < 1e-10

    def test_restarts_when_the_basis_fills(self):
        # Dirichlet Laplacian tridiag(-1, 2, -1) at the Gershgorin shift:
        # lambda_1 ~ 6e-7 sits so close to lambda_2 relative to the shift
        # that the basis fills and restarts from its Ritz vector
        n = 4000
        A = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                     [-1, 0, 1])
        op = DiscreteOperator(n, A.tocsr(), sp.identity(n, format="csr"))
        rep = smallest_eigenvalue(op)
        assert rep.iterations > _KRYLOV_BASIS
        exact = 2.0 - 2.0 * math.cos(math.pi / (n + 1))
        assert rep.lambda_min == pytest.approx(exact, rel=1e-9)
        assert rep.eigvec_residual <= 1e-10

    def test_iteration_limit(self, monkeypatch):
        op, _ = unit_square_operator(24)
        monkeypatch.setattr(stability, "_EIG_MAX_SOLVES", 2)
        with pytest.raises(IterationLimit, match="did not converge in 2"):
            smallest_eigenvalue(op)

    @pytest.mark.parametrize("entry", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_mass(self, entry):
        op, _ = unit_square_operator(16)
        m = op.mass.diagonal().copy()
        m[3] = entry
        bad = DiscreteOperator(op.dimension, op.matrix, sp.diags(m).tocsr(),
                               op.lower_bound)
        with pytest.raises(ValueError, match="mass diagonal"):
            smallest_eigenvalue(bad)

    def test_rejects_non_square_matrix(self):
        op, _ = unit_square_operator(16)
        bad = DiscreteOperator(op.dimension, op.matrix[:, :-1], op.mass)
        with pytest.raises(ValueError, match="must be square"):
            smallest_eigenvalue(bad)

    def test_rejects_matrix_not_matching_dimension(self):
        op, _ = unit_square_operator(16)
        bad = DiscreteOperator(op.dimension + 1, op.matrix, op.mass)
        with pytest.raises(ValueError, match="dimension is %d" % (op.dimension + 1)):
            smallest_eigenvalue(bad)

    def test_rejects_mass_not_matching_matrix(self):
        op, _ = unit_square_operator(16)
        mass = sp.diags(op.mass.diagonal()[:-1]).tocsr()
        bad = DiscreteOperator(op.dimension, op.matrix, mass)
        with pytest.raises(ValueError, match="mass matrix is"):
            smallest_eigenvalue(bad)

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
        with pytest.raises(ValueError, match=r"must be diagonal \(lumped\)"):
            smallest_eigenvalue(DiscreteOperator(n, K.tocsr(), M.tocsr(),
                                                 lower_bound=0.0))
        assert not calls

    @pytest.mark.parametrize("ordering", [[0, 0, 1], [0, 1, 3], [2, 1]])
    def test_rejects_ordering_that_is_no_permutation(self, ordering):
        op = DiscreteOperator(3, sp.identity(3, format="csr"),
                              sp.identity(3, format="csr"), ordering=ordering)
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
            DiscreteOperator(2 * m, A, sp.identity(2 * m, format="csr")))
        assert rep.lambda_min == pytest.approx(-1.0, abs=1e-10)

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_rejects_non_finite_matrix_entry(self, monkeypatch, entry):
        op, _ = unit_square_operator(16)
        A = op.matrix.copy()
        A.data[7] = entry
        calls = []
        monkeypatch.setattr(spla, "splu", lambda *a, **k: calls.append(1))
        with pytest.raises(ValueError, match="non-finite entry"):
            smallest_eigenvalue(DiscreteOperator(op.dimension, A, op.mass))
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


class TestCylinderStability:
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
            assert cs.lambda_min_spectral == pytest.approx(cs.margin, abs=1e-6)

    @pytest.mark.parametrize("H", [math.nan, math.inf, -math.inf, 0.0])
    def test_rejects_non_finite_or_non_positive_H(self, H):
        with pytest.raises(ValueError, match="finite H > 0"):
            cylinder_stability(H, NIL)

    def test_sign_grid(self):
        for H in (0.25, 0.5, 1.0, 2.0):
            for kappa in (0.0, -1.0, -4.0, -9.0):
                cs = cylinder_stability(H, SpaceParams(kappa, 0.5))
                assert cs.stable == (4 * H * H + kappa <= 0)
                if abs(cs.margin) > 0.1:
                    assert cs.spectral_stable == cs.stable
