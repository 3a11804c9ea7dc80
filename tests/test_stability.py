"""Discrete stability operators, eigensolver, angle-function residual."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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

        from ektau.graph_geometry import jacobi_potential_from, shape_arrays
        fx, fy, fxx, fxy, fyy = sol.jets()
        d = shape_arrays(g.ambient(), fx, fy, fxx, fxy, fyy, sol.orientation)
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

    def test_iteration_limit(self):
        op, _ = unit_square_operator(24)
        with pytest.raises(IterationLimit, match="did not converge in 2"):
            smallest_eigenvalue(op, max_iter=2)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
    def test_rejects_bad_tol(self, tol):
        op, _ = unit_square_operator(16)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            smallest_eigenvalue(op, tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_rejects_bad_max_iter(self, max_iter):
        op, _ = unit_square_operator(16)
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            smallest_eigenvalue(op, max_iter=max_iter)

    @pytest.mark.parametrize("entry", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_mass(self, entry):
        op, _ = unit_square_operator(16)
        m = op.mass.diagonal().copy()
        m[3] = entry
        bad = DiscreteOperator(op.dimension, op.matrix, sp.diags(m).tocsr(),
                               op.lower_bound)
        with pytest.raises(ValueError, match="mass diagonal"):
            smallest_eigenvalue(bad)

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

    @pytest.mark.parametrize("n_circle, n_axis", [(0, 80), (2, 80), (40, 1),
                                                  (40, 0)])
    def test_rejects_too_few_nodes(self, n_circle, n_axis):
        for kappa in (0.0, -9.0):           # closed and open base curves
            with pytest.raises(ValueError, match="n_circle >= 3"):
                cylinder_stability(1.0, SpaceParams(kappa, 0.5),
                                   n_circle=n_circle, n_axis=n_axis)

    def test_sign_grid(self):
        for H in (0.25, 0.5, 1.0, 2.0):
            for kappa in (0.0, -1.0, -4.0, -9.0):
                cs = cylinder_stability(H, SpaceParams(kappa, 0.5))
                assert cs.stable == (4 * H * H + kappa <= 0)
                if abs(cs.margin) > 0.1:
                    assert cs.spectral_stable == cs.stable
