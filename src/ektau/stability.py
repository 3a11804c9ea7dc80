"""Discrete Jacobi (stability) operators on solved graphs and CMC cylinders.

The quadratic form of the second variation is discretized in weak form:
bilinear (Q1) elements on the solution lattice for the Laplace-Beltrami
part, with the induced metric entering through the coefficient
W = sqrt(det I) I^{-1} and the area weights sqrt(det I) h^2, and a lumped
potential from the pointwise Jacobi potential.  Dirichlet conditions
(compactly supported variations) are imposed by restricting to interior
nodes.

The smallest eigenvalue of the generalized symmetric problem is computed
by shift-invert Lanczos (Ericsson and Ruhe 1980, Math. Comp. 35) on one
symmetric-mode LU, shifted just below a lower bound of the spectrum: -max q
for solved graphs (the stiffness part is positive semidefinite),
-(4H^2 + kappa) for cylinders, Gershgorin for operators built by hand.  A
seeded random share of the Krylov start vector guards against a missed
ground state; scipy's Lanczos solvers are kept on the test side as an
independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import model, rotational
from .errors import IterationLimit, NotConverged, UnsupportedSign
from .graph_geometry import jacobi_potential_from, shape_arrays
from .model import SpaceParams
from .solver import GraphSolution, _factor


@dataclass
class DiscreteOperator:
    """Weak form of -(Laplacian + q) with its mass (area) matrix.

    `lower_bound`, when known, is a number no larger than the smallest
    generalized eigenvalue; the eigensolver shifts just below it.
    """

    dimension: int
    matrix: sp.csr_matrix
    mass: sp.csr_matrix
    lower_bound: float | None = None


@dataclass
class SpectrumReport:
    lambda_min: float
    eigvec_residual: float
    iterations: int


# Krylov basis cap: memory stays O(_KRYLOV_BASIS n) whatever the budget
_KRYLOV_BASIS = 40

# Lanczos stopping rule: relative Ritz residual, and the budget of solves
_EIG_TOL = 1e-10
_EIG_MAX_SOLVES = 5000

# 2x2 Gauss points on [0,1]
_GP = ((0.5 - 0.5 / math.sqrt(3.0)), (0.5 + 0.5 / math.sqrt(3.0)))


def _reference_stiffness(hx: float, hy: float):
    """Reference integrals A_kl[a,b] = int d_k phi_a d_l phi_b over a cell."""
    A11 = np.zeros((4, 4))
    A12 = np.zeros((4, 4))
    A22 = np.zeros((4, 4))
    for gx in _GP:
        for gy in _GP:
            # bilinear bases on [0,1]^2, corners ordered (0,0),(1,0),(0,1),(1,1)
            dNdx = np.array([-(1 - gy), (1 - gy), -gy, gy]) / hx
            dNdy = np.array([-(1 - gx), -gx, (1 - gx), gx]) / hy
            w = 0.25 * hx * hy
            A11 += w * np.outer(dNdx, dNdx)
            A12 += w * (np.outer(dNdx, dNdy) + np.outer(dNdy, dNdx))
            A22 += w * np.outer(dNdy, dNdy)
    return A11, A12, A22


def _q1_assemble(dof: np.ndarray, W11, W12, W22, sqrt_det, hx: float, hy: float,
                 periodic_x: bool = False):
    """Stiffness and lumped mass for the weak Laplacian with coefficient W.

    dof is an (nx, ny) array of dof indices with -1 marking constrained
    nodes; the nodal fields W11/W12/W22/sqrt_det may hold NaN there.  Cells
    touching at least one dof are assembled with the mean of their defined
    corner coefficients.
    """
    nx, ny = dof.shape
    ndof = int(dof.max()) + 1
    ci = np.arange(nx if periodic_x else nx - 1)
    cj = np.arange(ny - 1)
    CI, CJ = np.meshgrid(ci, cj, indexing="ij")
    ip1 = (CI + 1) % nx if periodic_x else CI + 1
    corners = [(CI, CJ), (ip1, CJ), (CI, CJ + 1), (ip1, CJ + 1)]
    cdof = np.stack([dof[a, b] for a, b in corners])           # (4, m, k)
    keep = (cdof >= 0).any(axis=0)
    cdof = cdof[:, keep]

    def cell_mean(field):
        field = np.broadcast_to(field, dof.shape)
        vals = np.stack([field[a, b] for a, b in corners])[:, keep]
        cnt = np.isfinite(vals)
        vals = np.where(cnt, vals, 0.0)
        return vals.sum(axis=0) / np.maximum(cnt.sum(axis=0), 1)

    cW11, cW12, cW22, cdet = (cell_mean(f) for f in (W11, W12, W22, sqrt_det))
    A11, A12, A22 = _reference_stiffness(hx, hy)

    rows, cols, vals = [], [], []
    for a in range(4):
        for b in range(4):
            va = cW11 * A11[a, b] + cW12 * A12[a, b] + cW22 * A22[a, b]
            m = (cdof[a] >= 0) & (cdof[b] >= 0)
            rows.append(cdof[a][m]); cols.append(cdof[b][m]); vals.append(va[m])
    K = sp.csr_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(ndof, ndof))
    K = 0.5 * (K + K.T)

    lump = np.zeros(ndof)
    share = 0.25 * hx * hy * cdet
    for a in range(4):
        m = cdof[a] >= 0
        np.add.at(lump, cdof[a][m], share[m])
    return K, lump


def _solution_fields(sol: GraphSolution):
    """Nodal W coefficients, area density, potential and nu on the lattice."""
    g = sol.grid
    fx, fy, fxx, fxy, fyy = sol.jets()
    d = shape_arrays(g.ambient(), fx, fy, fxx, fxy, fyy, sol.orientation)
    det = d["det_I"]
    sqrt_det = np.sqrt(det)
    shape = (g.n, g.n)
    fields = {}
    for name, arr in (("W11", sqrt_det * d["I22"] / det),
                      ("W12", -sqrt_det * d["I12"] / det),
                      ("W22", sqrt_det * d["I11"] / det),
                      ("sqrt_det", sqrt_det),
                      ("nu", d["nu"]),
                      ("q", jacobi_potential_from(d["nu"], d["sigma_sq"], sol.params))):
        full = np.full(shape, np.nan)
        full[g.interior] = arr
        fields[name] = full
    return fields


def assemble_jacobi(sol: GraphSolution) -> DiscreteOperator:
    """Weak form of -(Laplace-Beltrami + q) on the solution, Dirichlet."""
    g = sol.grid
    f = _solution_fields(sol)
    K, lump = _q1_assemble(g.idx, f["W11"], f["W12"], f["W22"], f["sqrt_det"],
                           g.hx, g.hy)
    q = f["q"][g.interior]
    A = (K - sp.diags(lump * q)).tocsr()
    # K is positive semidefinite (SPD cell coefficients W), so by Weyl the
    # mass-scaled operator K' - diag(q) has no eigenvalue below -max q
    return DiscreteOperator(dimension=g.n_interior, matrix=A,
                            mass=sp.diags(lump).tocsr(),
                            lower_bound=-float(q.max()))


def smallest_eigenvalue(op: DiscreteOperator) -> SpectrumReport:
    """Smallest generalized eigenvalue of (matrix, mass) by shift-invert Lanczos.

    One LU of B - sigma I (B the mass-scaled matrix, sigma just under
    `op.lower_bound`, Gershgorin of B when unset) serves the whole solve.
    The Krylov space of its inverse starts from the all-ones vector (these
    Schrodinger-type operators have a sign-definite ground state) plus a
    seeded random share that reaches a ground state orthogonal to it; it is
    fully reorthogonalized and restarts from its Ritz vector when full or
    invariant.  The smallest Ritz pair of B is returned once
    ||Bx - lam x|| <= 1e-10 max(1, |lam|); `iterations` counts the solves,
    at most 5000 (`IterationLimit` beyond).
    """
    m = op.mass.diagonal()
    if not (np.isfinite(m).all() and (m > 0).all()):
        raise ValueError("mass diagonal must be finite and positive")
    d = 1.0 / np.sqrt(m)
    B = (sp.diags(d) @ op.matrix @ sp.diags(d)).tocsr()
    n = B.shape[0]
    lb = op.lower_bound
    if lb is None:
        radii = np.asarray(abs(B).sum(axis=1)).ravel() - abs(B.diagonal())
        lb = float((B.diagonal() - radii).min())
    shift = lb - 1e-3 * max(1.0, abs(lb))
    try:
        lu = _factor((B - shift * sp.identity(n, format="csr")).tocsc())
    except RuntimeError as exc:
        raise IterationLimit("could not factor the shifted operator") from exc

    size = min(_KRYLOV_BASIS, n)
    Q, BQ, T = np.empty((size, n)), np.empty((size, n)), np.empty((size, size))
    v = np.ones(n) + 1e-2 * np.random.RandomState(1234).standard_normal(n)
    k = solves = 0
    while True:
        Q[k] = v / np.linalg.norm(v)
        BQ[k] = B @ Q[k]                  # so Q^T B Q needs no further matvec
        T[k, :k + 1] = T[:k + 1, k] = Q[:k + 1] @ BQ[k]
        k += 1
        theta, Y = np.linalg.eigh(T[:k, :k])
        lam, x, Bx = float(theta[0]), Y[:, 0] @ Q[:k], Y[:, 0] @ BQ[:k]
        resid = float(np.linalg.norm(Bx - lam * x) / np.linalg.norm(x))
        if resid <= _EIG_TOL * max(1.0, abs(lam)):
            return SpectrumReport(lambda_min=lam, eigvec_residual=resid,
                                  iterations=solves)
        if solves == _EIG_MAX_SOLVES:
            raise IterationLimit("Lanczos did not converge in %d solves"
                                 % _EIG_MAX_SOLVES)
        w = lu.solve(Q[k - 1])
        solves += 1
        w_norm = np.linalg.norm(w)
        for _ in range(2):
            w -= (Q[:k] @ w) @ Q[:k]
        # a collapsed new direction means the space is invariant
        v, k = (w, k) if k < size and np.linalg.norm(w) > 1e-10 * w_norm \
            else (x, 0)


def angle_jacobi_residual(sol: GraphSolution, margin: float | None = None) -> float:
    """Max nodal residual of the angle-function equation L(nu) = 0.

    The nodal angle function of the solved graph is pushed through the
    divergence-form Laplace-Beltrami stencil and combined with the nodal
    potential.  Nodes closer than `margin` (base distance) to the boundary
    are excluded: the boundary closure contaminates the outermost layers of
    the nodal jets, so refinement comparisons need a fixed evaluation
    region; the default margin is a quarter of the domain scale.
    """
    g = sol.grid
    if margin is None:
        scale = g.radius if g.shape == "disk" else min(g.extents)
        margin = 0.25 * scale
    f = _solution_fields(sol)
    nu, q = f["nu"], f["q"]
    W11, W12, W22, sdet = f["W11"], f["W12"], f["W22"], f["sqrt_det"]
    hx, hy = g.hx, g.hy

    def dx(a):
        out = np.full_like(a, np.nan)
        out[1:-1, :] = (a[2:, :] - a[:-2, :]) / (2 * hx)
        return out

    def dy(a):
        out = np.full_like(a, np.nan)
        out[:, 1:-1] = (a[:, 2:] - a[:, :-2]) / (2 * hy)
        return out

    P = W11 * dx(nu) + W12 * dy(nu)
    Q = W12 * dx(nu) + W22 * dy(nu)
    lap = (dx(P) + dy(Q)) / sdet
    res = lap + nu * q
    dist = np.full((g.n, g.n), np.nan)
    dist[g.interior] = g.boundary_distance()
    deep = g.interior & (dist > margin)
    if not deep.any():
        raise NotConverged("no interior nodes beyond the requested margin")
    return float(np.nanmax(np.abs(res[deep])))


@dataclass
class CylinderStability:
    """Closed-form cylinder criterion with its spectral surrogate."""

    stable: bool
    margin: float
    constant_mode_rq: float
    lambda_min_spectral: float
    spectral_stable: bool
    closed: bool
    tube_length: float


def cylinder_stability(H: float, params: SpaceParams) -> CylinderStability:
    """Stability of the vertical cylinder over the curve with kappa_g = 2H.

    Closed form: the cylinder operator is Laplacian + (4H^2 + kappa), so it
    is stable iff 4H^2 + kappa <= 0, with margin -(4H^2 + kappa).  The
    surrogate assembles the flat operator on a 40 x 80 lattice (around the
    curve, along the axis) over a finite tube of length 20/(2H), periodic
    for closed curves and with free ends otherwise, and solves for the
    smallest eigenvalue; the constant mode realizes the margin.
    """
    if not (math.isfinite(H) and H > 0):
        raise ValueError("cylinder stability needs a finite H > 0")
    if params.kappa > 0:
        raise UnsupportedSign("cylinder criterion restricted to kappa <= 0")
    c = 4.0 * H * H + params.kappa
    margin = -c
    stable = c <= 0.0
    L = 20.0 / (2.0 * H)
    nx, ny = 40, 80             # nodes around the base curve, along the axis

    curve = rotational.cmc_cylinder_curve(H, params)
    if curve.closed:
        # induced flat metric of the cylinder in (arclength, z) coordinates:
        # [[1 + F^2, F], [F, 1]] with F = <gamma', dz>; det 1, so its
        # inverse is [[1, -F], [-F, 1 + F^2]]
        r_m = curve.model_radius
        a = model.ambient_components(r_m, 0.0, params)
        F = a.g_yz / a.lam                 # unit base tangent at (r, 0) is dy/lam
        circ = 2.0 * math.pi * r_m * a.lam
        Gi = (1.0, -F, 1.0 + F * F)
        hx = circ / nx
    else:
        Gi = (1.0, 0.0, 1.0)
        hx = L / (nx - 1)
    hy = L / (ny - 1)
    dof = np.arange(nx * ny).reshape(nx, ny)
    # det G = 1: unit area density
    K, lump = _q1_assemble(dof, *Gi, 1.0, hx, hy, periodic_x=curve.closed)
    A = (K - sp.diags(lump * c)).tocsr()
    # K is positive semidefinite and the constant mode attains -c
    op = DiscreteOperator(dimension=nx * ny, matrix=A,
                          mass=sp.diags(lump).tocsr(), lower_bound=-c)
    rep = smallest_eigenvalue(op)
    return CylinderStability(
        stable=stable, margin=margin, constant_mode_rq=margin,
        lambda_min_spectral=rep.lambda_min,
        spectral_stable=rep.lambda_min >= -1e-8 * max(1.0, abs(c)),
        closed=curve.closed, tube_length=L)
