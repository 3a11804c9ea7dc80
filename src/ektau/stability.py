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
-(4H^2 + kappa) for cylinders, Gershgorin for operators built by hand.
Graph operators are factored in nested-dissection order (George 1973,
SIAM J. Numer. Anal. 10), cylinders and hand-built operators in minimum
degree.  A seeded random share of the Krylov start vector guards against a
missed ground state; scipy's Lanczos solvers are kept on the test side as
an independent oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import model, rotational
from .errors import IterationLimit, NotConverged, UnsupportedSign
from .graph_geometry import jacobi_potential_from, mean_curvature_arrays
from .model import SpaceParams
from .solver import GraphSolution, _factor


@dataclass
class DiscreteOperator:
    """Weak form of -(Laplacian + q) with its mass (area) matrix.

    `lower_bound`, when known, is a number no larger than the smallest
    generalized eigenvalue; the eigensolver shifts just below it.
    `ordering`, when set, is the fill-reducing order of the unknowns in
    which the eigensolver factors; SuperLU's minimum degree otherwise.
    """

    dimension: int
    matrix: sp.csr_matrix
    mass: sp.csr_matrix
    lower_bound: float | None = None
    ordering: np.ndarray | None = None


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

# Q1 cell corners, and the neighbour offsets in row-major column order
_CORNERS = ((0, 0), (1, 0), (0, 1), (1, 1))
_OFFSETS = tuple((di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1))
_ND_LEAF = 16             # nested-dissection boxes this small are not cut


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


def _q1_assemble(dof: np.ndarray, W11, W12, W22, sqrt_det, potential,
                 hx: float, hy: float, periodic_x: bool = False):
    """CSR weak form of -(Laplacian + potential), coefficient W, and the
    lumped mass diagonal.

    dof numbers the free nodes row by row, -1 marking fixed ones (the nodal
    fields may be NaN there); a cell takes the mean of its defined corner
    values.  Cell corners (a, b) couple in row a at neighbour offset b - a,
    so the stiffness is summed as a 3 x 3 stencil on the lattice, averaged
    with its mirror and read off at the free neighbours in CSR order.
    """
    nx, ny = dof.shape
    cx = nx if periodic_x else nx - 1          # cells along x

    def padded(arr, fill=0.0):
        # node (i, j) at [..., i + 1, j + 1], wrapped along x if periodic
        pad = np.pad(arr, [(0, 0)] * (arr.ndim - 2) + [(1, 1)] * 2,
                     constant_values=fill)
        if periodic_x:
            pad[..., 0, :], pad[..., -1, :] = pad[..., -2, :], pad[..., 1, :]
        return pad

    def at(pad, di, dj):                       # node (i + di, j + dj)
        return pad[..., 1 + di:1 + di + nx, 1 + dj:1 + dj + ny]

    nodal = padded(np.stack([np.broadcast_to(f, dof.shape)
                             for f in (W11, W12, W22, sqrt_det)]), np.nan)
    vals = np.stack([at(nodal, ox, oy)[..., :cx, :-1] for ox, oy in _CORNERS])
    cnt = np.isfinite(vals)
    vals[~cnt] = 0.0
    mean = vals.sum(axis=0) / np.maximum(cnt.sum(axis=0), 1)
    # cell (i, j) kept at its corner node (i, j), zero past the lattice edge
    cW11, cW12, cW22, cdet = padded(np.pad(mean, ((0, 0), (0, nx - cx), (0, 1))))
    A11, A12, A22 = _reference_stiffness(hx, hy)
    stencil = np.zeros((9, nx, ny))
    for a, (ax, ay) in enumerate(_CORNERS):
        w11, w12, w22 = (at(w, -ax, -ay) for w in (cW11, cW12, cW22))
        for b, (bx, by) in enumerate(_CORNERS):
            stencil[3 * (bx - ax) + by - ay + 4] += (
                w11 * A11[a, b] + w12 * A12[a, b] + w22 * A22[a, b])
    share = 0.25 * hx * hy * cdet
    lump = sum(at(share, -ax, -ay) for ax, ay in _CORNERS)
    mirror = padded(stencil)
    stencil += np.stack([at(mirror[8 - k], di, dj)
                         for k, (di, dj) in enumerate(_OFFSETS)])
    stencil *= 0.5
    stencil[4] -= lump * potential
    cols = padded(dof, -1)
    cols = np.stack([at(cols, di, dj) for di, dj in _OFFSETS], axis=-1)
    free = (cols >= 0) & (dof >= 0)[..., None]
    A = sp.csr_matrix((np.moveaxis(stencil, 0, -1)[free], cols[free],
                       np.r_[0, np.cumsum(free.sum(axis=-1)[dof >= 0])]),
                      shape=(int(dof.max()) + 1,) * 2)
    A.sort_indices()                           # a periodic wrap puts a column last
    return A, lump[dof >= 0]


@functools.lru_cache(maxsize=8)
def _nd_order(nx: int, ny: int) -> np.ndarray:
    """Row-major node numbers of an nx x ny lattice in nested-dissection
    order: a line across the longer side, which separates the halves for
    the 3 x 3 couplings, follows each half, dissected in turn (George 1973)."""
    def dissect(box):
        if box.size <= _ND_LEAF:
            return [box.ravel()]
        if box.shape[0] < box.shape[1]:
            box = box.T
        m = box.shape[0] // 2
        return dissect(box[:m]) + dissect(box[m + 1:]) + [box[m]]

    order = np.concatenate(dissect(np.arange(nx * ny).reshape(nx, ny)))
    order.flags.writeable = False
    return order


def _solution_fields(sol: GraphSolution):
    """Nodal W coefficients, area density, potential and nu on the lattice."""
    g = sol.grid
    d = mean_curvature_arrays(g.ambient(), *sol.jets(), sol.orientation)
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
    """Weak form of -(Laplace-Beltrami + q) on the solution, Dirichlet,
    in the grid's numbering, ordered for the factor by nested dissection."""
    g = sol.grid
    f = _solution_fields(sol)
    A, lump = _q1_assemble(g.idx, f["W11"], f["W12"], f["W22"], f["sqrt_det"],
                           f["q"], g.hx, g.hy)
    nd = g.idx.ravel()[_nd_order(g.n, g.n)]
    # the stiffness is positive semidefinite (SPD cell coefficients W), so
    # by Weyl the mass-scaled operator K' - diag(q) has no eigenvalue below
    # -max q
    return DiscreteOperator(
        dimension=g.n_interior, matrix=A, mass=sp.diags(lump).tocsr(),
        lower_bound=-float(np.max(f["q"][g.interior])), ordering=nd[nd >= 0])


def smallest_eigenvalue(op: DiscreteOperator) -> SpectrumReport:
    """Smallest generalized eigenvalue of (matrix, mass) by shift-invert Lanczos.

    One LU of B - sigma I (B the mass-scaled matrix, sigma just under
    `op.lower_bound`, Gershgorin of B when unset) serves the whole solve,
    factored in `op.ordering` if set, else in minimum-degree order.  The
    Krylov space of its inverse starts from the all-ones vector (these
    Schrodinger-type operators have a sign-definite ground state) plus a
    seeded random share that reaches a ground state orthogonal to it; it is
    fully reorthogonalized and restarts from its Ritz vector when full or
    invariant.  The smallest Ritz pair of B is returned once
    ||Bx - lam x|| <= 1e-10 max(1, |lam|); `iterations` counts the solves,
    at most 5000 (`IterationLimit` beyond).  A matrix that is not square,
    does not match `dimension` or the mass, or has a non-finite entry, a
    mass that is not diagonal (lumped), and an ordering that is no
    permutation raise `ValueError` before any factorization.
    """
    n = op.dimension
    shape = op.matrix.shape
    if shape[0] != shape[1]:
        raise ValueError("operator matrix must be square, not %d x %d" % shape)
    if shape != (n, n):
        raise ValueError("operator matrix is %d x %d but its dimension is %d"
                         % (*shape, n))
    if op.mass.shape != shape:
        raise ValueError("mass matrix is %d x %d but the operator is %d x %d"
                         % (*op.mass.shape, *shape))
    mass = sp.coo_matrix(op.mass)
    if ((mass.row != mass.col) & (mass.data != 0)).any():
        raise ValueError("mass matrix must be diagonal (lumped)")
    if op.ordering is not None and not np.array_equal(
            np.sort(op.ordering), np.arange(n)):
        raise ValueError("ordering must be a permutation of the %d unknowns" % n)
    m = op.mass.diagonal()
    if not (np.isfinite(m).all() and (m > 0).all()):
        raise ValueError("mass diagonal must be finite and positive")
    B = sp.csr_matrix(op.matrix)
    if not np.isfinite(B.data).all():
        raise ValueError("operator matrix has a non-finite entry")
    # B = D A D on the data array, D = mass^(-1/2)
    d = 1.0 / np.sqrt(m)
    B = sp.csr_matrix((B.data * np.repeat(d, np.diff(B.indptr)) * d[B.indices],
                       B.indices, B.indptr), shape=B.shape)
    v = np.ones(n) + 1e-2 * np.random.RandomState(1234).standard_normal(n)
    if op.ordering is not None:        # the spectrum ignores the numbering
        B, v = B[op.ordering][:, op.ordering], v[op.ordering]
    lb = op.lower_bound
    if lb is None:
        radii = np.asarray(abs(B).sum(axis=1)).ravel() - abs(B.diagonal())
        lb = float((B.diagonal() - radii).min())
    shift = lb - 1e-3 * max(1.0, abs(lb))
    M = B.tocsc()
    M.setdiag(B.diagonal() - shift)            # in place on a stored diagonal
    try:
        lu = _factor(M, "MMD_AT_PLUS_A" if op.ordering is None else "NATURAL")
    except RuntimeError as exc:
        raise IterationLimit("could not factor the shifted operator") from exc
    del M                              # the Krylov loop needs only B and lu

    size = min(_KRYLOV_BASIS, n)
    Q, BQ, T = np.empty((size, n)), np.empty((size, n)), np.empty((size, size))
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
    # central differences; the lattice edge, outside the interior, is NaN
    nu_x, nu_y = np.gradient(nu, hx, hy)
    P = W11 * nu_x + W12 * nu_y
    Q = W12 * nu_x + W22 * nu_y
    lap = (np.gradient(P, hx, axis=0) + np.gradient(Q, hy, axis=1)) / sdet
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
    A, lump = _q1_assemble(dof, *Gi, 1.0, c, hx, hy, periodic_x=curve.closed)
    # the stiffness is positive semidefinite and the constant mode attains
    # -c; no ordering: minimum degree beats box dissection on these lattices
    op = DiscreteOperator(dimension=nx * ny, matrix=A,
                          mass=sp.diags(lump).tocsr(), lower_bound=-c)
    rep = smallest_eigenvalue(op)
    return CylinderStability(
        stable=stable, margin=margin, lambda_min_spectral=rep.lambda_min,
        spectral_stable=rep.lambda_min >= -1e-8 * max(1.0, abs(c)),
        closed=curve.closed, tube_length=L)
