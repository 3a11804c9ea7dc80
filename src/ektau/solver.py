"""Dirichlet solver for vertical graphs of prescribed constant mean curvature.

The unknown is the nodal height field on a uniform lattice covering the
domain.  Nodal jets come from centered second-order differences composed
with the boundary closure into one sparse operator per lattice, `jet_u`,
that maps the unknowns to all five jets in one product, for Newton and for
a solution's `jets()` alike.  At each interior node the residual is
H(jet) - H_target, driven to zero by a damped Newton iteration.  Its
settings are fixed: convergence at a max-norm residual of 1e-10, at most
50 iterations per run.  Jets enter the graph kernel at its one array entry
(`mean_curvature_arrays`); each iterate carries that kernel dict, and its
exact Jacobian (`mean_curvature_sensitivities`, analytic partials of H in
all five jet entries) and the solution's min|nu| and max|sigma| are read
off it.  The stencils and the boundary closure are linear, so each
Jacobian only refills, in one `bincount`, the values of one sparsity
pattern cached on the grid.  One SuperLU factor (minimum-degree ordering
of J^T + J, symmetric mode) per Newton run is the right preconditioner of
GMRES on each later exact Jacobian; 15 GMRES iterations short of a
relative residual of 1e-6 trigger a refactor.

Each Newton iteration makes one pass over the step lengths 1, 1/2, ...,
2**-13: the first Armijo step wins, else the first admissible one is forced
while min|nu| or the residual falls (at most 25 times), and in chase mode at
once.  Cold solves on disks with 0 < H R < 1 start from the rotational cap
about the grid center, others from zero; each solve is one Newton run, and
its failure propagates as raised.

Disk domains close the stencils with ghost values extrapolated along the
lattice direction whose circle crossing lies closest to the ghost: the
Dirichlet value, zero, is imposed at the exact crossing point and a
quadratic (falling back to linear for thin cuts) through the crossing and
one or two interior nodes defines the ghost value.  The closure is linear
in the unknowns, so it folds into the Jacobian exactly.

Vertical translations are isometries, so the solver always works with
boundary value zero internally and shifts the result; translation
equivariance holds to the bit.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import graph_geometry, model, rotational
from .errors import (ConfigInvalid, DegenerateMetric, IoFailure,
                     NonConvergence, OutOfDomain, VerticalBlowup)
from .graph_geometry import mean_curvature_arrays, mean_curvature_sensitivities
from .model import Ambient, SpaceParams, ambient_components

BLOWUP_NU = 1e-3

# convergence: max-norm residual, and the iteration budget of a Newton run
_TOL_RESIDUAL = 1e-10
_MAX_NEWTON = 50

# one GMRES cycle on a reused factor: iterations and relative residual
_KRYLOV_ITERATIONS = 15
_KRYLOV_RTOL = 1e-6

# trial step lengths of each Newton iteration: 1, 1/2, ..., 2**-13
_STEP_LENGTHS = tuple(0.5 ** k for k in range(14))

# ghost extrapolation: crossing fraction above which the quadratic through
# the nearest node is ill conditioned and the closure skips that node
_GHOST_QUADRATIC_LIMIT = 0.8

_JET_NAMES = ("fx", "fy", "fxx", "fxy", "fyy")


def _dot2(u, v):
    """Row-wise dot products of stacked vectors through matmul, which rounds
    like the BLAS dot of `u @ v` on single vectors (a fused multiply-add on
    most builds), so vectorized and per-node geometry agree to the bit."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


class DomainGrid:
    """Uniform lattice with an interior mask over a disk or rectangle.

    The lattice covers the bounding box with n nodes per side.  `interior`
    flags the unknowns; for disks, `ghost` flags exterior nodes adjacent to
    the interior whose values are defined by the boundary closure.
    """

    def __init__(self, shape: str, center, n: int, params: SpaceParams,
                 radius: float | None = None, extents=None):
        if n < 8:
            raise ConfigInvalid("need n >= 8 nodes per side")
        if shape not in ("disk", "rectangle"):
            raise ConfigInvalid("shape must be 'disk' or 'rectangle'")
        self.shape = shape
        self.center = (float(center[0]), float(center[1]))
        if not all(map(math.isfinite, self.center)):
            raise ConfigInvalid("grid center must be finite")
        self.n = int(n)
        self.params = params
        cx, cy = self.center
        if shape == "disk":
            if radius is None or not (math.isfinite(radius) and radius > 0):
                raise ConfigInvalid("disk grid needs a finite positive radius")
            self.radius = float(radius)
            self.extents = (self.radius, self.radius)
        else:
            if extents is None:
                raise ConfigInvalid("rectangle grid needs extents")
            self.radius = None
            self.extents = (float(extents[0]), float(extents[1]))
            if not all(math.isfinite(e) and e > 0 for e in self.extents):
                raise ConfigInvalid("extents must be finite and positive")
        ex, ey = self.extents
        # spans that overflow would warn inside linspace, before any check
        if not math.isfinite((cx + ex) - (cx - ex) + (cy + ey) - (cy - ey)):
            raise ConfigInvalid("grid extents overflow")
        self.xs = np.linspace(cx - ex, cx + ex, self.n)
        self.ys = np.linspace(cy - ey, cy + ey, self.n)
        self.hx = self.xs[1] - self.xs[0]
        self.hy = self.ys[1] - self.ys[0]
        # the stencils assume one step per axis, and square it
        for nodes, h in ((self.xs, self.hx), (self.ys, self.hy)):
            if not (h > 0 and math.isfinite(float(h) * float(h))
                    and (np.abs(np.diff(nodes) - h) <= 1e-9 * h).all()):
                raise ConfigInvalid(
                    "lattice spacing vanishes, overflows or is not uniform "
                    "against the grid center %r" % (self.center,))
        self.X, self.Y = np.meshgrid(self.xs, self.ys, indexing="ij")

        if shape == "disk":
            r2 = (self.X - cx) ** 2 + (self.Y - cy) ** 2
            self.interior = r2 < self.radius**2 * (1.0 - 1e-12)
        else:
            self.interior = np.zeros((self.n, self.n), dtype=bool)
            self.interior[1:-1, 1:-1] = True
        if not self.interior.any():
            raise ConfigInvalid("grid has no interior nodes")
        # the largest stencil weight, 2 / h^2, must be finite
        if float(min(self.hx, self.hy)) ** 2 * sys.float_info.max < 2.0:
            raise ConfigInvalid("lattice spacing is so small that the stencil "
                                "weights 1/h^2 overflow")

        if not params.contains(self.X[self.interior], self.Y[self.interior]):
            raise OutOfDomain("grid interior leaves the model domain")

        self._index_interior()
        self._build_closure()
        self._build_stencils()
        self._amb: Ambient | None = None
        self._jac_pattern = None

    # -- masks and indexing ------------------------------------------------

    def _index_interior(self):
        self.n_interior = int(self.interior.sum())
        self.idx = -np.ones((self.n, self.n), dtype=np.int64)
        self.idx[self.interior] = np.arange(self.n_interior)
        ii, jj = np.nonzero(self.interior)
        self.interior_ij = np.stack([ii, jj], axis=1)
        # neighbours (8-connectivity) of the interior define the ghost band
        pad, n = np.pad(self.interior, 1), self.n
        near = np.logical_or.reduce([pad[a:a + n, b:b + n]
                                     for a in range(3) for b in range(3)])
        self.ghost = near & ~self.interior

    # -- boundary closure --------------------------------------------------

    def _build_closure(self):
        """full = closure_A @ u: the lattice values under boundary value zero."""
        n = self.n
        ii, jj = self.interior_ij[:, 0], self.interior_ij[:, 1]
        rows = [ii * n + jj]
        cols = [np.arange(self.n_interior)]
        vals = [np.ones(self.n_interior)]
        if self.shape == "disk":
            node_rows, node_cols, node_vals = self._ghost_weights()
            rows.append(node_rows); cols.append(node_cols); vals.append(node_vals)
        self.closure_A = sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n * n, self.n_interior))

    def _ghost_weights(self):
        """Extrapolation weights of every ghost node, as arrays.

        Returns (row, interior column, weight) triplets of the node weights.
        Each ghost extrapolates along the direction whose circle crossing
        lies closest to it; axis directions come first, so the diagonals
        only win a strictly closer crossing.  Ghosts without a crossing get
        no weights: they hold the boundary value, zero.
        """
        n = self.n
        cx, cy = self.center
        R = self.radius
        gi, gj = np.nonzero(self.ghost)
        pg = np.stack([self.xs[gi], self.ys[gj]], axis=1)
        e = pg - np.array([cx, cy])
        dirs = np.array([(1, 0), (-1, 0), (0, 1), (0, -1),
                         (1, 1), (1, -1), (-1, 1), (-1, -1)])

        def interior_at(i, j):
            inside = (i >= 0) & (i < n) & (j >= 0) & (j < n)
            out = np.zeros(i.shape, dtype=bool)
            out[inside] = self.interior[i[inside], j[inside]]
            return out

        # crossing fraction s in [0, 1] along each direction (inf: none);
        # |pg + s d - c| = R is a*s^2 + bq*s + cq = 0
        ni = gi[:, None] + dirs[None, :, 0]
        nj = gj[:, None] + dirs[None, :, 1]
        valid = interior_at(ni, nj)
        ni, nj = np.clip(ni, 0, n - 1), np.clip(nj, 0, n - 1)
        d = np.stack([self.xs[ni], self.ys[nj]], axis=2) - pg[:, None, :]
        d[~valid] = 1.0                       # keep a > 0 off the lattice
        a = _dot2(d, d)
        bq = _dot2(2.0 * d, e[:, None, :])
        cq = _dot2(e, e)[:, None] - R * R
        disc = bq * bq - 4 * a * cq
        valid &= disc >= 0
        sq = np.sqrt(np.where(valid, disc, 0.0))
        s_lo = (-bq - sq) / (2 * a)
        s_hi = (-bq + sq) / (2 * a)
        in_lo = (s_lo >= -1e-12) & (s_lo <= 1.0 + 1e-12)
        in_hi = (s_hi >= -1e-12) & (s_hi <= 1.0 + 1e-12)
        s_all = np.where(in_lo, s_lo, s_hi)
        valid &= in_lo | in_hi
        s_all = np.where(valid, np.clip(s_all, 0.0, 1.0), np.inf)
        best = np.argmin(s_all, axis=1)
        found = np.isfinite(s_all[np.arange(len(gi)), best])

        g = np.nonzero(found)[0]
        s = s_all[g, best[g]]
        di, dj = dirs[best[g], 0], dirs[best[g], 1]
        i1, j1 = gi[g] + di, gj[g] + dj
        i2, j2 = i1 + di, j1 + dj
        have_n2 = interior_at(i2, j2)
        quad = (s <= _GHOST_QUADRATIC_LIMIT) & have_n2
        skip = (s > _GHOST_QUADRATIC_LIMIT) & have_n2
        lin = ~have_n2
        w1 = np.zeros(len(g))
        w2 = np.zeros(len(g))
        # quadratic through the crossing (distance s in units of the step)
        # and the nodes at distances 1 and 2, evaluated at 0
        t = s[quad]
        w1[quad] = -2.0 * t / (1.0 - t)
        w2[quad] = t / (2.0 - t)
        # crossing sits almost on the nearest node: skip it so the weights
        # stay bounded as s -> 1
        t = s[skip]
        w2[skip] = -t / (2.0 - t)
        # linear through the crossing and the nearest node
        t = np.minimum(s[lin], _GHOST_QUADRATIC_LIMIT)
        w1[lin] = -t / (1.0 - t)

        ghost_flat = gi * n + gj
        use1, use2 = quad | lin, have_n2
        node_rows = np.concatenate([ghost_flat[g[use1]], ghost_flat[g[use2]]])
        node_cols = np.concatenate([self.idx[i1[use1], j1[use1]],
                                    self.idx[i2[use2], j2[use2]]])
        node_vals = np.concatenate([w1[use1], w2[use2]])
        return node_rows, node_cols, node_vals

    # -- jet operators --------------------------------------------------------

    def _build_stencils(self):
        """`jet_u`, the lattice's one jet operator: `_jet_stencils` through
        the closure, so `jet_u @ u` stacks the jets in the same blocks."""
        self.jet_u = (_jet_stencils(self) @ self.closure_A).tocsr()

    # -- helpers -------------------------------------------------------------

    def ambient(self) -> Ambient:
        """Closed-form ambient data at the interior nodes, computed once."""
        if self._amb is None:
            ii, jj = self.interior_ij[:, 0], self.interior_ij[:, 1]
            self._amb = ambient_components(self.X[ii, jj], self.Y[ii, jj],
                                           self.params)
        return self._amb

    def _jacobian_pattern(self):
        """CSC pattern shared by every Newton Jacobian on this grid.

        Returns (indptr, indices, slots): the union of the patterns of the
        five blocks of jet_u, and the position in it of every stored entry
        of jet_u, in CSR order.
        """
        if self._jac_pattern is None:
            m = self.n_interior
            coo = self.jet_u.tocoo()
            row = coo.row % m
            pattern = sp.csc_matrix((np.ones(coo.nnz), (row, coo.col)),
                                    shape=(m, m))
            pattern.sum_duplicates()
            # CSC with sorted indices: col * m + row increases along the data
            keys = np.repeat(np.arange(m), np.diff(pattern.indptr)) * m \
                + pattern.indices
            # int32 halves what a grid kept alive by its solutions holds
            slots = np.searchsorted(keys, coo.col.astype(np.int64) * m + row)
            self._jac_pattern = (pattern.indptr, pattern.indices,
                                 slots.astype(np.int32))
        return self._jac_pattern

    def full_values(self, u: np.ndarray) -> np.ndarray:
        """Lattice values of the unknowns u under boundary value zero."""
        return (self.closure_A @ u).reshape(self.n, self.n)

    def boundary_distance(self) -> np.ndarray:
        """Base-plane distance of each interior node to the domain boundary."""
        ii, jj = self.interior_ij[:, 0], self.interior_ij[:, 1]
        x, y = self.X[ii, jj], self.Y[ii, jj]
        p = self.params
        cx, cy = self.center
        if self.shape == "disk":
            if p.kappa == 0:
                return self.radius - np.hypot(x - cx, y - cy)
            # radial geodesic distance in the conformal disk model
            d = model.base_distance((cx, cy), (x, y), p)
            dR = model.base_distance((cx, cy), (cx + self.radius, cy), p)
            return dR - d
        ex, ey = self.extents
        if p.kappa == 0:
            return np.minimum.reduce([
                x - (cx - ex), (cx + ex) - x, y - (cy - ey), (cy + ey) - y])
        # hyperbolic rectangle: sample the boundary and take the minimum
        ts = np.linspace(0.0, 1.0, 4 * self.n)
        edges = np.concatenate([
            np.stack([cx - ex + 2 * ex * ts, np.full_like(ts, cy - ey)], 1),
            np.stack([cx - ex + 2 * ex * ts, np.full_like(ts, cy + ey)], 1),
            np.stack([np.full_like(ts, cx - ex), cy - ey + 2 * ey * ts], 1),
            np.stack([np.full_like(ts, cx + ex), cy - ey + 2 * ey * ts], 1)])
        return np.array([model.base_distance((xi, yi), edges.T, p).min()
                         for xi, yi in zip(x, y)])

    def descriptor(self) -> dict:
        d = {"shape": self.shape, "center": list(self.center), "n": self.n}
        if self.shape == "disk":
            d["radius"] = self.radius
        else:
            d["extents"] = list(self.extents)
        return d

    @classmethod
    def from_descriptor(cls, d: dict, params: SpaceParams) -> "DomainGrid":
        return cls(shape=d["shape"], center=tuple(d["center"]), n=int(d["n"]),
                   params=params, radius=d.get("radius"),
                   extents=tuple(d["extents"]) if "extents" in d else None)


def _jet_stencils(grid: DomainGrid) -> sp.csr_matrix:
    """Centred differences at the interior nodes on full lattice values:
    block k (rows k m to (k + 1) m) gives the jet _JET_NAMES[k]."""
    n, m = grid.n, grid.n_interior
    hx, hy = grid.hx, grid.hy
    ii, jj = grid.interior_ij[:, 0], grid.interior_ij[:, 1]
    # (offset, weight) of each jet in _JET_NAMES order: fx, fy, fxx, fxy, fyy
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


def disk_grid(radius: float, n: int, params: SpaceParams, center=(0.0, 0.0)) -> DomainGrid:
    return DomainGrid("disk", center, n, params, radius=radius)


def rectangle_grid(extents, n: int, params: SpaceParams, center=(0.0, 0.0)) -> DomainGrid:
    return DomainGrid("rectangle", center, n, params, extents=extents)


def _atomic_write(path, text: str) -> None:
    """Write text to a sibling temporary file and rename it onto path; on
    failure the temporary file is removed and path is left as it was."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise IoFailure("cannot write %s: %s" % (path, exc.strerror or exc))


def _check_orientation(orientation) -> int:
    """The orientation, if it is the int +1 or -1 (a bool or float is not)."""
    if type(orientation) is not int or orientation not in (-1, 1):
        raise ConfigInvalid("orientation must be the integer +1 or -1, got %r"
                            % (orientation,))
    return orientation


@dataclass
class GraphSolution:
    """Converged graph over a masked grid with convergence metadata."""

    grid: DomainGrid
    values: np.ndarray
    params: SpaceParams
    H_target: float
    boundary_value: float
    residual_max: float
    min_abs_nu: float
    max_sigma_interior: float
    newton_iterations: int = 0
    orientation: int = -1

    def interior_values(self) -> np.ndarray:
        return self.values[self.grid.interior]

    def jets(self):
        """Jets at interior nodes, rows fx, fy, fxx, fxy, fyy, by `jet_u`:
        at boundary value zero, those Newton converged on, bit for bit."""
        u = self.interior_values() - self.boundary_value
        return (self.grid.jet_u @ u).reshape(len(_JET_NAMES), -1)

    def to_record(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "grid": self.grid.descriptor(),
            "H_target": self.H_target,
            "boundary_value": self.boundary_value,
            "residual_max": self.residual_max,
            "min_abs_nu": self.min_abs_nu,
            "max_sigma_interior": self.max_sigma_interior,
            "newton_iterations": self.newton_iterations,
            "orientation": self.orientation,
            "blowup_threshold": BLOWUP_NU,
            "values": [float(v) for v in self.values.ravel()],
        }

    @classmethod
    def from_record(cls, rec: dict) -> "GraphSolution":
        try:
            params = SpaceParams.from_dict(rec["params"])
            grid = DomainGrid.from_descriptor(rec["grid"], params)
            values = np.array(rec["values"], dtype=float).reshape(grid.n, grid.n)
            return cls(grid=grid, values=values, params=params,
                       H_target=float(rec["H_target"]),
                       boundary_value=float(rec["boundary_value"]),
                       residual_max=float(rec["residual_max"]),
                       min_abs_nu=float(rec["min_abs_nu"]),
                       max_sigma_interior=float(rec["max_sigma_interior"]),
                       newton_iterations=int(rec.get("newton_iterations", 0)),
                       orientation=_check_orientation(rec.get("orientation", -1)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigInvalid("bad solution record: %r" % (exc,))

    def save(self, path) -> None:
        _atomic_write(path, json.dumps(self.to_record(), sort_keys=True))

    @classmethod
    def load(cls, path) -> "GraphSolution":
        try:
            with open(path) as fh:
                return cls.from_record(json.load(fh))
        except OSError as exc:
            raise IoFailure("cannot read solution %s: %s" % (path, exc))
        except (ConfigInvalid, ValueError) as exc:
            raise ConfigInvalid("bad solution %s: %s" % (path, exc))


def _residual(grid: DomainGrid, u, H_target, orientation):
    """H - H_target at the unknowns u, and the kernel dict it came from."""
    d = mean_curvature_arrays(grid.ambient(), *(grid.jet_u @ u).reshape(
        len(_JET_NAMES), -1), orientation)
    return d["H"] - H_target, d


def _jacobian(grid: DomainGrid, d, orientation):
    """sum over k of diag(dH/d jet k) @ block k of jet_u, in CSC, from dict d.

    Entries of different blocks that share a slot add up in block order."""
    dH = mean_curvature_sensitivities(grid.ambient(), d, orientation)
    indptr, indices, slots = grid._jacobian_pattern()
    S = grid.jet_u
    weights = np.repeat(np.concatenate([dH[k] for k in _JET_NAMES]),
                        np.diff(S.indptr)) * S.data
    m = grid.n_interior
    return sp.csc_matrix((np.bincount(slots, weights, len(indices)),
                          indices, indptr), shape=(m, m))


def _factor(J, ordering: str = "MMD_AT_PLUS_A"):
    """SuperLU in symmetric mode, by default with a minimum-degree ordering
    on the pattern of J^T + J.

    Only the closure's ghost couplings break the symmetry of the Jacobian's
    pattern, so that ordering suits it, and symmetric mode, which prefers
    diagonal pivots, keeps the factors close to the ordering's fill.  The
    shifted Jacobi operators of `stability` are symmetric positive definite,
    so diagonal pivots are safe there too; those of a lattice come permuted
    into nested-dissection order and pass "NATURAL"."""
    return spla.splu(J, permc_spec=ordering, options=dict(SymmetricMode=True))


def _linear_solve(J, b, state: dict):
    """Newton step x with J x = b, reusing the factor kept in `state`.

    GMRES runs on y -> J @ lu.solve(y) from y = b (the chord step), so its
    residual is the true one; a short cycle refactors J, releasing the stale
    factor first.  A singular J gets a regularized step, never reused."""
    lu = state.get("lu")
    if lu is not None:
        op = spla.LinearOperator(J.shape, matvec=lambda y: J @ lu.solve(y),
                                 dtype=float)
        y, info = spla.gmres(op, b, x0=b, rtol=_KRYLOV_RTOL, atol=0.0,
                             restart=_KRYLOV_ITERATIONS, maxiter=1)
        if info == 0:
            return lu.solve(y)
        lu = state["lu"] = None
    try:
        state["lu"] = _factor(J)
    except RuntimeError:
        mu = 1e-8 + 1e-2 * float(np.max(np.abs(b)))
        return _factor((J + mu * sp.identity(J.shape[0], format="csc")).tocsc()).solve(b)
    return state["lu"].solve(b)


def _newton(grid: DomainGrid, H_target: float, orientation: int,
            u: np.ndarray):
    """Damped Newton on the nodal residual; raises on blowup or stall."""
    r, d = _residual(grid, u, H_target, orientation)
    if np.min(np.abs(d["nu"])) < BLOWUP_NU:
        raise VerticalBlowup("initial iterate is not a graph: min|nu| < %g" % BLOWUP_NU)
    rnorm = float(np.max(np.abs(r)))
    forced_left = 25
    history: list[tuple[float, float]] = [(rnorm, float(np.min(np.abs(d["nu"]))))]
    chase = False
    lu_state: dict = {}
    for it in range(_MAX_NEWTON + 1):
        if rnorm <= _TOL_RESIDUAL:
            return u, rnorm, d, it
        if it == _MAX_NEWTON:
            break
        J = _jacobian(grid, d, orientation)
        d = None        # every trial brings its own; free this one for the LU
        du = _linear_solve(J, -r, lu_state)
        # one pass over the step lengths: the first admissible trial is the
        # forced-step candidate, the first Armijo trial the line-search step
        step = forced = None
        for t in _STEP_LENGTHS:
            u_try = u + t * du
            try:
                r_try, d_try = _residual(grid, u_try, H_target, orientation)
            except DegenerateMetric:
                continue
            rn_try = float(np.max(np.abs(r_try)))
            if not math.isfinite(rn_try):
                continue
            trial = (u_try, r_try, d_try, rn_try)
            forced = forced or trial
            if chase:
                break
            if rn_try < rnorm * (1.0 - 1e-4 * t):
                step = trial
                break
        if step is None:
            # Near a fold the line search stalls while the Newton direction
            # still points along the steepening branch: keep taking full
            # steps as long as min|nu| strictly descends, so that genuine
            # non-existence terminates as the graph turning vertical rather
            # than as an unexplained stall.
            if forced_left <= 0:
                raise NonConvergence(
                    "Newton stalled at residual %.3e (H=%g)" % (rnorm, H_target))
            forced_left -= 1
            if forced is None:
                raise NonConvergence(
                    "Newton diverged at residual %.3e (H=%g)" % (rnorm, H_target))
            _, _, d_try, rn_try = forced
            steepening = float(np.min(np.abs(d_try["nu"]))) < history[-1][1]
            if not steepening and rn_try >= rnorm:
                raise NonConvergence(
                    "Newton stalled at residual %.3e (H=%g)" % (rnorm, H_target))
            step = forced
        u, r, d, rnorm = step
        nu_min = float(np.min(np.abs(d["nu"])))
        if nu_min < BLOWUP_NU:
            raise VerticalBlowup(
                "graph turned vertical during iteration: min|nu| < %g at H=%g"
                % (BLOWUP_NU, H_target))
        history.append((rnorm, nu_min))
        # Damped steps that barely move the residual while the graph keeps
        # steepening are the signature of a solution sliding past a fold:
        # switch to undamped steps so the verticality threshold is reached
        # instead of exhausting the iteration budget.
        if not chase and len(history) > 5:
            r_then, nu_then = history[-6]
            if rnorm > 0.98 * r_then and nu_min < 0.7 * nu_then:
                chase = True
    raise NonConvergence(
        "Newton exhausted %d iterations, residual %.3e (H=%g)"
        % (_MAX_NEWTON, rnorm, H_target))


def has_cap(grid: DomainGrid, H: float) -> bool:
    """Whether the rotational cap about the grid center seeds cold solves:
    a disk with 0 < H R < 1 inside the chart of the profile (4 + kappa R^2 > 0)."""
    return (grid.shape == "disk" and 0 < H * grid.radius < 1
            and 4 + grid.params.kappa * grid.radius ** 2 > 0)


def solve_dirichlet(grid: DomainGrid, boundary_value: float, H: float,
                    params: SpaceParams, orientation: int = -1,
                    init_values: np.ndarray | None = None) -> GraphSolution:
    """Solve H(graph jet) = H at every interior node, Dirichlet data on the boundary.

    The discrete problem is solved with boundary value zero and shifted
    afterwards.  init_values (an (n, n) lattice array of heights with the
    same boundary value, finite at the interior nodes) warm-starts the
    iteration; without them it starts from the cap, signed -orientation,
    where `has_cap` holds, else from zero.  The solve is one Newton run: a
    failure (`VerticalBlowup`, `NonConvergence`) propagates as raised.
    """
    if grid.params.to_dict() != params.to_dict():
        raise ConfigInvalid("grid was built for different space parameters")
    _check_orientation(orientation)
    if not (math.isfinite(H) and H >= 0):
        raise ConfigInvalid("H must be finite and >= 0 (flip the orientation "
                            "for H < 0), got %r" % H)
    if not math.isfinite(boundary_value):
        raise ConfigInvalid("boundary value must be finite, got %r"
                            % boundary_value)
    if init_values is not None:
        try:
            init_values = np.asarray(init_values, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigInvalid("init_values must be numeric: %s" % exc)
        if init_values.shape != grid.interior.shape:
            raise ConfigInvalid("init_values must have the lattice shape %r, "
                                "got %r" % (grid.interior.shape,
                                            init_values.shape))
        u0 = init_values[grid.interior] - boundary_value
        if not np.isfinite(u0).all():
            raise ConfigInvalid("init_values must be finite at the interior "
                                "nodes")
    elif has_cap(grid, H):
        r = np.hypot(grid.X - grid.center[0], grid.Y - grid.center[1])
        u0 = -orientation * rotational.cap_heights(
            r[grid.interior], grid.radius, H, params)
    else:
        u0 = np.zeros(grid.n_interior)
    u, rnorm, d, iters = _newton(grid, H, orientation, u0)
    full = grid.full_values(u) + boundary_value
    return GraphSolution(
        grid=grid, values=full, params=params, H_target=H,
        boundary_value=boundary_value, residual_max=rnorm,
        min_abs_nu=float(np.min(np.abs(d["nu"]))),
        max_sigma_interior=float(np.sqrt(np.max(d["sigma_sq"]))),
        newton_iterations=iters, orientation=orientation)


def graph_height(sol: GraphSolution) -> float:
    """Largest vertical offset from the boundary section."""
    return float(np.max(np.abs(sol.interior_values() - sol.boundary_value)))


# status of a sweep row whose solve raised one of these
FAILURES = {VerticalBlowup: "vertical_blowup", NonConvergence: "non_convergence",
            DegenerateMetric: "degenerate_metric", OutOfDomain: "out_of_domain"}


@dataclass
class ContinuationStep:
    H: float
    solution: GraphSolution | None
    failure: str | None     # a value of FAILURES, None on success
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.solution is not None

    @property
    def height(self) -> float | None:
        return graph_height(self.solution) if self.solution is not None else None


def continuation_in_H(grid: DomainGrid, boundary_value: float, H_values,
                      params: SpaceParams,
                      orientation: int = -1) -> list[ContinuationStep]:
    """One cold `solve_dirichlet` per H of the ascending `H_values`.

    The rows are independent: each is the standalone solve at its H, so no
    row depends on the others in the list.  Failures are recorded with their
    FAILURES status and never abort the sweep.
    """
    H_values = list(H_values)
    if not (H_values and all(math.isfinite(H) and H >= 0 for H in H_values)
            and all(a < b for a, b in zip(H_values, H_values[1:]))):
        raise ConfigInvalid("H values must be nonempty, finite, >= 0 and "
                            "ascending")
    out: list[ContinuationStep] = []
    for H in H_values:
        try:
            sol = solve_dirichlet(grid, boundary_value, H, params,
                                  orientation=orientation)
        except tuple(FAILURES) as exc:
            out.append(ContinuationStep(H, None, FAILURES[type(exc)], str(exc)))
        else:
            out.append(ContinuationStep(H, sol, None))
    return out


def sigma_profile(sol: GraphSolution):
    """Max |sigma| in 10 equal bins of base-plane distance to the domain
    boundary, as (bin center, max) pairs of the nonempty bins."""
    # through the module: benchmark/tracing.py counts calls of the name
    # bound in this module as Newton residuals
    d = graph_geometry.mean_curvature_arrays(sol.grid.ambient(), *sol.jets(),
                                             sol.orientation)
    sigma = np.sqrt(np.maximum(d["sigma_sq"], 0.0))
    dist = sol.grid.boundary_distance()
    edges = np.linspace(0.0, float(dist.max()) + 1e-15, 11)
    prof = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        m = (dist >= lo) & (dist < hi)
        if m.any():
            prof.append((float(0.5 * (lo + hi)), float(sigma[m].max())))
    return prof
