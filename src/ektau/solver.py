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
off it.  The stencils and the boundary closure are linear, so J x is the
sum over jets k of dH/d jet k times (jet_u x)_k: GMRES applies J so, and
J is assembled as one sparse product S @ jet_u (S holds the partials as a
row of five diagonal matrices) only to be factored.  Newton works in a
nested-dissection order (George 1973: a lattice line across the longer
side of each box, down to boxes of 8 nodes) in which the disk closure's
long couplings are lifted into the separators that split them, so every
Jacobian coupling is separated.  In it one SuperLU factor (symmetric mode)
is taken as it stands and serves as the right preconditioner of GMRES
(Saad and Schultz 1986) on each later Jacobian.
The next Jacobian is assembled and factored afresh when 15 GMRES
iterations fall short of a relative residual of 1e-6, and after every
damped or forced step.  A cycle gives up early, from its fifth vector on,
when its mean contraction per vector so far, carried to 15 vectors, would
leave the residual over 1000 times the target.

Each Newton iteration makes one pass over the step lengths 1, 1/2, ...,
2**-13, skipping a trial whose metric degenerates: the first Armijo step
wins, else the first trial is forced if it lowers min|nu|; chase mode skips
the Armijo test.  A full step that fails the Armijo test but cuts min|nu|
below a tenth of its value ends the pass: it is forced, and chase mode
starts.  Chase mode also starts when, over the last two iterations, the
residual fell by less than 2% while min|nu| fell by more than 30%.  Any
iterate, the start included, with min|nu| < 1e-3 raises `VerticalBlowup`; a
pass with nothing to take or force ("stalled"), the budget ("exhausted")
and a Jacobian SuperLU finds singular raise `NonConvergence`.  Cold solves
on disks with 0 < H R < 1 start from the rotational cap about the grid
center, others from zero; each solve is one Newton run, and its failure
propagates as raised.

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

import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import graph_geometry, model, rotational
from .errors import (ConfigInvalid, DegenerateMetric, IoFailure, NonConvergence,
                     OutOfDomain, VerticalBlowup, atomic_write, finite_pair,
                     finite_real)
from .graph_geometry import (_check_orientation, mean_curvature_arrays,
                             mean_curvature_sensitivities)
from .model import Ambient, SpaceParams, ambient_components

BLOWUP_NU = 1e-3

# the most nodes per side a lattice may have, checked before any allocation:
# a lattice keeps dozens of arrays of n^2 entries, several GB at this n
MAX_NODES_PER_SIDE = 4096

# convergence: max-norm residual, and the iteration budget of a Newton run
_TOL_RESIDUAL = 1e-10
_MAX_NEWTON = 50

# one GMRES cycle on a reused factor: iterations and relative residual
_KRYLOV_ITERATIONS = 15
_KRYLOV_RTOL = 1e-6
# a cycle is given up after this many Arnoldi vectors when its mean
# contraction so far, carried to the whole cycle, leaves the residual this
# far above the target
_KRYLOV_PROBE = 5
_KRYLOV_HOPELESS = 1000.0

# trial step lengths of each Newton iteration: 1, 1/2, ..., 2**-13
_STEP_LENGTHS = tuple(0.5 ** k for k in range(14))

# ghost extrapolation: crossing fraction above which the quadratic through
# the nearest node is ill conditioned and the closure skips that node
_GHOST_QUADRATIC_LIMIT = 0.8

_JET_NAMES = ("fx", "fy", "fxx", "fxy", "fyy")

_ND_LEAF = 8              # nested-dissection boxes this small are not cut


@functools.lru_cache(maxsize=8)
def _nd_order(nx: int, ny: int):
    """The nested dissection of an nx x ny lattice (George 1973): a line
    across the longer side, which separates the halves for the 3 x 3
    couplings, follows each half, dissected in turn.

    Returns (order, block, parent, depth): the row-major node numbers in
    elimination order, each node's block, and each block's parent block
    (-1 at the root) and depth (0 at the root).  The blocks, leaf boxes
    and separating lines, are numbered in elimination order, so a block's
    ancestors are numbered after it.  All four arrays are read-only."""
    boxes, parent, depth = [], [], []

    def dissect(box, d):
        """Number the blocks of box, at depth d; return its root block."""
        children = ()
        if box.size > _ND_LEAF:
            if box.shape[0] < box.shape[1]:
                box = box.T
            m = box.shape[0] // 2
            children = dissect(box[:m], d + 1), dissect(box[m + 1:], d + 1)
            box = box[m]
        root = len(boxes)
        boxes.append(box.ravel())
        parent.append(-1)
        depth.append(d)
        for child in children:
            parent[child] = root
        return root

    dissect(np.arange(nx * ny).reshape(nx, ny), 0)
    order = np.concatenate(boxes)
    block = np.empty(nx * ny, dtype=np.int64)
    block[order] = np.repeat(np.arange(len(boxes)), [b.size for b in boxes])
    out = order, block, np.array(parent), np.array(depth)
    for a in out:
        a.flags.writeable = False
    return out


def _common_ancestor(parent, depth, a, b):
    """The lowest common ancestor-or-self of the blocks a[i] and b[i]."""
    while True:
        da, db = depth[a], depth[b]
        up_a, up_b = da > db, db > da
        both = (da == db) & (a != b)
        if not (up_a | up_b | both).any():
            return a
        a = np.where(up_a | both, parent[a], a)
        b = np.where(up_b | both, parent[b], b)


def _newton_dissection(grid: "DomainGrid"):
    """(order, block): the unknowns in Newton's nested-dissection order, and
    each unknown's block of the lattice's dissection (`_nd_order`).

    The disk closure couples a node a in the 3 x 3 neighbourhood of a ghost
    with the interior nodes the ghost extrapolates from, up to three steps
    away, where the lattice's lines do not separate them.  For each such
    coupling whose blocks lie in sibling subtrees, a moves into the
    separator of their lowest common ancestor; a node with several such
    couplings takes the shallowest of their separators, all of them
    ancestors of its block, so the one numbered last.  Moved nodes lead
    their new block, in `nd_order()`.  Every Jacobian coupling then joins
    a block and one of its ancestors.  With nothing to move (a rectangle
    has no ghosts), the order is `nd_order()` itself."""
    n = grid.n
    _, block, parent, depth = _nd_order(n, n)
    ii, jj = grid.interior_ij[:, 0], grid.interior_ij[:, 1]
    blocks = block[ii * n + jj]
    base = grid.nd_order()
    ghost = grid.closure_A[~grid.interior.ravel()].tocoo()
    gi, gj = np.divmod(np.flatnonzero(~grid.interior.ravel())[ghost.row], n)
    # interior neighbours a of each ghost, against the ghost's columns c
    idx = np.pad(grid.idx, 1, constant_values=-1)
    a = np.stack([idx[gi + 1 + di, gj + 1 + dj]
                  for di in (-1, 0, 1) for dj in (-1, 0, 1)], axis=1)
    c = np.broadcast_to(ghost.col[:, None], a.shape)
    a, c = a[a >= 0], c[a >= 0]
    top = _common_ancestor(parent, depth, blocks[a], blocks[c])
    crossing = (top != blocks[a]) & (top != blocks[c])
    if not crossing.any():
        return base, blocks
    lifted = np.full(grid.n_interior, -1, dtype=np.int64)
    np.maximum.at(lifted, a[crossing], top[crossing])
    moved = lifted >= 0
    blocks = np.where(moved, lifted, blocks)
    order = base[np.argsort(2 * blocks[base] + ~moved[base], kind="stable")]
    order.flags.writeable = False
    return order, blocks


def _dot2(u, v):
    """Row-wise dot products of stacked vectors through matmul, which rounds
    like the BLAS dot of `u @ v` on single vectors (a fused multiply-add on
    most builds), so vectorized and per-node geometry agree to the bit."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


class DomainGrid:
    """Uniform lattice with an interior mask over a disk or rectangle.

    The lattice covers the bounding box with n nodes per side, 8 <= n <=
    MAX_NODES_PER_SIDE.  `interior` flags the unknowns; for disks, `ghost`
    flags exterior nodes adjacent to the interior whose values are defined
    by the boundary closure.
    """

    def __init__(self, shape: str, center, n: int, params: SpaceParams,
                 radius: float | None = None, extents=None):
        if not (isinstance(n, (int, np.integer)) and 8 <= n <= MAX_NODES_PER_SIDE):
            raise ConfigInvalid("need 8 <= n <= %d nodes per side, got %r"
                                % (MAX_NODES_PER_SIDE, n))
        if shape not in ("disk", "rectangle"):
            raise ConfigInvalid("shape must be 'disk' or 'rectangle'")
        if not isinstance(params, SpaceParams):
            raise ConfigInvalid("params must be a SpaceParams, got %r" % (params,))
        if not finite_pair(center):
            raise ConfigInvalid("grid center must be two finite numbers")
        self.shape = shape
        self.center = (float(center[0]), float(center[1]))
        self.n = int(n)
        self.params = params
        cx, cy = self.center
        if shape == "disk":
            if not (finite_real(radius) and radius > 0):
                raise ConfigInvalid("disk grid needs a finite positive radius")
            if not math.isfinite(float(radius) * float(radius)):
                raise ConfigInvalid("disk grid radius %g squares past the "
                                    "float range" % radius)
            self.radius = float(radius)
            self.extents = (self.radius, self.radius)
        else:
            if not (finite_pair(extents) and min(extents) > 0):
                raise ConfigInvalid("rectangle grid needs two finite positive extents")
            self.radius = None
            self.extents = (float(extents[0]), float(extents[1]))
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
            # an offset whose square overflows lies outside the disk
            with np.errstate(over="ignore"):
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
        # the lattice's one jet operator: `jet_u @ u` stacks the jets
        self.jet_u = (_jet_stencils(self) @ self.closure_A).tocsr()
        self._amb: Ambient | None = None
        self._nd: np.ndarray | None = None
        self._newton_nd: np.ndarray | None = None

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
        # lengths in units of a power of two near R, exactly, so that the
        # discriminant's fourth powers stay normal floats at any radius
        unit = math.ldexp(1.0, -math.frexp(R)[1])
        e = (pg - np.array([cx, cy])) * unit
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
        d *= unit
        d[~valid] = 1.0                       # keep a > 0 off the lattice
        a = _dot2(d, d)
        bq = _dot2(2.0 * d, e[:, None, :])
        cq = _dot2(e, e)[:, None] - (R * unit) ** 2
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

    # -- helpers -------------------------------------------------------------

    def ambient(self) -> Ambient:
        """Closed-form ambient data at the interior nodes, computed once;
        raises `DegenerateMetric` where an entry leaves the float range
        (the conformal factor's square underflows for huge kappa, tau^2
        r^2 overflows for huge tau)."""
        if self._amb is None:
            ii, jj = self.interior_ij[:, 0], self.interior_ij[:, 1]
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                amb = ambient_components(self.X[ii, jj], self.Y[ii, jj],
                                         self.params)
            if not all(np.isfinite(a).all() for a in amb):
                raise DegenerateMetric(
                    "ambient metric leaves the float range on the lattice "
                    "(kappa=%g, tau=%g)" % (self.params.kappa, self.params.tau))
            self._amb = amb
        return self._amb

    def nd_order(self) -> np.ndarray:
        """The unknowns in the lattice's nested-dissection order, computed
        once: the Jacobi operator, whose Q1 couplings are all 3 x 3, is
        factored in it, and Newton's order (`newton_order`) starts from it."""
        if self._nd is None:
            nd = self.idx.ravel()[_nd_order(self.n, self.n)[0]]
            self._nd = nd[nd >= 0]
            self._nd.flags.writeable = False
        return self._nd

    def newton_order(self) -> np.ndarray:
        """The unknowns in the order Newton's Jacobians are factored in,
        computed once: `nd_order()` with the closure's long couplings
        lifted into their separators (`_newton_dissection`)."""
        if self._newton_nd is None:
            self._newton_nd = _newton_dissection(self)[0]
        return self._newton_nd

    def full_values(self, u: np.ndarray) -> np.ndarray:
        """Lattice values of the unknowns u under boundary value zero."""
        return (self.closure_A @ u).reshape(self.n, self.n)

    def boundary_distance(self) -> np.ndarray:
        """Base-plane distance of each interior node to the domain boundary;
        for kappa < 0 a disk is a geodesic circle, with its own center."""
        ii, jj = self.interior_ij[:, 0], self.interior_ij[:, 1]
        x, y = self.X[ii, jj], self.Y[ii, jj]
        p = self.params
        cx, cy = self.center
        if self.shape == "disk":
            if p.kappa == 0:
                return self.radius - np.hypot(x - cx, y - cy)
            # its diameter through the origin spans signed distances lo..hi
            c = math.hypot(cx, cy)
            u = np.array([cx, cy]) / c if c else np.array([1.0, 0.0])
            t = np.array([c - self.radius, c + self.radius])
            lo, hi = np.copysign(model.base_distance((0, 0), np.outer(u, t), p), t)
            # model radius of the geodesic center, at distance (hi + lo) / 2
            rc = p.domain_radius * math.tanh(0.5 * (hi + lo) / p.domain_radius)
            return 0.5 * (hi - lo) - model.base_distance(rc * u, (x, y), p)
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
        dist = np.full(len(x), np.inf)
        for q in edges:
            np.minimum(dist, model.base_distance((x, y), q, p), out=dist)
        return dist

    def descriptor(self) -> dict:
        d = {"shape": self.shape, "center": list(self.center), "n": self.n}
        if self.shape == "disk":
            d["radius"] = self.radius
        else:
            d["extents"] = list(self.extents)
        return d

    @classmethod
    def from_descriptor(cls, d: dict, params: SpaceParams) -> "DomainGrid":
        return cls(d["shape"], d["center"], d["n"], params,
                   radius=d.get("radius"), extents=d.get("extents"))


def _jet_stencils(grid: DomainGrid) -> sp.csr_matrix:
    """Centred differences at the interior nodes on full lattice values:
    block k (rows k m to (k + 1) m) gives the jet _JET_NAMES[k].  Built
    straight into CSR, each row's entries in ascending lattice index."""
    n, m = grid.n, grid.n_interior
    hx, hy = grid.hx, grid.hy
    ii, jj = grid.interior_ij[:, 0], grid.interior_ij[:, 1]
    # (offset, weight) of each jet in _JET_NAMES order: fx, fy, fxx, fxy,
    # fyy; the offsets (di, dj) ascend in di n + dj
    stencils = (
        [((-1, 0), -1 / (2 * hx)), ((1, 0), 1 / (2 * hx))],
        [((0, -1), -1 / (2 * hy)), ((0, 1), 1 / (2 * hy))],
        [((-1, 0), 1 / hx**2), ((0, 0), -2 / hx**2), ((1, 0), 1 / hx**2)],
        [((-1, -1), 1 / (4 * hx * hy)), ((-1, 1), -1 / (4 * hx * hy)),
         ((1, -1), -1 / (4 * hx * hy)), ((1, 1), 1 / (4 * hx * hy))],
        [((0, -1), 1 / hy**2), ((0, 0), -2 / hy**2), ((0, 1), 1 / hy**2)],
    )
    node = ii * n + jj
    indices = [(node[:, None] + [di * n + dj for (di, dj), _ in entries]).ravel()
               for entries in stencils]
    data = [np.tile([w for _, w in entries], m) for entries in stencils]
    indptr = np.r_[0, np.cumsum(np.repeat([len(e) for e in stencils], m))]
    return sp.csr_matrix((np.concatenate(data), np.concatenate(indices), indptr),
                         shape=(len(stencils) * m, n * n))


def disk_grid(radius: float, n: int, params: SpaceParams, center=(0.0, 0.0)) -> DomainGrid:
    return DomainGrid("disk", center, n, params, radius=radius)


def rectangle_grid(extents, n: int, params: SpaceParams, center=(0.0, 0.0)) -> DomainGrid:
    return DomainGrid("rectangle", center, n, params, extents=extents)


@dataclass
class GraphSolution:
    """Converged graph over a masked grid with convergence metadata."""

    grid: DomainGrid
    values: np.ndarray
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
            "params": self.grid.params.to_dict(),
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
            grid = DomainGrid.from_descriptor(
                rec["grid"], SpaceParams.from_dict(rec["params"]))
            values = np.array(rec["values"], dtype=float).reshape(grid.n, grid.n)
            H = float(rec["H_target"])
            boundary_value = float(rec["boundary_value"])
            _check_data(H, boundary_value)
            iters = rec.get("newton_iterations", 0)
            if not (type(iters) is int and iters >= 0):
                raise ConfigInvalid("newton_iterations must be an int >= 0, "
                                    "got %r" % (iters,))
            return cls(grid=grid, values=values, H_target=H,
                       boundary_value=boundary_value,
                       residual_max=float(rec["residual_max"]),
                       min_abs_nu=float(rec["min_abs_nu"]),
                       max_sigma_interior=float(rec["max_sigma_interior"]),
                       newton_iterations=iters,
                       orientation=_check_orientation(rec.get("orientation", -1)))
        except ConfigInvalid:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigInvalid("bad solution record: %r" % (exc,))

    def save(self, path) -> None:
        atomic_write(path, json.dumps(self.to_record(), sort_keys=True))

    @classmethod
    def load(cls, path) -> "GraphSolution":
        try:
            with open(path) as fh:
                return cls.from_record(json.load(fh))
        except OSError as exc:
            raise IoFailure("cannot read solution %s: %s" % (path, exc))
        except ValueError as exc:       # ConfigInvalid and JSONDecodeError too
            raise ConfigInvalid("bad solution %s: %s" % (path, exc))


def _residual(grid: DomainGrid, u, H_target, orientation):
    """H - H_target at the unknowns u, and the kernel dict it came from."""
    d = mean_curvature_arrays(grid.ambient(), *(grid.jet_u @ u).reshape(
        len(_JET_NAMES), -1), orientation)
    return d["H"] - H_target, d


def _jacobian(grid: DomainGrid, dH, p):
    """J[p][:, p] in CSC for J = S @ jet_u, the Jacobian of the sensitivities
    dH of `mean_curvature_sensitivities` in the order p of the unknowns, with
    S = [diag(dH/d fx) ... diag(dH/d fyy)]: the sum over k of diag(dH/d jet
    k) @ block k of jet_u.

    Row i of S holds its five entries in block order, so the CSR product
    adds the entries of different blocks that meet in one place in block
    order.  Sums that are exactly zero are not stored.  S takes its rows in
    order p and the product's columns are renumbered in place, so only the
    product and its CSC copy are ever alive."""
    m, k = grid.n_interior, len(_JET_NAMES)
    # row i: dH/d jet j at node p[i], in column j m + p[i]
    data = np.stack([dH[name][p] for name in _JET_NAMES], axis=1).ravel()
    cols = (np.arange(0, k * m, m) + p[:, None]).ravel()
    S = sp.csr_matrix((data, cols, np.arange(0, k * m + 1, k)),
                      shape=(m, k * m))
    J = S @ grid.jet_u
    rank = np.empty(m, dtype=J.indices.dtype)
    rank[p] = np.arange(m)
    J.indices = rank[J.indices]
    return J.tocsc()


def _jacobian_action(grid: DomainGrid, dH, order):
    """x -> J x for J = `_jacobian(grid, dH, order)`, without assembling J:
    x goes to the natural order, `jet_u` takes it to the five jets, their
    dH-weighted sum is J x, and it comes back in the order given."""
    w = np.stack([dH[name] for name in _JET_NAMES])

    def apply(x):
        x_natural = np.empty_like(x)
        x_natural[order] = x
        return (w * (grid.jet_u @ x_natural).reshape(w.shape)).sum(axis=0)[order]
    return apply


def _factor(J, ordering: str):
    """SuperLU in symmetric mode, in the given column ordering.

    Lattice matrices (Newton's Jacobians, the Jacobi operators of a
    solved graph) come permuted into the grid's nested-dissection order
    and pass "NATURAL"; hand-built operators without an ordering pass
    "MMD_AT_PLUS_A", minimum degree on the pattern of J^T + J.  Only the
    closure's ghost couplings break the symmetry of a Jacobian's pattern,
    and symmetric mode, which prefers diagonal pivots, keeps the factors
    close to the ordering's fill.  The shifted Jacobi operators of
    `stability` are symmetric positive definite, so diagonal pivots are
    safe there too."""
    return spla.splu(J, permc_spec=ordering, options=dict(SymmetricMode=True))


def _krylov(lu, apply, b):
    """One cycle of right-preconditioned GMRES (Saad and Schultz 1986) for
    apply(x) = b, preconditioned by lu.solve and started from the chord
    step x0 = lu.solve(b); None when _KRYLOV_ITERATIONS Arnoldi vectors do
    not bring the residual to _KRYLOV_RTOL ||b||.

    Modified Gram-Schmidt builds the Arnoldi basis v_j and Givens rotations
    keep the least-squares residual, the true one in exact arithmetic.  From
    _KRYLOV_PROBE vectors on, a cycle whose residual rho_k after k vectors,
    contracting at its mean rate (rho_k / beta)^(1/k) per vector, would
    still exceed _KRYLOV_HOPELESS times the target after _KRYLOV_ITERATIONS
    is given up (None) before it spends the rest of its solves.  Each
    z_j = lu.solve(v_j) is kept, so the answer x0 + sum c_j z_j needs no
    further solve: k + 1 triangular solves for k Arnoldi vectors."""
    k_max = _KRYLOV_ITERATIONS
    x = lu.solve(b)
    r = b - apply(x)
    beta = float(np.linalg.norm(r))
    tol = _KRYLOV_RTOL * float(np.linalg.norm(b))
    if beta <= tol:
        return x
    V, Z = [r / beta], []
    H = np.zeros((k_max + 1, k_max))    # Hessenberg, rotated to triangular
    cs, sn = np.empty(k_max), np.empty(k_max)
    g = np.zeros(k_max + 1)             # beta e_1, rotated alike
    g[0] = beta
    for j in range(k_max):
        Z.append(lu.solve(V[j]))
        w = apply(Z[j])
        h = H[:, j]
        for i in range(j + 1):
            h[i] = w @ V[i]
            w -= h[i] * V[i]
        h[j + 1] = np.linalg.norm(w)
        for i in range(j):
            h[i], h[i + 1] = (cs[i] * h[i] + sn[i] * h[i + 1],
                              cs[i] * h[i + 1] - sn[i] * h[i])
        rho = math.hypot(h[j], h[j + 1])
        cs[j], sn[j] = h[j] / rho, h[j + 1] / rho
        h[j] = rho
        g[j], g[j + 1] = cs[j] * g[j], -sn[j] * g[j]
        if abs(g[j + 1]) <= tol:
            c = scipy.linalg.solve_triangular(H[:j + 1, :j + 1], g[:j + 1])
            return x + c @ Z
        if j + 1 >= _KRYLOV_PROBE and (abs(g[j + 1]) / beta) ** (
                k_max / (j + 1)) * beta > _KRYLOV_HOPELESS * tol:
            return None
        V.append(w / h[j + 1])
    return None


def _linear_solve(grid: DomainGrid, dH, b, state: dict):
    """Newton step x with J x = b in Newton's order p (`newton_order()`),
    J the Jacobian of the sensitivities dH, reusing the factor kept in
    `state`.

    A kept factor preconditions one GMRES cycle (`_krylov`) on J applied
    matrix-free (`_jacobian_action`), so J is assembled (`_jacobian`, in
    order p) only to be factored as it stands.  A short cycle drops the
    stale factor before J is assembled and factored.  `_newton` drops the
    factor after every damped or forced step, so the next J is factored
    afresh.  A J that SuperLU finds singular raises `NonConvergence`."""
    p = grid.newton_order()
    lu = state.get("lu")
    if lu is not None:
        x = _krylov(lu, _jacobian_action(grid, dH, p), b)
        if x is not None:
            return x
        lu = state["lu"] = None
    try:
        state["lu"] = _factor(_jacobian(grid, dH, p), "NATURAL")
    except RuntimeError as exc:
        raise NonConvergence("singular Newton Jacobian: %s" % exc) from None
    return state["lu"].solve(b)


def _newton(grid: DomainGrid, H_target: float, orientation: int,
            u: np.ndarray):
    """Damped Newton on the nodal residual; one raise per way to give up.

    The residual's rounding floor grows with H, so the tolerance is
    _TOL_RESIDUAL scaled by 2^e for H in [2^e, 2^(e + 1)), e >= 0."""
    tol = math.ldexp(_TOL_RESIDUAL, max(0, math.frexp(H_target)[1] - 1))
    r, d = _residual(grid, u, H_target, orientation)
    rnorm = float(np.max(np.abs(r)))
    history: list[tuple[float, float]] = []
    chase = False
    lu_state: dict = {}
    p = grid.newton_order()     # the numbering of J and of its factor
    for it in range(_MAX_NEWTON + 1):
        nu_min = float(np.min(np.abs(d["nu"])))
        if nu_min < BLOWUP_NU:
            raise VerticalBlowup(
                "graph turned vertical during iteration: min|nu| < %g at H=%g"
                % (BLOWUP_NU, H_target))
        history.append((rnorm, nu_min))
        # two iterations that cut the residual by under 2% and min|nu| by
        # over 30% mean sliding past a fold: force steps from here on, so
        # the graph turns vertical instead of exhausting the budget
        if not chase and len(history) > 2:
            r_then, nu_then = history[-3]
            if rnorm > 0.98 * r_then and nu_min < 0.7 * nu_then:
                chase = True
        if rnorm <= tol:
            return u, rnorm, d, it
        if it == _MAX_NEWTON:
            raise NonConvergence(
                "Newton exhausted %d iterations, residual %.3e (H=%g)"
                % (_MAX_NEWTON, rnorm, H_target))
        dH = mean_curvature_sensitivities(grid.ambient(), d, orientation)
        d = None        # every trial brings its own; free this one for the LU
        du = np.empty_like(u)
        du[p] = _linear_solve(grid, dH, -r[p], lu_state)
        # one pass over the step lengths: the first trial whose metric does
        # not degenerate is the forced-step candidate, the first Armijo
        # trial the line-search step
        step = forced = None
        for t in _STEP_LENGTHS:
            u_try = u + t * du
            try:
                r_try, d_try = _residual(grid, u_try, H_target, orientation)
            except DegenerateMetric:
                continue
            rn_try = float(np.max(np.abs(r_try)))
            trial = (u_try, r_try, d_try, rn_try)
            forced = forced or trial
            if chase:
                break
            if rn_try < rnorm * (1.0 - 1e-4 * t):
                step = trial
                break
            # a full step that fails Armijo but cuts min|nu| tenfold slides
            # past the fold: it is the forced step, and chase mode starts
            if t == 1 and np.min(np.abs(d_try["nu"])) < 0.1 * nu_min:
                chase = True
                break
        if step is None or t < 1:
            lu_state["lu"] = None       # factor the next Jacobian afresh
        if step is None:
            # near a fold the line search stalls while the Newton direction
            # still steepens the graph: force the step while it lowers
            # min|nu|, so non-existence ends as VerticalBlowup
            if forced is None or np.min(np.abs(forced[2]["nu"])) >= nu_min:
                raise NonConvergence(
                    "Newton stalled at residual %.3e (H=%g)" % (rnorm, H_target))
            step = forced
        u, r, d, rnorm = step


def _check_data(H, boundary_value) -> None:
    """The Dirichlet data rules of a solve and of a solution record."""
    if not (finite_real(H) and H >= 0):
        raise ConfigInvalid("H must be finite and >= 0 (flip the orientation "
                            "for H < 0), got %r" % (H,))
    if not finite_real(boundary_value):
        raise ConfigInvalid("boundary value must be finite, got %r"
                            % (boundary_value,))


def has_cap(grid: DomainGrid, H: float) -> bool:
    """Whether the rotational cap about the grid center seeds cold solves:
    a disk with 0 < H R < 1 inside the chart of the profile (4 + kappa R^2 > 0)."""
    return (grid.shape == "disk" and 0 < H * grid.radius < 1
            and 4 + grid.params.kappa * grid.radius ** 2 > 0)


def solve_dirichlet(grid: DomainGrid, boundary_value: float, H: float,
                    params: SpaceParams, orientation: int = -1) -> GraphSolution:
    """Solve H(graph jet) = H at every interior node, Dirichlet data on the boundary.

    The discrete problem is solved with boundary value zero and shifted
    afterwards.  The iteration starts from the cap, signed -orientation,
    where `has_cap` holds, else from zero; an ambient metric past the float
    range raises `DegenerateMetric` before either.  The solve is one Newton
    run: a failure (`VerticalBlowup`, `NonConvergence`) propagates as
    raised.
    """
    if grid.params != params:
        raise ConfigInvalid("grid was built for different space parameters")
    _check_orientation(orientation)
    _check_data(H, boundary_value)
    grid.ambient()
    if has_cap(grid, H):
        r = np.hypot(grid.X - grid.center[0], grid.Y - grid.center[1])
        u0 = -orientation * rotational.cap_heights(
            r[grid.interior], grid.radius, H, params)
    else:
        u0 = np.zeros(grid.n_interior)
    u, rnorm, d, iters = _newton(grid, H, orientation, u0)
    full = grid.full_values(u) + boundary_value
    return GraphSolution(
        grid=grid, values=full, H_target=H,
        boundary_value=boundary_value, residual_max=rnorm,
        min_abs_nu=float(np.min(np.abs(d["nu"]))),
        max_sigma_interior=float(np.sqrt(np.max(d["sigma_sq"]))),
        newton_iterations=iters, orientation=orientation)


def graph_height(sol: GraphSolution) -> float:
    """Largest vertical offset from the boundary section."""
    return float(np.max(np.abs(sol.interior_values() - sol.boundary_value)))


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
