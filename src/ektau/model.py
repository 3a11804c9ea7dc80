"""Ambient geometry of the homogeneous E(kappa, tau) model spaces.

The model carries coordinates (x, y, z) on R^3 (kappa >= 0) or on
D(2/sqrt(-kappa)) x R (kappa < 0), with line element

    ds^2 = lam^2 (dx^2 + dy^2) + (dz + tau*lam*(y dx - x dy))^2,
    lam  = 4 / (4 + kappa*(x^2 + y^2)).

The fibres of the submersion (x, y, z) -> (x, y) are the integral curves of
the unit Killing field d/dz; vertical translations z -> z + c are isometries,
and so are rotations about the z-axis.  The orthonormal frame is

    E1 = (1/lam) dx - tau*y dz,   E2 = (1/lam) dy + tau*x dz,   E3 = dz,

with orientation fixed by E1 x E2 = E3, under which the Killing identity
nabla_X dz = tau * (X x dz) holds with a plus sign.  The curvature is
constant in closed form: on the frame Ric = diag(kappa - 2 tau^2,
kappa - 2 tau^2, 2 tau^2), and the scalar curvature is S = 2 kappa - 2 tau^2.

All functions here are pure.  `ambient_components` is the one
implementation of the metric: it returns lam, the metric, its inverse and
its first partials in closed form, on floats or on arrays.  The graph
kernel and the solver read it directly; the pointwise API (`metric_at`,
`christoffel`, `curvature_report`) and the vectorized `*_components`
helpers fill their arrays from it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveH, OutOfDomain, UnsupportedSign

# Strict margin kept inside the model disk when kappa < 0; lam diverges at
# the boundary.
DOMAIN_MARGIN = 1e-9


@dataclass(frozen=True)
class SpaceParams:
    """The pair (kappa, tau) selecting the ambient geometry.

    kappa is the base curvature, tau >= 0 the bundle curvature.  kappa = 0,
    tau > 0 is the Heisenberg group Nil_3; kappa < 0, tau > 0 is the
    universal cover of PSL_2(R).  kappa = tau = 0 (flat R^3) is allowed as
    the Euclidean reduction used by cross-checks; other kappa = 4*tau^2
    coincidences are rejected.
    """

    kappa: float
    tau: float

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and math.isfinite(self.tau)):
            raise ValueError("kappa and tau must be finite")
        if self.tau < 0:
            raise ValueError("tau must be >= 0 (fix the orientation so tau >= 0)")
        if self.kappa == 0.0 and self.tau == 0.0:
            return
        scale = max(abs(self.kappa), 4 * self.tau**2)
        if abs(self.kappa - 4 * self.tau**2) <= 1e-12 * scale:
            raise ValueError(
                "kappa - 4*tau^2 must not vanish (got kappa=%g, tau=%g)"
                % (self.kappa, self.tau)
            )

    @property
    def domain_radius(self) -> float:
        """Radius of the model disk; infinite when kappa >= 0."""
        if self.kappa < 0:
            return 2.0 / math.sqrt(-self.kappa)
        return math.inf

    @property
    def theorem_scope(self) -> bool:
        """True for the fibered cases tau > 0 with kappa <= 0."""
        return self.tau > 0 and self.kappa <= 0

    @property
    def is_flat(self) -> bool:
        return self.kappa == 0.0 and self.tau == 0.0

    def contains(self, x, y) -> bool:
        """True iff every point has a finite x^2 + y^2 and, for kappa < 0,
        lies strictly inside the model disk by DOMAIN_MARGIN."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        with np.errstate(over="ignore"):
            r2 = x ** 2 + y ** 2
        inside = np.isfinite(r2)
        if self.kappa < 0:
            inside &= r2 < (self.domain_radius - DOMAIN_MARGIN) ** 2
        return bool(inside.all())

    def require_inside(self, x, y) -> None:
        if not self.contains(x, y):
            if not (np.isfinite(x).all() and np.isfinite(y).all()):
                raise OutOfDomain("non-finite point")
            if self.kappa >= 0:
                raise OutOfDomain("point so far out that x^2 + y^2 overflows")
            raise OutOfDomain(
                "point outside the model disk of radius %g" % self.domain_radius
            )

    def to_dict(self) -> dict:
        return {"kappa": self.kappa, "tau": self.tau}

    @classmethod
    def from_dict(cls, d: dict) -> "SpaceParams":
        return cls(kappa=float(d["kappa"]), tau=float(d["tau"]))


@dataclass(frozen=True)
class Point3:
    """Model coordinates of a point."""

    x: float
    y: float
    z: float = 0.0

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


@dataclass(frozen=True)
class TangentVector:
    """Coordinate-basis components of a tangent vector at a base point."""

    base: Point3
    components: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "components", np.asarray(self.components, dtype=float)
        )


@dataclass(frozen=True)
class MetricAtPoint:
    """Metric tensor, its inverse and first derivatives at one point.

    dg is indexed dg[i, j, k] = d g_ij / d x^k, symmetric in (i, j).
    """

    g: np.ndarray
    g_inv: np.ndarray
    dg: np.ndarray


@dataclass(frozen=True)
class CurvatureReport:
    """Curvature data of the homogeneous space at a point.

    christoffel is indexed [k, i, j] = Gamma^k_ij.  ricci holds the
    coordinate components R_ij; ricci_diag_frame its values on E1, E2, E3.
    killing_residual is the largest violation of nabla_X dz = tau X x dz
    over a deterministic sample of unit tangent vectors.
    """

    christoffel: np.ndarray
    ricci: np.ndarray
    ricci_diag_frame: np.ndarray
    scalar: float
    killing_residual: float


# ----------------------------------------------------------------------
# ambient components: the one implementation of the metric


def _any(flags) -> bool:
    """any() of a comparison made on floats (a bool) or on arrays."""
    return flags if isinstance(flags, bool) else bool(flags.any())


# Closed-form ambient data at base points (x, y), floats or arrays: lam and
# its gradient, the metric entries g_ij, the inverse entries gi_ij and the
# partials dx_ij = d g_ij / dx, dy_ij = d g_ij / dy.  Left out as constants:
# g_zz = 1, g^yy = g^xx, g^xy = 0 and d g_zz = 0; nothing depends on z.
Ambient = namedtuple("Ambient", (
    "lam lam_x lam_y g_xx g_xy g_xz g_yy g_yz gi_xx gi_xz gi_yz gi_zz "
    "dx_xx dx_xy dx_xz dx_yy dx_yz dy_xx dy_xy dy_xz dy_yy dy_yz"))


def ambient_components(x, y, params: SpaceParams) -> Ambient:
    """lam, its gradient, the metric, its inverse and its first partials.

    The inverse comes from the orthonormal frame, g^{-1} = sum E_a (x) E_a:
    g^xx = g^yy = 1/lam^2, g^xz = -tau y/lam, g^yz = tau x/lam and
    g^zz = 1 + tau^2 (x^2 + y^2).  Floats give floats, arrays give arrays.
    Raises `OutOfDomain` where 4 + kappa (x^2 + y^2) <= 0.
    """
    k, t = params.kappa, params.tau
    t2 = t * t
    u = 4.0 + k * (x * x + y * y)
    if _any(u <= 0.0):
        raise OutOfDomain("conformal factor undefined: 4 + kappa r^2 <= 0")
    lam = 4.0 / u
    lam2 = lam * lam
    lam_x = -0.5 * k * x * lam2
    lam_y = -0.5 * k * y * lam2
    dl2x = 2.0 * lam * lam_x
    dl2y = 2.0 * lam * lam_y
    cx = 1.0 + t2 * y * y          # g_xx / lam^2
    cy = 1.0 + t2 * x * x          # g_yy / lam^2
    return Ambient(
        lam, lam_x, lam_y,
        lam2 * cx, -lam2 * t2 * x * y, t * lam * y, lam2 * cy, -t * lam * x,
        1.0 / lam2, -t * y / lam, t * x / lam, 1.0 + t2 * (x * x + y * y),
        dl2x * cx, -t2 * (dl2x * x * y + lam2 * y), t * lam_x * y,
        dl2x * cy + 2.0 * t2 * lam2 * x, -t * (lam_x * x + lam),
        dl2y * cx + 2.0 * t2 * lam2 * y, -t2 * (dl2y * x * y + lam2 * x),
        t * (lam_y * y + lam), dl2y * cy, -t * lam_y * x,
    )


def conformal_factor_jet(x, y, params: SpaceParams):
    """(lam, lam_x, lam_y) at (x, y), floats or arrays."""
    return ambient_components(x, y, params)[:3]


def conformal_factor(x: float, y: float, params: SpaceParams) -> float:
    """lam = 4 / (4 + kappa (x^2 + y^2)) with the domain guard."""
    params.require_inside(x, y)
    return float(conformal_factor_jet(x, y, params)[0])


# ----------------------------------------------------------------------
# metric, frame, connection (arrays filled from `ambient_components`)

_PAIRS = ((0, 0, "xx"), (0, 1, "xy"), (0, 2, "xz"), (1, 1, "yy"), (1, 2, "yz"))


def _metric_arrays(x, y, params: SpaceParams):
    """g, g^{-1} and dg[..., i, j, k] = d g_ij / d x^k, shapes (..., 3, 3)
    and (..., 3, 3, 3), from `ambient_components`."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    a = ambient_components(x, y, params)
    shape = np.broadcast_shapes(x.shape, y.shape)
    g = np.zeros(shape + (3, 3))
    g_inv = np.zeros(shape + (3, 3))
    dg = np.zeros(shape + (3, 3, 3))
    g[..., 2, 2] = 1.0
    for i, j, ij in _PAIRS:
        g[..., i, j] = g[..., j, i] = getattr(a, "g_" + ij)
        dg[..., i, j, 0] = dg[..., j, i, 0] = getattr(a, "dx_" + ij)
        dg[..., i, j, 1] = dg[..., j, i, 1] = getattr(a, "dy_" + ij)
    g_inv[..., 0, 0] = g_inv[..., 1, 1] = a.gi_xx
    g_inv[..., 0, 2] = g_inv[..., 2, 0] = a.gi_xz
    g_inv[..., 1, 2] = g_inv[..., 2, 1] = a.gi_yz
    g_inv[..., 2, 2] = a.gi_zz
    return g, g_inv, dg


def _christoffel(g_inv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma^k_ij = g^kl Gamma_{l,ij}, indexed [..., k, i, j], with the
    first-kind symbols Gamma_{l,ij} = (d_i g_jl + d_j g_il - d_l g_ij) / 2."""
    first = 0.5 * (np.einsum("...jli->...lij", dg)
                   + np.einsum("...ilj->...lij", dg)
                   - np.einsum("...ijl->...lij", dg))
    return np.einsum("...kl,...lij->...kij", g_inv, first)


def metric_components(x, y, params: SpaceParams) -> np.ndarray:
    """Coordinate metric g_ij at (x, y), shape (..., 3, 3)."""
    return _metric_arrays(x, y, params)[0]


def christoffel_components(x, y, params: SpaceParams) -> np.ndarray:
    """Gamma[..., k, i, j] from the exact metric derivatives."""
    _, g_inv, dg = _metric_arrays(x, y, params)
    return _christoffel(g_inv, dg)


def metric_at(p: Point3, params: SpaceParams) -> MetricAtPoint:
    """Metric tensor with inverse and exact first derivatives at p."""
    params.require_inside(p.x, p.y)
    g, g_inv, dg = _metric_arrays(p.x, p.y, params)
    return MetricAtPoint(g=g, g_inv=g_inv, dg=dg)


def frame_matrix(x, y, params: SpaceParams) -> np.ndarray:
    """Columns are the coordinate components of E1, E2, E3, shape (..., 3, 3)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    lam, t = ambient_components(x, y, params).lam, params.tau
    F = np.zeros(np.broadcast_shapes(x.shape, y.shape) + (3, 3))
    F[..., 0, 0] = F[..., 1, 1] = 1.0 / lam
    F[..., 2, 0], F[..., 2, 1], F[..., 2, 2] = -t * y, t * x, 1.0
    return F


def orthonormal_frame(p: Point3, params: SpaceParams):
    """The frame E1, E2, E3 at p as TangentVectors."""
    params.require_inside(p.x, p.y)
    F = frame_matrix(p.x, p.y, params)
    return tuple(TangentVector(base=p, components=F[:, i]) for i in range(3))


def christoffel(p: Point3, params: SpaceParams) -> np.ndarray:
    """Christoffel symbols Gamma^k_ij at p, indexed [k, i, j]."""
    params.require_inside(p.x, p.y)
    return christoffel_components(p.x, p.y, params)


# ----------------------------------------------------------------------
# curvature


def _killing_residual_at(x: float, y: float, params: SpaceParams, gamma: np.ndarray) -> float:
    """max |nabla_X dz - tau X x dz|_g over a fixed sample of directions."""
    g = metric_components(x, y, params)
    F = frame_matrix(x, y, params)
    lam = 1.0 / F[0, 0]
    # deterministic direction sample: frame vectors and diagonal mixes
    dirs = [
        F[:, 0], F[:, 1], F[:, 2],
        F[:, 0] + F[:, 1], F[:, 0] - F[:, 2], F[:, 1] + 2 * F[:, 2],
    ]
    worst = 0.0
    for X in dirs:
        nab = gamma[:, :, 2] @ X  # (nabla_X dz)^k = Gamma^k_{i z} X^i
        # X x E3 in the frame, from the coframe lam dx, lam dy
        cross_f = np.array([lam * X[1], -lam * X[0], 0.0])
        diff = nab - params.tau * (F @ cross_f)
        worst = max(worst, float(np.sqrt(diff @ g @ diff)))
    return worst


def curvature_report(p: Point3, params: SpaceParams) -> CurvatureReport:
    """Christoffels, Ricci, scalar curvature and Killing residual at p.

    The Christoffels are exact; the curvature is closed form.  With
    g_z = g(E3, .) the row g[2] (E3 = d/dz),

        Ric = (kappa - 2 tau^2) g + (4 tau^2 - kappa) g_z (x) g_z,

    which is diag(kappa - 2 tau^2, kappa - 2 tau^2, 2 tau^2) on the frame.
    """
    params.require_inside(p.x, p.y)
    k, t2 = params.kappa, params.tau ** 2
    g, g_inv, dg = _metric_arrays(p.x, p.y, params)
    G = _christoffel(g_inv, dg)
    return CurvatureReport(
        christoffel=G,
        ricci=(k - 2 * t2) * g + (4 * t2 - k) * np.outer(g[2], g[2]),
        ricci_diag_frame=np.array([k - 2 * t2, k - 2 * t2, 2 * t2]),
        scalar=scalar_curvature(params),
        killing_residual=_killing_residual_at(p.x, p.y, params, G),
    )


def scalar_curvature(params: SpaceParams) -> float:
    """The constant scalar curvature S = 2 kappa - 2 tau^2 of the space."""
    return 2.0 * params.kappa - 2.0 * params.tau ** 2


# ----------------------------------------------------------------------
# derived constants and base-plane distances


def critical_mean_curvature(params: SpaceParams) -> float:
    """sqrt(-kappa)/2; rotational H-spheres exist exactly above it."""
    if params.kappa > 0:
        raise UnsupportedSign("critical mean curvature is defined for kappa <= 0")
    return math.sqrt(-params.kappa) / 2.0


def sphere_exists(H: float, params: SpaceParams) -> bool:
    """True iff 4 H^2 + kappa > 0."""
    if H <= 0:
        raise NonPositiveH("sphere existence requires H > 0")
    return 4.0 * H * H + params.kappa > 0.0


def base_distance(p1, p2, params: SpaceParams):
    """Distance between base points (x, y) in M^2(kappa).

    For kappa < 0 this is the hyperbolic distance of the conformal disk
    model of radius 2/sqrt(-kappa); for kappa = 0 it is Euclidean.  The
    Riemannian submersion makes this a lower bound for the ambient distance
    between points on the corresponding fibres.  Coordinates may be arrays
    (broadcast against each other); the result then has their shape.
    """
    x1, y1 = np.asarray(p1[0], dtype=float), np.asarray(p1[1], dtype=float)
    x2, y2 = np.asarray(p2[0], dtype=float), np.asarray(p2[1], dtype=float)
    if params.kappa > 0:
        raise UnsupportedSign("base distance implemented for kappa <= 0 only")
    if params.kappa == 0:
        return np.hypot(x2 - x1, y2 - y1)
    a = math.sqrt(-params.kappa)
    u1 = (x1 + 1j * y1) * (a / 2.0)
    u2 = (x2 + 1j * y2) * (a / 2.0)
    m = np.abs((u1 - u2) / (1.0 - np.conj(u1) * u2))
    m = np.minimum(m, 1.0 - 1e-16)
    return (2.0 / a) * np.arctanh(m)
