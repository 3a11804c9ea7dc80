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

All functions here are pure; the vectorized `*_components` helpers accept
numpy arrays broadcast over a trailing point axis and are the single code
path used by the pointwise wrappers and by the PDE/ODE modules.
"""

from __future__ import annotations

import math
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
        if self.kappa >= 0:
            return True
        r2 = np.asarray(x) ** 2 + np.asarray(y) ** 2
        return bool(np.all(r2 < (self.domain_radius - DOMAIN_MARGIN) ** 2))

    def require_inside(self, x, y) -> None:
        if not self.contains(x, y):
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
# conformal factor


def conformal_factor_jet(x, y, params: SpaceParams):
    """lam and its first and second partial derivatives, vectorized.

    Returns (lam, lam_x, lam_y, lam_xx, lam_xy, lam_yy).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    k = params.kappa
    u = 4.0 + k * (x * x + y * y)
    if np.any(u <= 0):
        raise OutOfDomain("conformal factor undefined: 4 + kappa r^2 <= 0")
    lam = 4.0 / u
    lam2 = lam * lam
    lam3 = lam2 * lam
    lam_x = -0.5 * k * x * lam2
    lam_y = -0.5 * k * y * lam2
    lam_xx = -0.5 * k * lam2 + 0.5 * k * k * x * x * lam3
    lam_yy = -0.5 * k * lam2 + 0.5 * k * k * y * y * lam3
    lam_xy = 0.5 * k * k * x * y * lam3
    return lam, lam_x, lam_y, lam_xx, lam_xy, lam_yy


def conformal_factor(x: float, y: float, params: SpaceParams) -> float:
    """lam = 4 / (4 + kappa (x^2 + y^2)) with the domain guard."""
    params.require_inside(x, y)
    lam, *_ = conformal_factor_jet(x, y, params)
    return float(lam)


# ----------------------------------------------------------------------
# metric, frame, connection (vectorized cores + pointwise wrappers)


def metric_components(x, y, params: SpaceParams) -> np.ndarray:
    """Coordinate metric g_ij at (x, y), shape (..., 3, 3)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lam, *_ = conformal_factor_jet(x, y, params)
    t = params.tau
    g = np.zeros(x.shape + (3, 3))
    lam2 = lam * lam
    g[..., 0, 0] = lam2 * (1.0 + t * t * y * y)
    g[..., 1, 1] = lam2 * (1.0 + t * t * x * x)
    g[..., 2, 2] = 1.0
    g[..., 0, 1] = g[..., 1, 0] = -lam2 * t * t * x * y
    g[..., 0, 2] = g[..., 2, 0] = t * lam * y
    g[..., 1, 2] = g[..., 2, 1] = -t * lam * x
    return g


def metric_derivatives(x, y, params: SpaceParams) -> np.ndarray:
    """Exact first partials dg[..., i, j, k] = d g_ij / d x^k."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lam, lam_x, lam_y, *_ = conformal_factor_jet(x, y, params)
    t = params.tau
    t2 = t * t
    dg = np.zeros(x.shape + (3, 3, 3))
    for k, lam_k in ((0, lam_x), (1, lam_y)):
        dlam2 = 2.0 * lam * lam_k
        # g_xx = lam^2 (1 + t^2 y^2)
        d = dlam2 * (1.0 + t2 * y * y)
        if k == 1:
            d = d + lam * lam * t2 * 2.0 * y
        dg[..., 0, 0, k] = d
        # g_yy = lam^2 (1 + t^2 x^2)
        d = dlam2 * (1.0 + t2 * x * x)
        if k == 0:
            d = d + lam * lam * t2 * 2.0 * x
        dg[..., 1, 1, k] = d
        # g_xy = -lam^2 t^2 x y
        d = -t2 * (dlam2 * x * y + lam * lam * (y if k == 0 else x))
        dg[..., 0, 1, k] = dg[..., 1, 0, k] = d
        # g_xz = t lam y
        d = t * (lam_k * y + (lam if k == 1 else 0.0))
        dg[..., 0, 2, k] = dg[..., 2, 0, k] = d
        # g_yz = -t lam x
        d = -t * (lam_k * x + (lam if k == 0 else 0.0))
        dg[..., 1, 2, k] = dg[..., 2, 1, k] = d
    return dg


def christoffel_components(x, y, params: SpaceParams) -> np.ndarray:
    """Gamma[..., k, i, j] from the exact metric derivatives."""
    g = metric_components(x, y, params)
    g_inv = np.linalg.inv(g)
    dg = metric_derivatives(x, y, params)
    # 0.5 g^{kl} (dg_jl/di + dg_il/dj - dg_ij/dl):
    # build T[i, j, l] = dg[j, l, i] + dg[i, l, j] - dg[i, j, l]
    dg_jli = np.moveaxis(dg, (-3, -2, -1), (-2, -1, -3))  # T1[i,j,l] = dg[j,l,i]
    dg_ilj = np.moveaxis(dg, (-3, -2, -1), (-3, -1, -2))  # T2[i,j,l] = dg[i,l,j]
    T = dg_jli + dg_ilj - dg
    gamma = 0.5 * np.einsum("...kl,...ijl->...kij", g_inv, T)
    return gamma


def metric_at(p: Point3, params: SpaceParams) -> MetricAtPoint:
    """Metric tensor with inverse and exact first derivatives at p."""
    params.require_inside(p.x, p.y)
    g = metric_components(p.x, p.y, params)
    return MetricAtPoint(g=g, g_inv=np.linalg.inv(g), dg=metric_derivatives(p.x, p.y, params))


def frame_matrix(x, y, params: SpaceParams) -> np.ndarray:
    """Columns are the coordinate components of E1, E2, E3, shape (..., 3, 3)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lam, *_ = conformal_factor_jet(x, y, params)
    t = params.tau
    F = np.zeros(x.shape + (3, 3))
    F[..., 0, 0] = 1.0 / lam
    F[..., 2, 0] = -t * y
    F[..., 1, 1] = 1.0 / lam
    F[..., 2, 1] = t * x
    F[..., 2, 2] = 1.0
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
    F_inv = np.linalg.inv(F)
    # deterministic direction sample: frame vectors and diagonal mixes
    dirs = [
        F[:, 0], F[:, 1], F[:, 2],
        F[:, 0] + F[:, 1], F[:, 0] - F[:, 2], F[:, 1] + 2 * F[:, 2],
    ]
    worst = 0.0
    for X in dirs:
        nab = gamma[:, :, 2] @ X  # (nabla_X dz)^k = Gamma^k_{i z} X^i
        Xf = F_inv @ X
        cross_f = np.array([Xf[1], -Xf[0], 0.0])  # X x E3 in the frame
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
    G = christoffel_components(p.x, p.y, params)
    g = metric_components(p.x, p.y, params)
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
