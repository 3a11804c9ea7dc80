"""Rotationally invariant CMC surfaces about the z-axis, in closed form.

A vertical graph in E(kappa, tau) solves the divergence-form equation
div(Gf / W) = 2H on the base, with W = sqrt(1 + |Gf|^2) (Daniel 2007,
Comment. Math. Helv. 82).  For a rotational profile f(r) the tau-part of Gf
is tangent to the origin circles, so the flux through the circle of model
radius r is L(r) (f'/lam) / W = 2H A(r), with lam = 4 / (4 + kappa r^2),
L = 8 pi r / (4 + kappa r^2) and A = 4 pi r^2 / (4 + kappa r^2).  Since
2HA/L = Hr for every kappa, this first integral gives the profile:

    f'(r) = 4Hr / (4 + kappa r^2) * sqrt((1 + tau^2 r^2) / (1 - H^2 r^2)),
    nu(r) = sqrt((1 - H^2 r^2) / (1 + tau^2 r^2)),

so the equator, where the graph turns vertical, sits at model radius
exactly 1/H.  In t = 1/nu the height integrand is rational,

    dh = 4H (H^2 + tau^2) t^2 dt / ((H^2 t^2 + tau^2)(C t^2 + D)),
    C = 4H^2 + kappa,  D = 4 tau^2 - kappa,

and its partial fractions integrate to atan terms: for kappa < 0 the
primitive is G(t) = (4/kappa) [tau atan(Ht/tau) - H sqrt(D/C) atan(sqrt(C/D) t)]
(Figueroa, Mercuri and Pedrosa 1999, Ann. Mat. Pura Appl. 177, for Nil;
Torralbo 2010, Differential Geom. Appl. 28).  `_height` evaluates
G(t) - G(1) in forms free of cancellation.  The profile is cut at
nu = EQUATOR_NU, just below the equator.  Over the centred disk of model
radius R < 1/H the cap int_r^R f'(s) ds solves the Dirichlet problem
(`cap_heights`, a Gauss-Legendre rule in theta with r = sin(theta) / H).
The upward orientation is used, so the profile rises from the pole; the
pole-to-equator height equals the hemisphere height of the downward cap by
the half-turn (x, y, z) -> (x, -y, -z) about the x-axis.
That isometry reverses the fibre, not the ambient orientation: it carries
the graph of f with its upward normal to the graph of -f(x, -y) with its
downward normal, at the same H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import model
from .errors import NoSphere, UnsupportedSign, atomic_write, check_H
from .model import SpaceParams

EQUATOR_NU = 1e-6
PROFILE_PANELS = 128
# s = t - 1 at the cut t* = 1 / EQUATOR_NU
_S_CUT = 1.0 / EQUATOR_NU - 1.0
# terms of the pole series in `_height`: its ratio is at most (Ht/tau)^2 <= 1/4
_SERIES_TERMS = 28
# Gauss-Legendre rule in theta of `cap_heights`
_CAP_NODES, _CAP_WEIGHTS = np.polynomial.legendre.leggauss(16)


@dataclass
class ProfileCurve:
    """Radial samples (r, f, f') of a rotational CMC graph, pole to equator."""

    H: float
    params: SpaceParams
    samples: np.ndarray        # (m, 3): r, f, f'
    nu: np.ndarray             # (m,)
    hemisphere_height: float

    def to_columnar(self, path) -> None:
        atomic_write(path, "# r f fprime nu\n" + "".join(
            "%.17g %.17g %.17g %.17g\n" % (r, f, fp, nv)
            for (r, f, fp), nv in zip(self.samples, self.nu)))


@dataclass(frozen=True)
class PlanarCircle:
    """Constant-geodesic-curvature circle in the base plane."""

    params: SpaceParams
    geodesic_curvature: float
    radius: float              # Euclidean (kappa=0) or hyperbolic geodesic radius
    closed: bool
    model_radius: float = float("nan")


def _check_sphere(H: float, params: SpaceParams):
    """Reject H and the space when no rotational sphere exists, and return
    their `model.floored_unit_scale`, in which the closed forms are
    evaluated."""
    check_H(H, "hemisphere height")
    if params.kappa > 0:
        raise UnsupportedSign("rotational spheres restricted to kappa <= 0")
    if not model.sphere_exists(H, params):
        raise NoSphere("no rotational sphere: 4H^2 + kappa = %g <= 0"
                       % (4 * H * H + params.kappa))
    return model.floored_unit_scale(H, params, "hemisphere height")


def _equator_angle(H: float, params: SpaceParams) -> float:
    """The cut theta*, where nu(sin(theta*) / H) = EQUATOR_NU.

    sin and cos of theta* have closed forms; atan2 of the pair keeps full
    precision where asin(sin theta*) would lose digits next to 1.
    """
    nu2, tau2 = EQUATOR_NU**2, params.tau**2
    d = H * H + nu2 * tau2
    return math.atan2(math.sqrt((1.0 - nu2) * H * H / d),
                      EQUATOR_NU * math.sqrt((H * H + tau2) / d))


def _dh_dtheta(theta, H: float, params: SpaceParams):
    """Height integrand 4r sqrt(1 + tau^2 r^2) / (4 + kappa r^2), r = sin(theta)/H."""
    r = np.sin(theta) / H
    return (4.0 * r * np.sqrt(1.0 + (params.tau * r) ** 2)
            / (4.0 + params.kappa * r * r))


def _atanc(z):
    """atan(z) / z, with its limit 1 at z = 0."""
    return np.divide(np.arctan(z), z, out=np.ones_like(z), where=z != 0)


def _height(s, H: float, params: SpaceParams) -> np.ndarray:
    """Height G(t) - G(1) gained from the pole to t = 1/nu = 1 + s.

    With a = H/tau and b^2 = C/D <= a^2 the integrand is
    4H (H^2 + tau^2) / (tau^2 D) * t^2 / ((1 + a^2 t^2)(1 + b^2 t^2)).  Its
    partial fractions carry a factor 1/kappa and cancel where a t and b t
    are close, so one of three forms is taken, each free of cancellation
    where it is used:
    - b^2 <= a^2 / 2: the partial fractions, each an atan difference
      written as one atan;
    - b^2 > a^2 / 2 (kappa -> 0^-, and kappa = 0): with a t = tan(phi) the
      height is a multiple of J = int sin^2 / (1 + eps sin^2) dphi,
      eps = b^2/a^2 - 1, whose atan form is rewritten so that the factor
      eps cancels exactly;
    - a t <= 1/2 (near the pole when tau > 2H): the power series in t^2,
      where both closed forms lose digits as atan(x) - x does.
    Differences in t are taken from s, which keeps samples next to the pole
    to full relative precision.
    """
    kappa, tau = params.kappa, params.tau
    t = 1.0 + s
    H2, T2 = H * H, tau * tau
    # rounded once from the exact value, as it cancels next to the critical
    # H; positive wherever `model.sphere_exists` passes
    C = float(4 * Fraction(H) ** 2 + Fraction(kappa))
    D = 4.0 * T2 - kappa
    # rho = 4 tau^2 / D; flat space (D = 0) is the kappa = 0 limit
    rho, eps = (4.0 * T2 / D, kappa * (H2 + T2) / (H2 * D)) if D else (1.0, 0.0)
    L = T2 + H2 * t
    if eps <= -0.5:
        M = D + C * t
        # D / -kappa first: 1 / -kappa overflows where kappa << H^2
        h = 4.0 * H * s * (D / -kappa / M * _atanc(math.sqrt(C * D) * s / M)
                           - T2 / -kappa / L * _atanc(H * tau * s / L))
    else:
        # J = (delta phi / (1 + beta) - delta atan(eps y) / eps) / beta with
        # beta = b/a and y = sin cos / ((1 + beta)(cos^2 + beta sin^2)) of phi;
        # dy = delta y and J are divided by tau, which keeps tau = 0 finite
        beta = math.sqrt(1.0 + eps)
        Q1, Q2 = T2 + beta * H2, T2 + beta * H2 * t * t
        dy = H * s * (T2 - beta * H2 * t) / ((1.0 + beta) * Q1 * Q2)
        den = 1.0 + eps * eps * H2 * T2 * t / ((1.0 + beta) ** 2 * Q1 * Q2)
        J = (H * s / L * _atanc(H * tau * s / L) / (1.0 + beta)
             - dy / den * _atanc(eps * tau * dy / den)) / beta
        h = rho * (H2 + T2) / H2 * J
    pole = H * t <= 0.5 * tau
    if pole.any():
        # int_1^t t^(2k+2) dt = t^(2k+3) (1 - t^-(2k+3)) / (2k + 3), and
        # e_k = sum over i + j = k of (a t)^2i (b t)^2j
        tp, log_t = t[pole], np.log1p(s[pole])
        x, y = (H * tp / tau) ** 2, C / D * tp * tp
        e, acc = np.zeros(tp.shape), np.zeros(tp.shape)
        for k in range(_SERIES_TERMS):
            e = y * e + x**k
            acc -= (-1) ** k * e * np.expm1(-(2 * k + 3) * log_t) / (2 * k + 3)
        h[pole] = 4.0 * H * (H2 + T2) / (T2 * D) * tp**3 * acc
    return h


def shoot_rotational_graph(H: float, params: SpaceParams) -> ProfileCurve:
    """The rotational profile from the pole to the equator cut.

    Samples sit at PROFILE_PANELS + 1 equispaced angles theta in [0, theta*],
    with r = sin(theta) / H.  All three columns are closed forms:
    f = `_height` at t = 1/nu, where t^2 - 1 = (1 + tau^2/H^2) tan^2(theta)
    and the last sample is the cut t* = 1/EQUATOR_NU itself;
    f' = H (dh/dtheta) / cos(theta); nu = cos(theta) / sqrt(1 + tau^2 r^2).
    """
    e, H1, p1 = _check_sphere(H, params)
    theta = np.linspace(0.0, _equator_angle(H1, p1), PROFILE_PANELS + 1)
    r = np.sin(theta) / H1
    cos = np.cos(theta)
    q = (1.0 + (p1.tau / H1) ** 2) * np.tan(theta) ** 2
    s = q / (1.0 + np.sqrt(1.0 + q))
    s[-1] = _S_CUT
    f = _height(s, H1, p1)
    fp = H1 * _dh_dtheta(theta, H1, p1) / cos
    nu = cos / np.sqrt(1.0 + (p1.tau * r) ** 2)
    # r and f are lengths, largest at the cut; f' and nu are scale-free
    model.unit_length(max(r[-1], f[-1]), e, "hemisphere height at H = %r" % (H,))
    samples = np.stack([np.ldexp(r, -e), np.ldexp(f, -e), fp], axis=1)
    return ProfileCurve(H=H, params=params, samples=samples, nu=nu,
                        hemisphere_height=float(samples[-1, 1]))


def hemisphere_height(H: float, params: SpaceParams) -> float:
    """Pole-to-equator height of the rotational H-sphere's graphable half.

    The closed form `_height` at the cut t* = 1/EQUATOR_NU.
    """
    e, H1, p1 = _check_sphere(H, params)
    return model.unit_length(float(_height(np.array([_S_CUT]), H1, p1)[0]), e,
                             "hemisphere height at H = %r" % (H,))


def cap_heights(r, R: float, H: float, params: SpaceParams) -> np.ndarray:
    """Cap heights int_r^R f'(s) ds at the model radii r <= R, for
    0 < H R < 1 and 4 + kappa R^2 > 0: one fixed Gauss-Legendre rule of the
    height integrand in theta on [asin(H r), asin(H R)] for every r at once.
    The precondition is unchecked by decision: `solver.solve_dirichlet`, the
    one caller, calls it only where `solver.has_cap` holds.
    """
    a = np.arcsin(H * np.asarray(r, dtype=float))[..., None]
    half = 0.5 * (math.asin(H * R) - a)
    theta = a + half * (1.0 + _CAP_NODES)
    return (half * _dh_dtheta(theta, H, params)) @ _CAP_WEIGHTS


def cmc_cylinder_curve(H: float, params: SpaceParams) -> PlanarCircle:
    """Base curve of the vertical cylinder with mean curvature H.

    The cylinder over a base curve gamma has constant mean curvature H
    exactly when the geodesic curvature of gamma is 2H; the curve closes up
    iff `model.sphere_exists`.  The origin circle of model radius r has
    geodesic curvature k_g = 1/r - kappa r/4 in the conformal base metric,
    so the closed circle has r = 1/(H + sqrt(H^2 + kappa/4)), 1/(2H) when
    kappa = 0; r and its geodesic radius are evaluated in the
    `model.unit_scale` of (H, kappa).
    """
    check_H(H, "cylinder curve")
    if params.kappa > 0:
        raise UnsupportedSign("cylinder curves restricted to kappa <= 0")
    kg = 2.0 * H
    if not model.sphere_exists(H, params):
        return PlanarCircle(params=params, geodesic_curvature=kg,
                            radius=float("nan"), closed=False)
    e, H1, p1 = model.unit_scale(H, SpaceParams(params.kappa, 0.0))
    r1 = 1.0 / (H1 + math.sqrt(H1 * H1 + 0.25 * p1.kappa))
    rho1 = float(model.base_distance((0.0, 0.0), (r1, 0.0), p1))
    what = "cylinder radius at H = %r" % (H,)
    return PlanarCircle(params=params, geodesic_curvature=kg,
                        radius=model.unit_length(rho1, e, what), closed=True,
                        model_radius=model.unit_length(r1, e, what))
