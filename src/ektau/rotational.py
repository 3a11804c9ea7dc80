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
exactly 1/H.  With r = sin(theta) / H the height is the quadrature

    h = int_0^theta* 4r sqrt(1 + tau^2 r^2) / (4 + kappa r^2) dtheta

of a smooth integrand; over the centred disk of model radius R < 1/H the
cap int_r^R f'(s) ds solves the Dirichlet problem (`cap_heights`).  The
profile is cut at nu = EQUATOR_NU, just below the equator.  The upward
orientation is used, so the profile rises from the pole; the
pole-to-equator height equals the hemisphere height of the downward cap by
the half-turn (x, y, z) -> (x, -y, -z) about the x-axis.
That isometry reverses the fibre, not the ambient orientation: it carries
the graph of f with its upward normal to the graph of -f(x, -y) with its
downward normal, at the same H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import model
from .errors import NoSphere, UnsupportedSign
from .model import SpaceParams

EQUATOR_NU = 1e-6
PROFILE_PANELS = 128
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
        with open(path, "w") as fh:
            fh.write("# r f fprime nu\n")
            for (r, f, fp), nv in zip(self.samples, self.nu):
                fh.write("%.17g %.17g %.17g %.17g\n" % (r, f, fp, nv))


@dataclass(frozen=True)
class PlanarCircle:
    """Constant-geodesic-curvature circle in the base plane."""

    params: SpaceParams
    geodesic_curvature: float
    radius: float              # Euclidean (kappa=0) or hyperbolic geodesic radius
    closed: bool
    model_radius: float = float("nan")


def _equator_angle(H: float, params: SpaceParams) -> float:
    """The cut theta*, where nu(sin(theta*) / H) = EQUATOR_NU.

    Rejects the input when no sphere exists.  sin and cos of theta* have
    closed forms; atan2 of the pair keeps full precision where
    asin(sin theta*) would lose digits next to 1.
    """
    if not (math.isfinite(H) and H > 0):
        raise ValueError("hemisphere height needs a finite H > 0, got %r" % H)
    if params.kappa > 0:
        raise UnsupportedSign("rotational spheres restricted to kappa <= 0")
    if not model.sphere_exists(H, params):
        raise NoSphere("no rotational sphere: 4H^2 + kappa = %g <= 0"
                       % (4 * H * H + params.kappa))
    nu2, tau2 = EQUATOR_NU**2, params.tau**2
    d = H * H + nu2 * tau2
    return math.atan2(math.sqrt((1.0 - nu2) * H * H / d),
                      EQUATOR_NU * math.sqrt((H * H + tau2) / d))


def _dh_dtheta(theta, H: float, params: SpaceParams):
    """Height integrand 4r sqrt(1 + tau^2 r^2) / (4 + kappa r^2), r = sin(theta)/H."""
    r = np.sin(theta) / H
    return (4.0 * r * np.sqrt(1.0 + (params.tau * r) ** 2)
            / (4.0 + params.kappa * r * r))


def _rise(a: float, b: float, H: float, params: SpaceParams) -> float:
    """Height gained between the angles a and b, by adaptive quadrature."""
    return quad(_dh_dtheta, a, b, args=(H, params), epsabs=0.0, epsrel=1e-13,
                limit=200)[0]


def shoot_rotational_graph(H: float, params: SpaceParams) -> ProfileCurve:
    """The rotational profile from the pole to the equator cut.

    Samples sit at PROFILE_PANELS + 1 equispaced angles theta in [0, theta*];
    f accumulates the height quadrature panel by panel, and
    f' = H (dh/dtheta) / cos(theta), nu = cos(theta) / sqrt(1 + tau^2 r^2)
    are closed forms.
    """
    theta = np.linspace(0.0, _equator_angle(H, params), PROFILE_PANELS + 1)
    f = np.concatenate([[0.0], np.cumsum(
        [_rise(a, b, H, params) for a, b in zip(theta[:-1], theta[1:])])])
    r = np.sin(theta) / H
    cos = np.cos(theta)
    fp = H * _dh_dtheta(theta, H, params) / cos
    nu = cos / np.sqrt(1.0 + (params.tau * r) ** 2)
    return ProfileCurve(H=H, params=params, samples=np.stack([r, f, fp], axis=1),
                        nu=nu, hemisphere_height=float(f[-1]))


def hemisphere_height(H: float, params: SpaceParams) -> float:
    """Pole-to-equator height of the rotational H-sphere's graphable half.

    One adaptive quadrature of the height integrand up to the cut theta*.
    """
    return _rise(0.0, _equator_angle(H, params), H, params)


def cap_heights(r, R: float, H: float, params: SpaceParams) -> np.ndarray:
    """Cap heights int_r^R f'(s) ds at the model radii r <= R, for
    0 < H R < 1 and 4 + kappa R^2 > 0: one fixed Gauss-Legendre rule of the
    height integrand in theta on [asin(H r), asin(H R)] for every r at once.
    """
    a = np.arcsin(H * np.asarray(r, dtype=float))[..., None]
    half = 0.5 * (math.asin(H * R) - a)
    theta = a + half * (1.0 + _CAP_NODES)
    return (half * _dh_dtheta(theta, H, params)) @ _CAP_WEIGHTS


def cmc_cylinder_curve(H: float, params: SpaceParams) -> PlanarCircle:
    """Base curve of the vertical cylinder with mean curvature H.

    The cylinder over a base curve gamma has constant mean curvature H
    exactly when the geodesic curvature of gamma is 2H; the curve closes up
    iff (2H)^2 + kappa > 0.  The origin circle of model radius r has
    geodesic curvature k_g = 1/r - kappa r/4 in the conformal base metric,
    so the closed circle has r = 1/(H + sqrt(H^2 + kappa/4)), which is
    1/(2H) when kappa = 0.
    """
    if H <= 0:
        raise ValueError("cylinder curve needs H > 0")
    if params.kappa > 0:
        raise UnsupportedSign("cylinder curves restricted to kappa <= 0")
    kg = 2.0 * H
    if kg * kg + params.kappa <= 0:
        return PlanarCircle(params=params, geodesic_curvature=kg,
                            radius=float("nan"), closed=False)
    r_model = 1.0 / (H + math.sqrt(H * H + 0.25 * params.kappa))
    rho = model.base_distance((0.0, 0.0), (r_model, 0.0), params)
    return PlanarCircle(params=params, geodesic_curvature=kg, radius=float(rho),
                        closed=True, model_radius=r_model)
