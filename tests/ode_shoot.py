"""ODE shooting of the rotational profile: the test-side oracle.

`ektau.rotational` takes the profile from the flux first integral in closed
form.  The shoot here integrates the graph equation itself instead, so the
closed forms are checked against an independent path.

The profile f(r) of a rotational graph satisfies, at the on-axis point
(r, 0), the radial reduction of the graph equation: the jet there is
(fx, fy, fxx, fxy, fyy) = (f', 0, f'', 0, f'/r).  Each step solves the
scalar equation H(jet) = H_target for f'', which is exact because the
second fundamental form is affine in the second derivatives.  H and dH/df''
come from the graph kernel of `ektau.graph_geometry`, the one the Dirichlet
solver uses, called on Python floats.

Shooting starts from the regularity expansion at the pole (f'(0) = 0, both
principal curvatures equal, so f''(0) = H) and integrates outward with an
adaptive Runge-Kutta scheme until the angle function crosses EQUATOR_NU,
with the upward orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from ektau import model
from ektau.errors import EktauError, NoSphere, UnsupportedSign
from ektau.graph_geometry import _forms
from ektau.model import SpaceParams, ambient_components
from ektau.rotational import EQUATOR_NU


class SingularStep(EktauError):
    """The radial ODE could not be solved for the second derivative."""


@dataclass
class OdeProfile:
    """Radial samples (r, f, f') of a shot profile and how the shoot ended."""

    samples: np.ndarray        # (m, 3): r, f, f'
    nu: np.ndarray             # (m,)
    termination: str           # "equator" | "domain_boundary" | "step_limit"
    hemisphere_height: float | None


def _radial_eval(r: float, p: float, params: SpaceParams):
    """(H at f''=0, dH/df'', nu) for the radial jet at (r, 0).

    Runs the graph kernel on Python floats (solve_ivp hands over numpy
    scalars), so no call here goes through numpy.
    """
    r, p = float(r), float(p)
    d = _forms(ambient_components(r, 0.0, params), p, 0.0, 0.0, 0.0, p / r, +1)
    return d["H"], 0.5 * d["nu"] * d["Iinv11"], d["nu"]


def _solve_fpp(r: float, p: float, H_target: float, params: SpaceParams) -> float:
    H0, dH, _ = _radial_eval(r, p, params)
    if not math.isfinite(dH) or abs(dH) < 1e-300:
        raise SingularStep("cannot solve for f'' at r=%g (dH/df''=%g)" % (r, dH))
    return (H_target - H0) / dH


def _series_quartic(H: float, params: SpaceParams, r_star: float) -> float:
    """Quartic coefficient of the pole expansion f = H r^2/2 + a4 r^4 + ...

    Fixed-point fit against the radial equation at r_star; in the flat case
    the limit is H^3/8.
    """
    a4 = 0.0
    for _ in range(8):
        p = H * r_star + 4.0 * a4 * r_star**3
        fpp = _solve_fpp(r_star, p, H, params)
        a4_new = (fpp - H) / (12.0 * r_star**2)
        if abs(a4_new - a4) < 1e-12 * (1.0 + abs(a4_new)):
            a4 = a4_new
            break
        a4 = a4_new
    return a4


def shoot(H: float, params: SpaceParams, step: float | None = None) -> OdeProfile:
    """Integrate the rotational profile from the pole to the equator.

    `step` sets the series-start radius (10*step) and the integration
    tolerance min(1e-8, max(1e-12, (H step)^2 1e-2)); the default 0.002/H
    resolves the hemisphere height to about 3e-8 relative.
    """
    if params.kappa > 0:
        raise UnsupportedSign("rotational shooting restricted to kappa <= 0")
    if not model.sphere_exists(H, params):
        raise NoSphere("no rotational sphere: 4H^2 + kappa = %g <= 0"
                       % (4 * H * H + params.kappa))
    if step is None:
        step = 0.002 / H
    if step <= 0:
        raise ValueError("step must be positive")

    r0 = 10.0 * step
    a4 = _series_quartic(H, params, r0)
    f0 = 0.5 * H * r0**2 + a4 * r0**4
    p0 = H * r0 + 4.0 * a4 * r0**3
    rtol = min(1e-8, max(1e-12, (H * step) ** 2 * 1e-2))
    atol = rtol * 1e-2 * (1.0 + 1.0 / H)
    r_dom = math.inf
    if params.kappa < 0:
        r_dom = params.domain_radius * (1.0 - 1e-9)

    # Phase 1: integrate f(r) while the graph is far from vertical.  The
    # r-parametrization turns stiff as nu -> 0, so stop at nu = 1e-2.
    def rhs_r(r, y):
        return (y[1], _solve_fpp(r, y[1], H, params))

    def steepening(r, y):
        _, _, nu = _radial_eval(r, y[1], params)
        return nu - 1e-2
    steepening.terminal = True
    steepening.direction = -1

    events1 = [steepening]
    r_max = min(8.0 / H, r_dom)
    if params.kappa < 0:
        def domain_edge_r(r, y):
            return r_dom - r
        domain_edge_r.terminal = True
        events1.append(domain_edge_r)

    sol1 = solve_ivp(rhs_r, (r0, r_max), (f0, p0), method="RK45",
                     rtol=rtol, atol=atol, events=events1)
    if not sol1.success and sol1.status != 1:
        raise SingularStep("profile integration failed: %s" % sol1.message)

    r_ser = np.linspace(0.0, r0, 6)
    f_ser = 0.5 * H * r_ser**2 + a4 * r_ser**4
    p_ser = H * r_ser + 4.0 * a4 * r_ser**3
    rr = np.concatenate([r_ser[:-1], sol1.t])
    ff = np.concatenate([f_ser[:-1], sol1.y[0]])
    pp = np.concatenate([p_ser[:-1], sol1.y[1]])

    if sol1.status == 1 and params.kappa < 0 and len(sol1.t_events[1]):
        termination, hemi = "domain_boundary", None
    elif sol1.status != 1:
        termination, hemi = "step_limit", None
    else:
        # Phase 2: approach the equator in s = log f'.  The slope grows
        # monotonically, so the vertical point cannot be overstepped, and
        # the geometric stretching keeps the step count small.
        r1 = float(sol1.t_events[0][0])
        f1, p1 = (float(v) for v in sol1.y_events[0][0])

        def rhs_s(s, y):
            p = math.exp(s)
            fpp = _solve_fpp(y[0], p, H, params)
            if fpp <= 0:
                raise SingularStep("profile lost convexity near the equator")
            return (p / fpp, p * p / fpp)

        def equator(s, y):
            _, _, nu = _radial_eval(y[0], math.exp(s), params)
            return nu - EQUATOR_NU
        equator.terminal = True
        equator.direction = -1

        events2 = [equator]
        if params.kappa < 0:
            def domain_edge_s(s, y):
                return r_dom - y[0]
            domain_edge_s.terminal = True
            events2.append(domain_edge_s)

        s1 = math.log(p1)
        sol2 = solve_ivp(rhs_s, (s1, math.log(1e9)), (r1, f1), method="RK45",
                         rtol=rtol, atol=atol, events=events2)
        if not sol2.success and sol2.status != 1:
            raise SingularStep("equator approach failed: %s" % sol2.message)
        # the first phase-2 sample repeats the handoff point
        rr = np.concatenate([rr, sol2.y[0][1:]])
        ff = np.concatenate([ff, sol2.y[1][1:]])
        pp = np.concatenate([pp, np.exp(sol2.t[1:])])
        if sol2.status == 1 and len(sol2.t_events[0]):
            # the terminal event point is the last appended sample
            termination = "equator"
            hemi = float(sol2.y_events[0][0][1])
        elif sol2.status == 1:
            termination, hemi = "domain_boundary", None
        else:
            termination, hemi = "step_limit", None

    nu = np.empty_like(rr)
    nu[0] = 1.0
    for i in range(1, len(rr)):
        _, _, nu[i] = _radial_eval(rr[i], pp[i], params)

    return OdeProfile(samples=np.stack([rr, ff, pp], axis=1), nu=nu,
                      termination=termination, hemisphere_height=hemi)
