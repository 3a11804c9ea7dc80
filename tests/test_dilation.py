"""Dilations of E(kappa, tau) and the one scale rule of the closed forms.

x = c x' carries E(kappa, tau) to c E(kappa c^2, tau c): H -> c H, lengths
-> lengths / c, slopes and angle functions unchanged, Jacobi eigenvalues
-> c^2 lambda.  For c = 2^k every product is exact, so the closed forms,
the cylinders' among them, are equivariant to the bit.
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from ektau import model, rotational
from ektau.errors import ConfigInvalid, EktauError
from ektau.harness import rosenberg_bound
from ektau.model import SpaceParams
from ektau.solver import disk_grid, rectangle_grid, solve_dirichlet
from ektau.stability import (angle_jacobi_residual, assemble_jacobi,
                             cylinder_stability, smallest_eigenvalue)


def dilate(H, params, k):
    """(H 2^k, E(kappa 4^k, tau 2^k)): the space dilated by c = 2^k."""
    return math.ldexp(H, k), SpaceParams(math.ldexp(params.kappa, 2 * k),
                                         math.ldexp(params.tau, k))


def log_uniform(lo, hi):
    """Floats m 2^j with m uniform in [1, 2) and j uniform in [lo, hi]."""
    return st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True),
                     st.integers(lo, hi))


# spaces and H of every shape, off the normal floats' edges so that each
# dilation below is exact; kappa = 0 and tau = 0 included
KAPPA = st.just(0.0) | log_uniform(-40, 10).map(lambda v: -v)
TAU = st.just(0.0) | log_uniform(-40, 10)
H_ANY = log_uniform(-40, 40)
K = st.integers(-200, 200)


def sphere_case(kappa, tau, H):
    """The space and an H that has a rotational sphere in it."""
    return max(H, math.sqrt(-kappa) / 2.0 * (1.0 + 2.0 ** -20)), \
        SpaceParams(kappa, tau)


@settings(max_examples=150, deadline=None)
@given(KAPPA, TAU, H_ANY, K)
def test_hemisphere_height_is_dilation_equivariant(kappa, tau, H, k):
    H, params = sphere_case(kappa, tau, H)
    Hc, pc = dilate(H, params, k)
    assert rotational.hemisphere_height(Hc, pc) == math.ldexp(
        rotational.hemisphere_height(H, params), -k)


@settings(max_examples=60, deadline=None)
@given(KAPPA, TAU, H_ANY, K)
def test_profile_is_dilation_equivariant(kappa, tau, H, k):
    # r and f scale by 1/c; f' and nu do not move
    H, params = sphere_case(kappa, tau, H)
    prof = rotational.shoot_rotational_graph(H, params)
    scaled = rotational.shoot_rotational_graph(*dilate(H, params, k))
    assert np.array_equal(scaled.samples[:, :2],
                          np.ldexp(prof.samples[:, :2], -k))
    assert np.array_equal(scaled.samples[:, 2], prof.samples[:, 2])
    assert np.array_equal(scaled.nu, prof.nu)
    assert scaled.hemisphere_height == math.ldexp(prof.hemisphere_height, -k)


@settings(max_examples=150, deadline=None)
@given(KAPPA | log_uniform(-40, 10), TAU, H_ANY, K)
def test_rosenberg_bound_is_dilation_equivariant(kappa, tau, H, k):
    assume(kappa <= 0 or abs(kappa - 4 * tau * tau) > 1e-6 * kappa)
    params = SpaceParams(kappa, tau)
    bound = rosenberg_bound(H, params)
    scaled = rosenberg_bound(*dilate(H, params, k))
    assert scaled == (None if bound is None else math.ldexp(bound, -k))


@settings(max_examples=30, deadline=None)
@given(KAPPA, TAU, H_ANY, K)
def test_cylinder_stability_is_dilation_equivariant(kappa, tau, H, k):
    # lambda -> c^2 lambda to the bit: the margin is evaluated in the unit
    # scale, which the dilation does not move
    params = SpaceParams(kappa, tau)
    cs = cylinder_stability(H, params)
    cs_c = cylinder_stability(*dilate(H, params, k))
    assert math.ldexp(cs_c.lambda_min_spectral, -2 * k) == \
        cs.lambda_min_spectral
    assert math.ldexp(cs_c.margin, -2 * k) == cs.margin
    assert math.ldexp(cs_c.tube_length, k) == cs.tube_length
    assert (cs_c.stable, cs_c.spectral_stable, cs_c.closed) == \
        (cs.stable, cs.spectral_stable, cs.closed)


# -- the scale rule over everything SpaceParams and check_H accept ---------

# sign, then m 2^j over every finite float; tau stops where 4 tau^2 overflows
FUZZ_KAPPA = st.just(0.0) | st.builds(lambda s, v: s * v,
                                      st.sampled_from([-1.0, 1.0]),
                                      log_uniform(-1074, 1023))
FUZZ_TAU = st.just(0.0) | log_uniform(-1074, 510)
FUZZ_H = log_uniform(-1074, 1023)


def finite_positive_or_ektau_error(call):
    try:
        value = call()
    except EktauError:
        return None
    assert value > 0 and math.isfinite(value), value
    return value


@settings(max_examples=400, deadline=None)
@given(FUZZ_KAPPA, FUZZ_TAU, FUZZ_H)
def test_scale_rule_answers_or_raises_ektau_error(kappa, tau, H):
    try:
        params = SpaceParams(kappa, tau)
    except ConfigInvalid:
        return
    h = finite_positive_or_ektau_error(
        lambda: rotational.hemisphere_height(H, params))
    try:
        prof = rotational.shoot_rotational_graph(H, params)
    except EktauError:
        pass
    else:
        # the profile's radius at the cut may leave the float range alone
        assert prof.hemisphere_height == h
        assert np.isfinite(prof.samples).all() and np.isfinite(prof.nu).all()
    try:
        bound = rosenberg_bound(H, params)
    except EktauError:
        return
    # 3H^2 + S, exactly: "no bound" only where it is <= 0 up to rounding
    c = (3 * Fraction(H) ** 2 + 2 * Fraction(params.kappa)
         - 2 * Fraction(params.tau) ** 2)
    if bound is None:
        scale = 3 * Fraction(H) ** 2 + 2 * abs(Fraction(params.kappa)) \
            + 2 * Fraction(params.tau) ** 2
        assert c <= 4 * Fraction(sys.float_info.epsilon) * scale
    else:
        assert c > 0 and bound > 0 and math.isfinite(bound)


@settings(max_examples=60, deadline=None)
@given(FUZZ_KAPPA, FUZZ_TAU, FUZZ_H)
# its unit scale has kappa = -2^-1022, whose squared model radius overflows
@example(kappa=-1.0, tau=0.0, H=2.0 ** 511)
# near the floor: the margin -5.76e-302 is unstable on both flags
@example(kappa=0.0, tau=0.5, H=1.2e-151)
def test_cylinder_answers_or_raises_ektau_error(kappa, tau, H):
    # no numpy warning (warnings are errors): a finite answer whose flags
    # agree with its margin, or an EktauError
    try:
        cs = cylinder_stability(H, SpaceParams(kappa, tau))
    except EktauError:
        return
    assert math.isfinite(cs.margin) and 0 < cs.tube_length < math.inf
    assert cs.lambda_min_spectral == cs.margin
    assert cs.spectral_stable == cs.stable == (cs.margin >= 0)


# -- the model disk's helpers where its squared radius overflows -----------

# -2.2e-308 < kappa < 0 puts (2 / sqrt(-kappa))^2 past the float range
@pytest.mark.parametrize("call, expect", [
    (lambda: SpaceParams(-5e-324, 0.0).contains(0.0, 0.0), True),
    (lambda: cylinder_stability(3.0, SpaceParams(-1e-308, 0.5)).margin, -36.0),
    (lambda: cylinder_stability(8192.0, SpaceParams(-1e-300, 0.5)).margin,
     -4 * 8192.0 ** 2),
    (lambda: solve_dirichlet(disk_grid(1.0, 16, SpaceParams(-1e-308, 0.5)),
                             0.0, 0.8, SpaceParams(-1e-308, 0.5)).newton_iterations,
     3)],
    ids=["contains", "cylinder", "cylinder_large_H", "disk_solve"])
def test_tiny_negative_kappa_answers(call, expect):
    assert call() == expect


def fuzz_point(params):
    """A base point of any two floats, or one within 1.5 model radii (unit
    lengths when kappa >= 0)."""
    R = params.domain_radius if params.kappa < 0 else 1.0
    near = st.floats(-1.5, 1.5).map(lambda f: f * R)
    return st.tuples(st.floats(), st.floats()) | st.tuples(near, near)


@settings(max_examples=300, deadline=None)
@given(FUZZ_KAPPA, FUZZ_TAU, st.data())
def test_domain_helpers_answer_or_raise_ektau_error(kappa, tau, data):
    # no numpy warning (warnings are errors): contains answers a bool,
    # require_inside raises exactly where it is False, and base_distance
    # is finite and >= 0 or an EktauError
    try:
        params = SpaceParams(kappa, tau)
    except ConfigInvalid:
        return
    p1, p2 = data.draw(fuzz_point(params)), data.draw(fuzz_point(params))
    inside = params.contains(*p1)
    assert type(inside) is bool
    try:
        params.require_inside(*p1)
    except EktauError:
        assert not inside
    else:
        assert inside
    try:
        dist = model.base_distance(p1, p2, params)
    except EktauError:
        return
    assert inside and params.contains(*p2)
    assert math.isfinite(dist) and dist >= 0


@st.composite
def fuzz_space_and_point(draw):
    """A space over FUZZ_KAPPA and FUZZ_TAU and a `fuzz_point` in it."""
    try:
        params = SpaceParams(draw(FUZZ_KAPPA), draw(FUZZ_TAU))
    except ConfigInvalid:
        reject()
    return params, draw(fuzz_point(params))


@settings(max_examples=300, deadline=None)
@given(fuzz_space_and_point())
# (4 tau^2 - kappa) g_z g_z^T overflows, so the Ricci entries were inf
@example((SpaceParams(0.0, 5.78960446186581e76), (0.0, 2.0)))
# the Killing form diff.g.diff rounded below 0, and its sqrt was NaN
@example((SpaceParams(2.0 ** 23, 2.0 ** 25), (1.0, 3.0)))
def test_curvature_report_answers_or_raises_ektau_error(case):
    # no numpy warning (warnings are errors): every field finite, the
    # Killing residual >= 0, or an EktauError
    params, point = case
    try:
        rep = model.curvature_report(model.Point3(*point), params)
    except EktauError:
        return
    for field in (rep.christoffel, rep.ricci, rep.ricci_diag_frame):
        assert np.isfinite(field).all()
    assert math.isfinite(rep.scalar)
    assert 0.0 <= rep.killing_residual < math.inf


@settings(max_examples=200, deadline=None)
@given(fuzz_space_and_point())
# the metric's tau^2 y^2 overflows; the frame needs only tau y and is finite
@example((SpaceParams(0.0, 2.0 ** 207), (0.0, 6.518515124270356e91)))
def test_point_geometry_answers_or_raises_ektau_error(case):
    # no numpy warning (warnings are errors): every entry finite, or an
    # EktauError
    params, point = case
    p = model.Point3(*point)
    for call in (lambda: model.metric_at(p, params),
                 lambda: model.christoffel(p, params),
                 lambda: model.orthonormal_frame(p, params)):
        try:
            out = call()
        except EktauError:
            continue
        if isinstance(out, model.MetricAtPoint):
            out = (out.g, out.g_inv, out.dg)
        elif isinstance(out, tuple):
            out = [e.components for e in out]
        else:
            out = [out]
        assert all(np.isfinite(a).all() for a in out)


@st.composite
def fuzz_grid(draw):
    """A disk or rectangle lattice of 12 nodes per side over FUZZ_KAPPA and
    FUZZ_TAU, spanning up to 1.5 model radii (unit lengths when kappa >= 0)."""
    try:
        params = SpaceParams(draw(FUZZ_KAPPA), draw(FUZZ_TAU))
    except ConfigInvalid:
        reject()
    R = params.domain_radius if params.kappa < 0 else 1.0
    size = draw(st.floats(0.01, 1.5)) * R
    center = draw(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)))
    center = (center[0] * R, center[1] * R)
    if draw(st.booleans()):
        return lambda: disk_grid(size, 12, params, center=center)
    return lambda: rectangle_grid((size, size), 12, params, center=center)


@settings(max_examples=200, deadline=None)
@given(fuzz_grid())
# the square of the conformal factor underflows to 0 and 1 / lam^2 was inf
@example(lambda: disk_grid(1.0, 12, SpaceParams(2.0 ** 1000, 0.0)))
@example(lambda: rectangle_grid((3.0, 3.0), 12, SpaceParams(2.0 ** 1000, 0.0)))
# the squares of the node offsets and of the radius 2^512 overflowed
@example(lambda: disk_grid(1.3407807929942597e154, 12,
                           SpaceParams(-2.2250738585072014e-308, 0.0)))
def test_grid_ambient_answers_or_raises_ektau_error(build):
    # no numpy warning (warnings are errors): every ambient entry at the
    # interior nodes finite, or an EktauError
    try:
        amb = build().ambient()
    except EktauError:
        return
    assert all(np.isfinite(a).all() for a in amb)


CAP_OVERFLOW_TAU = SpaceParams(-1.6264666181174767e-307, 467.82)
CAP_OVERFLOW_KAPPA = SpaceParams(1.7348556788701446e308, 0.0)


@settings(max_examples=200, deadline=None)
@given(fuzz_grid(), FUZZ_H, st.sampled_from([-1, 1]))
# the cap start squared tau r and multiplied kappa r r past the float range
@example(lambda: disk_grid(0.9566 * CAP_OVERFLOW_TAU.domain_radius, 8,
                           CAP_OVERFLOW_TAU), 1.6e-307, 1)
@example(lambda: disk_grid(1.39, 14, CAP_OVERFLOW_KAPPA), 4.96e-227, -1)
def test_grid_solve_answers_or_raises_ektau_error(build, H, orientation):
    # no numpy warning (warnings are errors): finite heights and residual,
    # or an EktauError
    try:
        grid = build()
        sol = solve_dirichlet(grid, 0.0, H, grid.params, orientation)
    except EktauError:
        return
    assert np.isfinite(sol.values[grid.interior]).all()
    assert math.isfinite(sol.residual_max)


@settings(max_examples=120, deadline=None)
@given(fuzz_grid(), FUZZ_H, st.sampled_from([-1, 1]))
def test_stability_check_answers_or_raises_ektau_error(build, H, orientation):
    # no numpy warning (warnings are errors): a solved graph's Jacobi
    # spectrum and angle residual finite, or an EktauError
    try:
        grid = build()
        sol = solve_dirichlet(grid, 0.0, H, grid.params, orientation)
        spec = smallest_eigenvalue(assemble_jacobi(sol))
        angle = angle_jacobi_residual(sol)
    except EktauError:
        return
    assert math.isfinite(spec.lambda_min) and math.isfinite(spec.eigvec_residual)
    assert math.isfinite(angle)


def test_margin_scales_with_the_model_disk():
    # kappa = -2^64: the model radius 2^-31 is below DOMAIN_MARGIN, so only
    # a margin relative to the radius keeps the rim out, where base_distance
    # would divide 0 by 0
    params = SpaceParams(-2.0 ** 64, 0.0)
    R = params.domain_radius
    assert params.contains(0.0, 0.999 * R)
    assert not params.contains(0.0, R)
    assert model.base_distance((0.0, 0.0), (0.0, 0.5 * R), params) > 0
