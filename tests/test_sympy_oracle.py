"""Symbolic oracle for the ambient model.

sympy derives the metric, its inverse and first partials, the Christoffel
symbols and the Ricci tensor from the README line element

    ds^2 = lam^2 (dx^2 + dy^2) + (dz + tau lam (y dx - x dy))^2,
    lam  = 4 / (4 + kappa (x^2 + y^2)),

with kappa and tau symbolic, and evaluates them in 40-digit arithmetic.
Nothing here reads the package's formulas, so `ambient_components` and
everything filled from it are checked against an independent derivation.
"""

import mpmath
import numpy as np
import pytest
import sympy as sp

from ektau.model import (Ambient, Point3, SpaceParams, ambient_components,
                         christoffel_components, curvature_report, metric_at)

SPACES = {
    "nil": SpaceParams(0.0, 0.5),
    "psl": SpaceParams(-1.0, 0.5),
    "k-4": SpaceParams(-4.0, 0.5),
    "h2r": SpaceParams(-1.0, 0.0),
    "flat": SpaceParams(0.0, 0.0),
}
TOL = 1e-13
DIGITS = 40

X = sp.symbols("x y z", real=True)
KAPPA, TAU = sp.symbols("kappa tau", real=True)


def _derive():
    """g, g^{-1}, dg[i][j][k] = d_k g_ij, Gamma^k_ij and R_ij as sympy."""
    x, y, _ = X
    dx, dy, dz = sp.symbols("dx dy dz")
    lam = 4 / (4 + KAPPA * (x**2 + y**2))
    ds2 = sp.expand(lam**2 * (dx**2 + dy**2)
                    + (dz + TAU * lam * (y * dx - x * dy))**2)
    d = (dx, dy, dz)
    g = sp.Matrix(3, 3, lambda i, j: sp.diff(ds2, d[i], d[j]) / 2)
    g_inv = g.inv()
    dg = [[[sp.diff(g[i, j], X[k]) for k in range(3)] for j in range(3)]
          for i in range(3)]
    gamma = [[[sum(g_inv[k, l] * (dg[j][l][i] + dg[i][l][j] - dg[i][j][l])
                   for l in range(3)) / 2
               for j in range(3)] for i in range(3)] for k in range(3)]
    # R_ij = d_k G^k_ij - d_j G^k_ik + G^k_kl G^l_ij - G^k_jl G^l_ik
    ricci = sp.Matrix(3, 3, lambda i, j: sum(
        sp.diff(gamma[k][i][j], X[k]) - sp.diff(gamma[k][i][k], X[j])
        + sum(gamma[k][k][l] * gamma[l][i][j] - gamma[k][j][l] * gamma[l][i][k]
              for l in range(3))
        for k in range(3)))
    return lam, g, g_inv, dg, gamma, ricci


def make_oracle():
    """evaluate(x, y, params) -> dict of float arrays: lam's jet, g, g_inv,
    dg, gamma (indexed [k, i, j]) and ricci."""
    lam, g, g_inv, dg, gamma, ricci = _derive()
    names = {
        "lam": [lam, sp.diff(lam, X[0]), sp.diff(lam, X[1])],
        "g": list(g), "g_inv": list(g_inv),
        "dg": [dg[i][j][k] for i in range(3) for j in range(3)
               for k in range(3)],
        "gamma": [gamma[k][i][j] for k in range(3) for i in range(3)
                  for j in range(3)],
        "ricci": list(ricci),
    }
    args = (X[0], X[1], KAPPA, TAU)
    fns = {name: sp.lambdify(args, exprs, modules="mpmath", cse=True)
           for name, exprs in names.items()}
    shapes = {"lam": (3,), "g": (3, 3), "g_inv": (3, 3), "dg": (3, 3, 3),
              "gamma": (3, 3, 3), "ricci": (3, 3)}

    def evaluate(x, y, params):
        with mpmath.workdps(DIGITS):
            vals = (mpmath.mpf(x), mpmath.mpf(y), mpmath.mpf(params.kappa),
                    mpmath.mpf(params.tau))
            return {name: np.array([float(v) for v in fn(*vals)]).reshape(
                shapes[name]) for name, fn in fns.items()}
    return evaluate


@pytest.fixture(scope="module")
def oracle():
    return make_oracle()


def _points(params, count=6, seed=0):
    rng = np.random.RandomState(seed)
    lim = min(0.8, 0.45 * params.domain_radius)
    return rng.uniform(-lim, lim, (count, 2))


def _rel(mine, ref):
    """Largest deviation relative to the largest reference entry, or the
    largest absolute deviation where the reference array vanishes."""
    mine, ref = np.asarray(mine, dtype=float), np.asarray(ref, dtype=float)
    scale = np.abs(ref).max()
    err = np.abs(mine - ref).max()
    return err / scale if scale > 0 else err


def _ambient_reference(ref):
    """The 22 `Ambient` fields read off the symbolic arrays."""
    fields = dict(zip(("lam", "lam_x", "lam_y"), ref["lam"]))
    for ij in ("xx", "xy", "xz", "yy", "yz"):
        i, j = "xyz".index(ij[0]), "xyz".index(ij[1])
        fields["g_" + ij] = ref["g"][i, j]
        fields["dx_" + ij] = ref["dg"][i, j, 0]
        fields["dy_" + ij] = ref["dg"][i, j, 1]
    for ij in ("xx", "xz", "yz", "zz"):
        fields["gi_" + ij] = ref["g_inv"]["xyz".index(ij[0]),
                                          "xyz".index(ij[1])]
    return fields


@pytest.mark.parametrize("space", sorted(SPACES))
def test_ambient_model_against_sympy(oracle, space):
    params = SPACES[space]
    pts = _points(params)
    amb = ambient_components(pts[:, 0], pts[:, 1], params)
    gamma = christoffel_components(pts[:, 0], pts[:, 1], params)
    for n, (x, y) in enumerate(pts):
        ref = oracle(x, y, params)
        want = _ambient_reference(ref)
        # field by field; a field that vanishes must vanish exactly
        for name in Ambient._fields:
            exact = want[name]
            assert abs(getattr(amb, name)[n] - exact) <= TOL * abs(exact), name
        m = metric_at(Point3(x, y, 0.7), params)
        assert _rel(m.g, ref["g"]) <= TOL
        assert _rel(m.g_inv, ref["g_inv"]) <= TOL
        assert _rel(m.dg, ref["dg"]) <= TOL
        assert _rel(gamma[n], ref["gamma"]) <= TOL
        assert _rel(curvature_report(Point3(x, y, -1.3), params).ricci,
                    ref["ricci"]) <= TOL
