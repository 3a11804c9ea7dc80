"""Pointwise extrinsic geometry of vertical graphs z = f(x, y).

A graph is parametrized by (x, y) -> (x, y, f(x, y)); its coordinate tangent
fields are T1 = (1, 0, fx) and T2 = (0, 1, fy).  Everything downstream (the
Dirichlet solver, the rotational shooter, the stability assembly) evaluates
mean curvature through the vectorized `shape_arrays` path below, so there is
a single implementation of the graph operator for all (kappa, tau).

Since the ambient metric does not depend on z, none of the quantities here
depend on the value f itself, only on the point (x, y) and the derivatives
of f.  Orientation +1 selects the unit normal with positive angle function
nu = <normal, dz>, orientation -1 (the default, matching graphs lying above
their boundary section) the one with nu < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import DegenerateMetric
from .model import Point3, SpaceParams, TangentVector

_DET_FLOOR = 1e-14


@dataclass(frozen=True)
class Jet2:
    """Second-order data of a graph function at one base point."""

    x: float
    y: float
    f: float
    fx: float
    fy: float
    fxx: float
    fxy: float
    fyy: float


@dataclass(frozen=True)
class ShapeData:
    """Fundamental forms and derived scalars of a graph at one point."""

    first_form: np.ndarray
    second_form: np.ndarray
    normal: TangentVector
    nu: float
    H: float
    sigma_sq: float


class AmbientCache:
    """Metric, inverse and Christoffels frozen at a set of base points.

    The Dirichlet solver evaluates the graph operator many times at the
    same lattice nodes; this cache factors the (x, y)-only ambient data out
    of the per-iteration work.
    """

    def __init__(self, x, y, params: SpaceParams):
        self.params = params
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        params.require_inside(self.x, self.y)
        self.g = model.metric_components(self.x, self.y, params)
        self.g_inv = np.linalg.inv(self.g)
        self.gamma = model.christoffel_components(self.x, self.y, params)


def _forms(amb: AmbientCache, fx, fy, fxx, fxy, fyy, orientation: int):
    """The kernel behind `shape_arrays`, keeping the intermediates that the
    exact first-order partials reuse (keys with a leading underscore)."""
    if orientation not in (-1, 1):
        raise ValueError("orientation must be +1 or -1")
    fx = np.asarray(fx, dtype=float)
    fy = np.asarray(fy, dtype=float)
    fxx = np.asarray(fxx, dtype=float)
    fxy = np.asarray(fxy, dtype=float)
    fyy = np.asarray(fyy, dtype=float)
    g, g_inv, gamma = amb.g, amb.g_inv, amb.gamma

    shape = np.broadcast(fx, amb.x).shape
    T1 = np.zeros(shape + (3,))
    T1[..., 0] = 1.0
    T1[..., 2] = fx
    T2 = np.zeros(shape + (3,))
    T2[..., 1] = 1.0
    T2[..., 2] = fy

    gT1 = np.einsum("...ij,...j->...i", g, T1)
    gT2 = np.einsum("...ij,...j->...i", g, T2)
    I11 = np.einsum("...i,...i->...", T1, gT1)
    I12 = np.einsum("...i,...i->...", T1, gT2)
    I22 = np.einsum("...i,...i->...", T2, gT2)
    det_I = I11 * I22 - I12 * I12
    if np.any(~np.isfinite(det_I)) or np.any(det_I < _DET_FLOOR):
        raise DegenerateMetric("first fundamental form is numerically degenerate")

    # conormal w annihilates T1, T2; nu = w_z / |w|_{g^{-1}}
    w = np.zeros(shape + (3,))
    w[..., 0] = -fx
    w[..., 1] = -fy
    w[..., 2] = 1.0
    w *= float(orientation)
    g_inv_w = np.einsum("...ij,...j->...i", g_inv, w)
    nrm2 = np.einsum("...i,...i->...", w, g_inv_w)
    nrm = np.sqrt(nrm2)
    nu = float(orientation) / nrm
    normal = g_inv_w / nrm[..., None]

    # covariant derivatives of the tangent fields along the graph:
    # acc_ab = Gamma(T_a, T_b) + f_ab e_z and II_ab = <nabla_a T_b, N> = acc_ab.w / |w|
    def second(f_ab, a, b):
        acc = np.einsum("...kij,...i,...j->...k", gamma, a, b)
        acc[..., 2] += f_ab
        return np.einsum("...k,...k->...", acc, w) / nrm, acc

    II11, acc11 = second(fxx, T1, T1)
    II12, acc12 = second(fxy, T1, T2)
    II22, acc22 = second(fyy, T2, T2)

    inv_det = 1.0 / det_I
    Iinv11 = I22 * inv_det
    Iinv12 = -I12 * inv_det
    Iinv22 = I11 * inv_det
    # shape operator S = I^{-1} II
    S11 = Iinv11 * II11 + Iinv12 * II12
    S12 = Iinv11 * II12 + Iinv12 * II22
    S21 = Iinv12 * II11 + Iinv22 * II12
    S22 = Iinv12 * II12 + Iinv22 * II22
    H = 0.5 * (S11 + S22)
    sigma_sq = S11 * S11 + S22 * S22 + 2.0 * S12 * S21

    return {
        "I11": I11, "I12": I12, "I22": I22, "det_I": det_I,
        "II11": II11, "II12": II12, "II22": II22,
        "Iinv11": Iinv11, "Iinv12": Iinv12, "Iinv22": Iinv22,
        "normal": normal, "nu": nu, "H": H, "sigma_sq": sigma_sq,
        "_T1": T1, "_T2": T2, "_gT1": gT1, "_gT2": gT2, "_w": w,
        "_g_inv_w": g_inv_w, "_nrm": nrm, "_inv_det": inv_det,
        "_acc11": acc11, "_acc12": acc12, "_acc22": acc22,
    }


def shape_arrays(amb: AmbientCache, fx, fy, fxx, fxy, fyy, orientation: int = -1):
    """Vectorized fundamental forms over the cached points.

    Returns a dict with first-form components I11, I12, I22, det_I, the
    second-form components II11, II12, II22, the normal components (n, 3),
    and nu, H, sigma_sq arrays.
    """
    d = _forms(amb, fx, fy, fxx, fxy, fyy, orientation)
    return {k: v for k, v in d.items() if not k.startswith("_")}


def mean_curvature_arrays(amb: AmbientCache, fx, fy, fxx, fxy, fyy,
                          orientation: int = -1):
    """(H, nu) over the cached points; the solver's residual evaluation."""
    data = _forms(amb, fx, fy, fxx, fxy, fyy, orientation)
    return data["H"], data["nu"]


def mean_curvature_sensitivities(amb: AmbientCache, fx, fy, fxx, fxy, fyy,
                                 orientation: int = -1):
    """H, nu and the exact partials of H with respect to the jet entries.

    The second fundamental form is affine in the second derivatives with
    dII_ab/df_ab = nu, which gives dH/dfxx, dH/dfxy, dH/dfyy.  The partials
    in fx and fy differentiate the kernel's own quantities by the chain
    rule in one pass: with H = (I22 II11 - 2 I12 II12 + I11 II22) / (2 det I),
    dT1/dfx = dT2/dfy = e_z and dw/dfx = -orientation e_x,
    dw/dfy = -orientation e_y move I_ab, det I, the conormal norm |w| and
    Gamma(T_a, T_b).w.
    """
    d = _forms(amb, fx, fy, fxx, fxy, fyy, orientation)
    s = float(orientation)
    nu, H, inv_det, nrm = d["nu"], d["H"], d["_inv_det"], d["_nrm"]
    I11, I12, I22 = d["I11"], d["I12"], d["I22"]
    II11, II12, II22 = d["II11"], d["II12"], d["II22"]
    w, g_inv_w = d["_w"], d["_g_inv_w"]
    # Gamma(e_z, T_a).w = Gamma(T_a, e_z).w (Gamma is symmetric): what
    # Gamma(T_a, T_b).w gains per unit of e_z added to T_b
    gamma_z = amb.gamma[..., :, 2, :]
    Gz1 = np.einsum("...kj,...j,...k->...", gamma_z, d["_T1"], w)
    Gz2 = np.einsum("...kj,...j,...k->...", gamma_z, d["_T2"], w)
    gT1z, gT2z = d["_gT1"][..., 2], d["_gT2"][..., 2]
    dH = {
        "fxx": 0.5 * nu * d["Iinv11"],
        "fxy": nu * d["Iinv12"],
        "fyy": 0.5 * nu * d["Iinv22"],
    }
    # per first-order entry: d(I11, I12, I22) and the Gamma part of d(P_ab),
    # P_ab = acc_ab.w = |w| II_ab
    for axis, name, (dI11, dI12, dI22), (dP11, dP12, dP22) in (
            (0, "fx", (2.0 * gT1z, gT2z, 0.0), (2.0 * Gz1, Gz2, 0.0)),
            (1, "fy", (0.0, gT1z, 2.0 * gT2z), (0.0, Gz1, 2.0 * Gz2))):
        # dw = -s e_axis meets only the x, y components of acc_ab, which
        # are those of Gamma(T_a, T_b)
        dnrm = -s * g_inv_w[..., axis] / nrm
        dII11 = (dP11 - s * d["_acc11"][..., axis] - II11 * dnrm) / nrm
        dII12 = (dP12 - s * d["_acc12"][..., axis] - II12 * dnrm) / nrm
        dII22 = (dP22 - s * d["_acc22"][..., axis] - II22 * dnrm) / nrm
        dN = (dI22 * II11 + I22 * dII11 - 2.0 * (dI12 * II12 + I12 * dII12)
              + dI11 * II22 + I11 * dII22)
        ddet = dI11 * I22 + I11 * dI22 - 2.0 * I12 * dI12
        dH[name] = 0.5 * (dN - 2.0 * H * ddet) * inv_det
    return H, nu, dH


def shape_data(jet: Jet2, params: SpaceParams, orientation: int = -1) -> ShapeData:
    """Fundamental forms, unit normal, angle function, H and |sigma|^2."""
    amb = AmbientCache(np.array([jet.x]), np.array([jet.y]), params)
    d = shape_arrays(amb, [jet.fx], [jet.fy], [jet.fxx], [jet.fxy], [jet.fyy],
                     orientation)
    first = np.array([[d["I11"][0], d["I12"][0]], [d["I12"][0], d["I22"][0]]])
    second = np.array([[d["II11"][0], d["II12"][0]], [d["II12"][0], d["II22"][0]]])
    normal = TangentVector(base=Point3(jet.x, jet.y, jet.f),
                           components=d["normal"][0])
    return ShapeData(
        first_form=first,
        second_form=second,
        normal=normal,
        nu=float(d["nu"][0]),
        H=float(d["H"][0]),
        sigma_sq=float(d["sigma_sq"][0]),
    )


def angle_function(jet: Jet2, params: SpaceParams, orientation: int = -1) -> float:
    """nu = <normal, dz>; never zero on a nondegenerate graph jet."""
    return shape_data(jet, params, orientation).nu


def jacobi_potential(jet: Jet2, params: SpaceParams) -> float:
    """q = (1 - nu^2)(kappa - 4 tau^2) + |sigma|^2 + 2 tau^2.

    Orientation-independent (nu enters squared); this is the potential of
    the stability operator written without curvature-tensor contractions.
    """
    sd = shape_data(jet, params, orientation=-1)
    return jacobi_potential_from(sd.nu, sd.sigma_sq, params)


def jacobi_potential_from(nu, sigma_sq, params: SpaceParams):
    """Potential from precomputed nu and |sigma|^2 (array friendly)."""
    nu = np.asarray(nu, dtype=float)
    sigma_sq = np.asarray(sigma_sq, dtype=float)
    out = (1.0 - nu * nu) * (params.kappa - 4.0 * params.tau**2) \
        + sigma_sq + 2.0 * params.tau**2
    if out.ndim == 0:
        return float(out)
    return out


def shape_scalar(x: float, y: float, fx: float, fy: float, fxx: float,
                 fxy: float, fyy: float, params: SpaceParams,
                 orientation: int = -1):
    """Scalar twin of `shape_arrays` for sequential hot loops.

    Same algorithm (metric, Christoffels, conormal, shape operator) written
    in plain float arithmetic so ODE right-hand sides avoid per-call numpy
    overhead.  Tests pin its output to `shape_arrays` to machine precision.
    Returns (H, nu, sigma_sq, dH_dfxx).
    """
    k, t = params.kappa, params.tau
    s = float(orientation)
    u = 4.0 + k * (x * x + y * y)
    lam = 4.0 / u
    lam2 = lam * lam
    lam_x = -0.5 * k * x * lam2
    lam_y = -0.5 * k * y * lam2

    t2 = t * t
    g00 = lam2 * (1.0 + t2 * y * y)
    g11 = lam2 * (1.0 + t2 * x * x)
    g22 = 1.0
    g01 = -lam2 * t2 * x * y
    g02 = t * lam * y
    g12 = -t * lam * x
    g = ((g00, g01, g02), (g01, g11, g12), (g02, g12, g22))

    dl2x = 2.0 * lam * lam_x
    dl2y = 2.0 * lam * lam_y
    # dg[i][j][k] = d g_ij / d x^k, k in {x, y}; no z dependence
    dg = [[[0.0, 0.0, 0.0] for _ in range(3)] for _ in range(3)]
    dg[0][0][0] = dl2x * (1.0 + t2 * y * y)
    dg[0][0][1] = dl2y * (1.0 + t2 * y * y) + lam2 * t2 * 2.0 * y
    dg[1][1][0] = dl2x * (1.0 + t2 * x * x) + lam2 * t2 * 2.0 * x
    dg[1][1][1] = dl2y * (1.0 + t2 * x * x)
    dg[0][1][0] = dg[1][0][0] = -t2 * (dl2x * x * y + lam2 * y)
    dg[0][1][1] = dg[1][0][1] = -t2 * (dl2y * x * y + lam2 * x)
    dg[0][2][0] = dg[2][0][0] = t * lam_x * y
    dg[0][2][1] = dg[2][0][1] = t * (lam_y * y + lam)
    dg[1][2][0] = dg[2][1][0] = -t * (lam_x * x + lam)
    dg[1][2][1] = dg[2][1][1] = -t * lam_y * x

    det = (g00 * (g11 * g22 - g12 * g12) - g01 * (g01 * g22 - g12 * g02)
           + g02 * (g01 * g12 - g11 * g02))
    gi = (
        ((g11 * g22 - g12 * g12) / det, (g02 * g12 - g01 * g22) / det,
         (g01 * g12 - g02 * g11) / det),
        ((g02 * g12 - g01 * g22) / det, (g00 * g22 - g02 * g02) / det,
         (g01 * g02 - g00 * g12) / det),
        ((g01 * g12 - g02 * g11) / det, (g01 * g02 - g00 * g12) / det,
         (g00 * g11 - g01 * g01) / det),
    )

    gam = [[[0.0] * 3 for _ in range(3)] for _ in range(3)]
    for kk in range(3):
        for i in range(3):
            for j in range(i, 3):
                acc = 0.0
                for l in range(3):
                    acc += gi[kk][l] * (dg[j][l][i] + dg[i][l][j] - dg[i][j][l])
                gam[kk][i][j] = gam[kk][j][i] = 0.5 * acc

    I11 = g00 + 2.0 * fx * g02 + fx * fx * g22
    I12 = g01 + fy * g02 + fx * g12 + fx * fy * g22
    I22 = g11 + 2.0 * fy * g12 + fy * fy * g22
    detI = I11 * I22 - I12 * I12
    if not (detI > _DET_FLOOR):
        raise DegenerateMetric("first fundamental form is numerically degenerate")

    # conormal direction v = (-fx, -fy, 1); w = orientation * v
    v = (-fx, -fy, 1.0)
    Gv = tuple(gi[r][0] * v[0] + gi[r][1] * v[1] + gi[r][2] * v[2] for r in range(3))
    nrm2 = v[0] * Gv[0] + v[1] * Gv[1] + v[2] * Gv[2]
    nrm = math.sqrt(nrm2)
    nu = s / nrm

    def contract(a2, b2, wa, wb):
        # Gamma^k_ij T_a^i T_b^j for T = (1, 0, wa)-style sparse tangents
        out = []
        for kk in range(3):
            G = gam[kk]
            out.append(G[a2][b2] + wb * G[a2][2] + wa * G[2][b2] + wa * wb * G[2][2])
        return out

    C11 = contract(0, 0, fx, fx)
    C12 = contract(0, 1, fx, fy)
    C22 = contract(1, 1, fy, fy)
    II11 = s * (fxx + C11[0] * v[0] + C11[1] * v[1] + C11[2] * v[2]) / nrm
    II12 = s * (fxy + C12[0] * v[0] + C12[1] * v[1] + C12[2] * v[2]) / nrm
    II22 = s * (fyy + C22[0] * v[0] + C22[1] * v[1] + C22[2] * v[2]) / nrm

    Iinv11 = I22 / detI
    Iinv12 = -I12 / detI
    Iinv22 = I11 / detI
    S11 = Iinv11 * II11 + Iinv12 * II12
    S12 = Iinv11 * II12 + Iinv12 * II22
    S21 = Iinv12 * II11 + Iinv22 * II12
    S22 = Iinv12 * II12 + Iinv22 * II22
    H = 0.5 * (S11 + S22)
    sigma_sq = S11 * S11 + S22 * S22 + 2.0 * S12 * S21
    dH_dfxx = 0.5 * nu * Iinv11
    return H, nu, sigma_sq, dH_dfxx
