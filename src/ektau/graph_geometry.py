"""Pointwise extrinsic geometry of vertical graphs z = f(x, y).

A graph is parametrized by (x, y) -> (x, y, f(x, y)); its coordinate tangent
fields are T1 = (1, 0, fx) and T2 = (0, 1, fy).  Everything downstream (the
Dirichlet solver, the stability assembly, point evaluation by `shape_data`)
evaluates mean curvature through one kernel, `_forms`, written in explicit
component arithmetic on closed-form ambient data (`model.ambient_components`).
The same code runs on numpy arrays (the lattice evaluations behind
`shape_arrays`) and on Python floats (`shape_data`), where it stays off
numpy and returns Python floats bit-identical to the array path.

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

from .errors import DegenerateMetric
from .model import Ambient, Point3, SpaceParams, TangentVector, ambient_components

_DET_FLOOR = 1e-14


def _all(flags) -> bool:
    """all() of a comparison made on floats (a bool) or on arrays."""
    return flags if isinstance(flags, bool) else bool(flags.all())


def _sqrt(v):
    """Square root, off numpy for floats.

    math.sqrt and np.sqrt are both correctly rounded, so the float and the
    array path agree bit for bit; pow(v, 0.5) carries no such guarantee.
    """
    return math.sqrt(v) if isinstance(v, float) else np.sqrt(v)


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


def _forms(amb: Ambient, fx, fy, fxx, fxy, fyy, orientation: int):
    """The graph kernel on floats or arrays, with the intermediates that the
    exact first-order partials reuse (keys with a leading underscore).

    With the conormal w = orientation (-fx, -fy, 1) and N = g^{-1} w, the
    second fundamental form is II_ab = (P_ab + orientation f_ab) / |w|,
    where P_ab = Gamma(T_a, T_b).w = N.C_ab and C_ab are the Christoffel
    symbols of the first kind on the tangents,
    C_ab = 1/2 [(d_a g) T_b + (d_b g) T_a
                - ((d_x g)(T_a, T_b), (d_y g)(T_a, T_b), 0)],
    since T_a^i d_i = d_a on z-independent data.
    """
    if orientation not in (-1, 1):
        raise ValueError("orientation must be +1 or -1")
    s = float(orientation)
    (_, _, _, g_xx, g_xy, g_xz, g_yy, g_yz, gi_xx, gi_xz, gi_yz, gi_zz,
     dx_xx, dx_xy, dx_xz, dx_yy, dx_yz,
     dy_xx, dy_xy, dy_xz, dy_yy, dy_yz) = amb

    # z components of g T1 and g T2 (g_zz = 1), then the first form; on
    # arrays, jets that the check below rejects may overflow on the way
    with np.errstate(over="ignore", invalid="ignore"):
        gT1z = g_xz + fx
        gT2z = g_yz + fy
        I11 = g_xx + fx * (g_xz + gT1z)
        I12 = g_xy + fy * g_xz + fx * gT2z
        I22 = g_yy + fy * (g_yz + gT2z)
        det_I = I11 * I22 - I12 * I12
    if not _all((det_I >= _DET_FLOOR) & (det_I < math.inf)):
        raise DegenerateMetric("first fundamental form is numerically degenerate")

    # N = g^{-1} w; nu = orientation / |w|, normal = N / |w|
    N0 = s * (gi_xz - fx * gi_xx)
    N1 = s * (gi_yz - fy * gi_xx)
    N2 = s * (gi_zz - fx * gi_xz - fy * gi_yz)
    nrm = _sqrt(s * (N2 - fx * N0 - fy * N1))
    nu = s / nrm

    # (d_x g) T1 = (x1x, x1y, dx_xz), (d_x g) T2 = (., x2y, dx_yz),
    # (d_y g) T1 = (y1x, y1y, dy_xz), (d_y g) T2 = (y2x, y2y, dy_yz), and
    # (d_x g)(T_a, T_b) = T_a.(d_x g) T_b
    x1x = dx_xx + fx * dx_xz
    x1y = dx_xy + fx * dx_yz
    x2y = dx_yy + fy * dx_yz
    y1x = dy_xx + fx * dy_xz
    y1y = dy_xy + fx * dy_yz
    y2x = dy_xy + fy * dy_xz
    y2y = dy_yy + fy * dy_yz
    C11 = (0.5 * (x1x - fx * dx_xz), x1y - 0.5 * (y1x + fx * dy_xz), dx_xz)
    C12 = (0.5 * (y1x - fx * dx_yz), 0.5 * (x2y + y1y - y2x - fx * dy_yz),
           0.5 * (dx_yz + dy_xz))
    C22 = (y2x - 0.5 * (x2y + fy * dx_yz), 0.5 * (y2y - fy * dy_yz), dy_yz)
    II11 = (N0 * C11[0] + N1 * C11[1] + N2 * C11[2] + s * fxx) / nrm
    II12 = (N0 * C12[0] + N1 * C12[1] + N2 * C12[2] + s * fxy) / nrm
    II22 = (N0 * C22[0] + N1 * C22[1] + N2 * C22[2] + s * fyy) / nrm

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
        "normal": (N0 / nrm, N1 / nrm, N2 / nrm),
        "nu": nu, "H": H, "sigma_sq": sigma_sq,
        "_N": (N0, N1, N2), "_nrm": nrm, "_inv_det": inv_det,
        "_gT1z": gT1z, "_gT2z": gT2z, "_C": (C11, C12, C22),
    }


def _array_forms(amb: Ambient, fx, fy, fxx, fxy, fyy, orientation):
    return _forms(amb, np.asarray(fx, dtype=float),
                  np.asarray(fy, dtype=float), np.asarray(fxx, dtype=float),
                  np.asarray(fxy, dtype=float), np.asarray(fyy, dtype=float),
                  orientation)


def shape_arrays(amb: Ambient, fx, fy, fxx, fxy, fyy, orientation: int = -1):
    """Vectorized fundamental forms over the points of `amb`.

    Returns a dict with first-form components I11, I12, I22, det_I, the
    second-form components II11, II12, II22, the normal components (n, 3),
    and nu, H, sigma_sq arrays.
    """
    d = _array_forms(amb, fx, fy, fxx, fxy, fyy, orientation)
    out = {k: v for k, v in d.items() if not k.startswith("_")}
    out["normal"] = np.stack(d["normal"], axis=-1)
    return out


def mean_curvature_arrays(amb: Ambient, fx, fy, fxx, fxy, fyy,
                          orientation: int = -1):
    """(H, nu) over the points of `amb`; the solver's residual evaluation."""
    data = _array_forms(amb, fx, fy, fxx, fxy, fyy, orientation)
    return data["H"], data["nu"]


def mean_curvature_sensitivities(amb: Ambient, fx, fy, fxx, fxy, fyy,
                                 orientation: int = -1):
    """H, nu and the exact partials of H with respect to the jet entries.

    The second fundamental form is affine in the second derivatives with
    dII_ab/df_ab = nu, which gives dH/dfxx, dH/dfxy, dH/dfyy.  The partials
    in fx and fy differentiate the kernel's own quantities by the chain
    rule in one pass: with H = (I22 II11 - 2 I12 II12 + I11 II22) / (2 det I),
    dT1/dfx = dT2/dfy = e_z and dw/dfx = -orientation e_x,
    dw/dfy = -orientation e_y move I_ab, det I, the conormal norm |w| and
    P_ab = Gamma(T_a, T_b).w = N.C_ab.
    """
    d = _array_forms(amb, fx, fy, fxx, fxy, fyy, orientation)
    s = float(orientation)
    nu, H, inv_det, nrm = d["nu"], d["H"], d["_inv_det"], d["_nrm"]
    I11, I12, I22 = d["I11"], d["I12"], d["I22"]
    II11, II12, II22 = d["II11"], d["II12"], d["II22"]
    N = d["_N"]
    C11, C12, C22 = d["_C"]
    gT1z, gT2z = d["_gT1z"], d["_gT2z"]
    # Gamma(e_z, T1) and Gamma(e_z, T2) have the first-kind components
    # (0, A, 0) and (-A, 0, 0): what P_ab gains per unit of e_z in T_b
    A = 0.5 * (amb.dx_yz - amb.dy_xz)
    Gz1, Gz2 = A * N[1], -A * N[0]
    dH = {
        "fxx": 0.5 * nu * d["Iinv11"],
        "fxy": nu * d["Iinv12"],
        "fyy": 0.5 * nu * d["Iinv22"],
    }
    # per first-order entry f_j: d(I11, I12, I22), the tangent part of
    # d(P_ab), and from dw = -s e_j the parts dN = -s g^{-1} e_j (whose
    # nonzero entries are g^jj = g^xx and g^jz) and d|w| = -s N_j / |w|
    for name, (dI11, dI12, dI22), (dP11, dP12, dP22), j, gi_jz in (
            ("fx", (2.0 * gT1z, gT2z, 0.0), (2.0 * Gz1, Gz2, 0.0), 0, amb.gi_xz),
            ("fy", (0.0, gT1z, 2.0 * gT2z), (0.0, Gz1, 2.0 * Gz2), 1, amb.gi_yz)):
        dnrm = -s * N[j] / nrm
        dII11 = (dP11 - s * (amb.gi_xx * C11[j] + gi_jz * C11[2]) - II11 * dnrm) / nrm
        dII12 = (dP12 - s * (amb.gi_xx * C12[j] + gi_jz * C12[2]) - II12 * dnrm) / nrm
        dII22 = (dP22 - s * (amb.gi_xx * C22[j] + gi_jz * C22[2]) - II22 * dnrm) / nrm
        dnum = (dI22 * II11 + I22 * dII11 - 2.0 * (dI12 * II12 + I12 * dII12)
                + dI11 * II22 + I11 * dII22)
        ddet = dI11 * I22 + I11 * dI22 - 2.0 * I12 * dI12
        dH[name] = 0.5 * (dnum - 2.0 * H * ddet) * inv_det
    return H, nu, dH


def shape_data(jet: Jet2, params: SpaceParams, orientation: int = -1) -> ShapeData:
    """Fundamental forms, unit normal, angle function, H and |sigma|^2."""
    params.require_inside(jet.x, jet.y)
    d = _forms(ambient_components(float(jet.x), float(jet.y), params),
               float(jet.fx), float(jet.fy), float(jet.fxx), float(jet.fxy),
               float(jet.fyy), orientation)
    first = np.array([[d["I11"], d["I12"]], [d["I12"], d["I22"]]])
    second = np.array([[d["II11"], d["II12"]], [d["II12"], d["II22"]]])
    normal = TangentVector(base=Point3(jet.x, jet.y, jet.f),
                           components=np.array(d["normal"]))
    return ShapeData(first_form=first, second_form=second, normal=normal,
                     nu=d["nu"], H=d["H"], sigma_sq=d["sigma_sq"])


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
