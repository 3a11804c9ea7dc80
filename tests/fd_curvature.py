"""Finite-difference curvature of E(kappa, tau): the test-side oracle.

`ektau.model` evaluates the curvature in closed form.  The functions here
build it numerically instead, from centered differences of Christoffel
symbols, so the closed forms are checked against an independent path.
"""

import numpy as np

from ektau.model import (CurvatureReport, Point3, SpaceParams,
                         _killing_residual_at, frame_matrix,
                         metric_components)

# Centered step for the finite-difference derivatives.
FD_STEP = 1e-5


def riemann_from_gamma(x: float, y: float, params: SpaceParams, gamma_fn):
    """R^a_{b c d} with dGamma by centered differences of gamma_fn.

    The metric is z-independent, so only x/y derivatives contribute.
    """
    d = FD_STEP
    G = gamma_fn(x, y, params)
    dG = np.zeros((3,) + G.shape)  # dG[e, k, i, j] = d Gamma^k_ij / d x^e
    dG[0] = (gamma_fn(x + d, y, params) - gamma_fn(x - d, y, params)) / (2 * d)
    dG[1] = (gamma_fn(x, y + d, params) - gamma_fn(x, y - d, params)) / (2 * d)
    # R^a_{bcd} = d_c G^a_db - d_d G^a_cb + G^a_ce G^e_db - G^a_de G^e_cb
    R = (
        np.einsum("cadb->abcd", dG)
        - np.einsum("dacb->abcd", dG)
        + np.einsum("ace,edb->abcd", G, G)
        - np.einsum("ade,ecb->abcd", G, G)
    )
    return R, G


def christoffel_fd(x, y, params: SpaceParams) -> np.ndarray:
    """Christoffels with dg itself by centered differences of the metric."""
    d = FD_STEP
    g = metric_components(x, y, params)
    g_inv = np.linalg.inv(g)
    dg = np.zeros(np.shape(x) + (3, 3, 3))
    dg[..., 0] = (metric_components(x + d, y, params) - metric_components(x - d, y, params)) / (2 * d)
    dg[..., 1] = (metric_components(x, y + d, params) - metric_components(x, y - d, params)) / (2 * d)
    dg_jli = np.moveaxis(dg, (-3, -2, -1), (-2, -1, -3))
    dg_ilj = np.moveaxis(dg, (-3, -2, -1), (-3, -1, -2))
    T = dg_jli + dg_ilj - dg
    return 0.5 * np.einsum("...kl,...ijl->...kij", g_inv, T)


def curvature_report_fd(p: Point3, params: SpaceParams,
                        gamma_fn=christoffel_fd) -> CurvatureReport:
    """Curvature from centered differences of the Christoffels gamma_fn.

    The default differences the metric too, so every derivative is a finite
    difference; gamma_fn=model.christoffel_components differences the exact
    Christoffels.
    """
    params.require_inside(p.x, p.y)
    R, G = riemann_from_gamma(p.x, p.y, params, gamma_fn)
    ricci = np.einsum("abad->bd", R)
    g_inv = np.linalg.inv(metric_components(p.x, p.y, params))
    F = frame_matrix(p.x, p.y, params)
    return CurvatureReport(
        christoffel=G,
        ricci=ricci,
        ricci_diag_frame=np.array([F[:, i] @ ricci @ F[:, i] for i in range(3)]),
        scalar=float(np.einsum("bd,bd->", g_inv, ricci)),
        killing_residual=_killing_residual_at(p.x, p.y, params, G),
    )
