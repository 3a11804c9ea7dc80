"""Corner-pair assembly of the Q1 Jacobi operator: the test-side oracle.

`ektau.stability._q1_assemble` writes the stiffness matrix straight into
CSR slots found by index arithmetic on the lattice.  The function here
builds the same operator the plain way instead: one COO triplet per
(cell, corner a, corner b), summed by scipy's COO -> CSR conversion and
symmetrized as 0.5 (K + K^T), with the lumped mass scattered by
`np.add.at`.  The two share only the reference integrals.
"""

import numpy as np
import scipy.sparse as sp

from ektau.stability import _reference_stiffness


def q1_assemble(dof, W11, W12, W22, sqrt_det, potential, hx, hy,
                periodic_x=False):
    """Weak form of -(Laplacian + potential) and its lumped mass diagonal.

    dof is an (nx, ny) array of dof indices with -1 marking constrained
    nodes; the nodal fields may hold NaN there.  Cells touching at least
    one dof are assembled with the mean of their defined corner
    coefficients.  `periodic_x` wraps the lattice along x, for the tube
    around a closed cylinder base curve.
    """
    nx, ny = dof.shape
    ndof = int(dof.max()) + 1
    ci = np.arange(nx if periodic_x else nx - 1)
    cj = np.arange(ny - 1)
    CI, CJ = np.meshgrid(ci, cj, indexing="ij")
    ip1 = (CI + 1) % nx if periodic_x else CI + 1
    corners = [(CI, CJ), (ip1, CJ), (CI, CJ + 1), (ip1, CJ + 1)]
    cdof = np.stack([dof[a, b] for a, b in corners])           # (4, m, k)
    keep = (cdof >= 0).any(axis=0)
    cdof = cdof[:, keep]

    def cell_mean(field):
        field = np.broadcast_to(field, dof.shape)
        vals = np.stack([field[a, b] for a, b in corners])[:, keep]
        cnt = np.isfinite(vals)
        vals = np.where(cnt, vals, 0.0)
        return vals.sum(axis=0) / np.maximum(cnt.sum(axis=0), 1)

    cW11, cW12, cW22, cdet = (cell_mean(f) for f in (W11, W12, W22, sqrt_det))
    A11, A12, A22 = _reference_stiffness(hx, hy)

    rows, cols, vals = [], [], []
    for a in range(4):
        for b in range(4):
            va = cW11 * A11[a, b] + cW12 * A12[a, b] + cW22 * A22[a, b]
            m = (cdof[a] >= 0) & (cdof[b] >= 0)
            rows.append(cdof[a][m])
            cols.append(cdof[b][m])
            vals.append(va[m])
    K = sp.csr_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(ndof, ndof))
    K = 0.5 * (K + K.T)

    lump = np.zeros(ndof)
    share = 0.25 * hx * hy * cdet
    for a in range(4):
        m = cdof[a] >= 0
        np.add.at(lump, cdof[a][m], share[m])
    q = np.broadcast_to(potential, dof.shape)[dof >= 0]
    return (K - sp.diags(lump * q)).tocsr(), lump
