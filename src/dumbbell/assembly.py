"""P1 stiffness and mass operators for conformally weighted quotients.

A cell with conformal factor f contributes f^{d/2-1} times its metric
stiffness and f^{d/2} times its consistent mass, so for any vertex vector v
the ratio v'Kv / v'Mv is the discrete energy quotient of the weighted
metric.  All element integrals are exact on affine cells (no quadrature
error), which keeps the volume and min-max identities sharp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse

from .mesh import Mesh, simplex_gradient_data  # noqa: F401  a binding site the labbench tracer test checks
from .metric import REGION_MINUS, REGION_PLUS, CollarGeometry, ConformalField


@dataclass
class OperatorPair:
    """Stiffness and mass over a vertex subset.

    K and M share one index structure (the same ``indices`` and ``indptr``
    memory), so K + cM is the sum of their ``data`` arrays on it.
    ``dof_map`` lists the global vertex ids behind the matrix rows; it is
    the identity for whole-mesh assembly.  ``grid`` is the per-axis cell
    count of a whole-mesh box grid assembly (vertex ids in the grid's
    row-major order), and None for restricted pairs, unstructured meshes and
    tori (the V-cycle's prolongation does not wrap).
    """

    K: sparse.csr_matrix
    M: sparse.csr_matrix
    dof_map: np.ndarray
    grid: Optional[tuple]

    @property
    def n_dof(self) -> int:
        return self.K.shape[0]


def assemble(
    mesh: Mesh,
    field: Optional[ConformalField] = None,
    cell_mask: Optional[np.ndarray] = None,
) -> OperatorPair:
    """Assemble K and M, optionally restricted to a cell subset.

    ``field=None`` means the unweighted reference metric (f identically 1).
    Both reweight `Mesh.cell_operators` with weight zero outside ``cell_mask``:
    the diagonal sums over ``cells`` and the edges over ``cell_edges``, each entry
    in cell order, and the pattern's entry ids spread them over its stored entries.
    A restricted pair slices the pattern once to the vertices of the selected
    cells, imposing nothing on the new boundary (natural conditions).  K and M
    are built on one copy of the pattern's index arrays.
    """
    d = mesh.dim
    keep = np.ones(mesh.num_cells, dtype=bool) if cell_mask is None else np.asarray(cell_mask, dtype=bool)
    if not keep.any():
        raise ValueError("empty region")
    f = np.ones(mesh.num_cells) if field is None else np.where(keep, field.f, 1.0)
    if np.any(f <= 0):
        raise ValueError("conformal factor must be positive on all cells")
    ops = mesh.cell_operators()
    edges, cell_edges = mesh.edge_table()
    mass_ref = np.repeat([2.0, 1.0], [d + 1, cell_edges.shape[1]]) / ((d + 1) * (d + 2))
    dof_map = np.arange(mesh.num_vertices) if cell_mask is None else np.unique(mesh.cells[keep])
    # fancy indexing keeps stored zeros, so vertex 0's diagonal id survives the slice
    pattern = ops.pattern if cell_mask is None else ops.pattern[dof_map][:, dof_map]

    def reweighted(local, weights):  # the mask after the power: f^0 = 1 at d = 2
        rows = local.reshape(-1, 1, local.shape[-1])  # one row for all cells, one per shape, or one per cell
        w = (keep * weights).reshape(rows.shape[0], -1, 1)
        diag = np.bincount(mesh.cells.reshape(-1), weights=(rows[..., : d + 1] * w).reshape(-1),
                           minlength=mesh.num_vertices)
        off = np.bincount(cell_edges.reshape(-1), weights=(rows[..., d + 1 :] * w).reshape(-1),
                          minlength=edges.shape[0])
        return np.concatenate([diag, off])[pattern.data]

    K = reweighted(ops.local, f ** (d / 2.0 - 1.0))
    M = reweighted(mass_ref, f ** (d / 2.0) * ops.volumes)
    structure = pattern.indices.copy(), pattern.indptr.copy()  # after the data; never the mesh's cached arrays
    return OperatorPair(K=sparse.csr_matrix((K, *structure), shape=pattern.shape),
                        M=sparse.csr_matrix((M, *structure), shape=pattern.shape), dof_map=dof_map,
                        grid=None if mesh.periodic or cell_mask is not None else mesh.grid_resolution)


def subdomain_neumann(mesh: Mesh, geom: CollarGeometry, side: str) -> OperatorPair:
    """Reference-metric operators on one bulk region with natural conditions.

    The smallest eigenvalue of the pair is zero with constant eigenvector;
    the next one is the region's first nontrivial Neumann eigenvalue.
    """
    label = {"plus": REGION_PLUS, "minus": REGION_MINUS}.get(side)
    if label is None:
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    mask = geom.cells_of(label)
    if not np.any(mask):
        raise ValueError(f"empty region '{side}'")
    return assemble(mesh, field=None, cell_mask=mask)
