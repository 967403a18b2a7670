"""Zero sets of piecewise-linear vertex fields.

Marching simplices on the P1 interpolant: every cell whose vertex values
change sign contributes a planar polygon (segment in 2d, triangle or quad in
3d).  Exact zeros are broken deterministically by treating them as positive,
the discrete stand-in for perturbing value v to v + 1e-300 (1 + vertex id).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, TYPE_CHECKING

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from .mesh import Mesh, simplex_gradient_data

if TYPE_CHECKING:  # pragma: no cover
    from .metric import CollarGeometry


class NonBoxSceneError(ValueError):
    """Raised by checks that need the structured grid (fiber) layout."""


def tie_signs(u: np.ndarray) -> np.ndarray:
    """Effective signs of vertex values; exact zeros count as positive."""
    return np.where(np.asarray(u) < 0, -1, 1).astype(np.int8)


@dataclass
class NodalFragment:
    """Zero-set polygon inside one cell, with its edge interpolation data."""

    cell: int
    points: np.ndarray   # (k, d) polygon vertices, cyclic order
    edge_v0: np.ndarray  # (k,) the cell's lone-sign vertex, or a minus-edge vertex in a 2-2 split
    edge_v1: np.ndarray  # (k,) the other end of each point's sign-crossing edge
    edge_t: np.ndarray   # (k,) position along the edge, point = (1-t) v0 + t v1

    def interpolate(self, field: np.ndarray) -> np.ndarray:
        return (1.0 - self.edge_t) * field[self.edge_v0] + self.edge_t * field[self.edge_v1]


@dataclass
class NodalSet:
    fragments: List[NodalFragment]
    component_labels: np.ndarray     # (F,) component id per fragment
    n_components: int
    total_area: float                # metric area (length in 2d)
    min_gradient: float              # min metric gradient norm over crossing cells
    dim: int

    @property
    def is_empty(self) -> bool:
        return not self.fragments

    def interpolate(self, field: np.ndarray) -> List[np.ndarray]:
        return [frag.interpolate(field) for frag in self.fragments]

    def value_range(self, field: np.ndarray):
        """(min, max) of a vertex field interpolated over all fragment points."""
        if self.is_empty:
            return (np.nan, np.nan)
        vals = np.concatenate(self.interpolate(field))
        return (float(vals.min()), float(vals.max()))


def _corner_pairs(neg: List[int], pos: List[int]) -> List[tuple]:
    """Local (v0, v1) edges whose crossings are the polygon corners, cyclic order."""
    if len(neg) == 1 or len(pos) == 1:
        single, others = (neg[0], pos) if len(neg) == 1 else (pos[0], neg)
        return [(single, o) for o in others]
    (a0, a1), (b0, b1) = neg, pos  # 2-2 split in a tetrahedron: quad around the minus edge
    return [(a0, b0), (a0, b1), (a1, b1), (a1, b0)]


def extract_nodal_set(mesh: Mesh, u: np.ndarray) -> NodalSet:
    """Extract the zero set of the P1 interpolant of ``u``.

    Cells are batched by sign pattern, so corners and areas are computed
    once per pattern.  Components join fragments that share a sign-crossing
    facet.  An empty zero set is a valid result.
    """
    u = np.asarray(u, dtype=float)
    d = mesh.dim
    signs = tie_signs(u)
    cell_signs = signs[mesh.cells]
    crossing = np.flatnonzero(~np.all(cell_signs == cell_signs[:, :1], axis=1))
    pattern = (cell_signs[crossing] < 0) @ (1 << np.arange(d + 1))

    fragments: List[Optional[NodalFragment]] = [None] * crossing.size
    areas = np.zeros(crossing.size)
    for code in np.unique(pattern):
        rows = np.flatnonzero(pattern == code)
        neg = [i for i in range(d + 1) if code >> i & 1]
        pos = [i for i in range(d + 1) if not code >> i & 1]
        i0, i1 = np.array(_corner_pairs(neg, pos)).T
        cells = mesh.cells[crossing[rows]]
        v0, v1 = cells[:, i0], cells[:, i1]
        t = u[v0] / (u[v0] - u[v1])
        pts = (1.0 - t)[..., None] * mesh.vertices[v0] + t[..., None] * mesh.vertices[v1]
        g = np.eye(d) if mesh.cell_metric is None else mesh.cell_metric[crossing[rows]]
        # metric area: a segment length in 2d, a fan of triangle Gram determinants in 3d
        for k in range(1, pts.shape[1] - d + 2):
            e = pts[:, k : k + d - 1] - pts[:, :1]
            gram = (e @ g) @ e.transpose(0, 2, 1)
            if d == 2:
                areas[rows] += np.sqrt(gram[:, 0, 0])
            else:
                areas[rows] += 0.5 * np.sqrt(np.maximum(np.linalg.det(gram), 0.0))
        for r, row in enumerate(rows):
            fragments[row] = NodalFragment(int(crossing[row]), pts[r], v0[r], v1[r], t[r])

    # adjacency through facets whose own vertex signs are mixed
    frag_of_cell = np.full(mesh.num_cells, -1, dtype=np.int64)
    frag_of_cell[crossing] = np.arange(crossing.size)
    facets, pairs = mesh.interior_facet_pairs()
    fs = signs[facets]
    linked = frag_of_cell[pairs[fs.min(axis=1) < fs.max(axis=1)]]  # both cells of it cross
    graph = sparse.coo_matrix(
        (np.ones(linked.shape[0], dtype=np.int8), (linked[:, 0], linked[:, 1])),
        shape=(crossing.size, crossing.size),
    )
    n_components, labels = connected_components(graph, directed=False)

    if crossing.size:  # gradient operators of the crossing cells only
        metric = None if mesh.cell_metric is None else mesh.cell_metric[crossing]
        sub = Mesh(mesh.dim, mesh.vertices, mesh.cells[crossing], metric, periodic=mesh.periodic)
        grads = simplex_gradient_data(sub)
        min_grad = float(np.sqrt(grads.metric_norm_sq(grads.gradient_of(u, sub.cells)).min()))
    else:
        min_grad = float("inf")

    return NodalSet(
        fragments=fragments,
        component_labels=labels.astype(np.int64),
        n_components=int(n_components),
        total_area=float(np.add.reduce(areas)),
        min_gradient=min_grad,
        dim=mesh.dim,
    )


class LocalizationReport(NamedTuple):
    components: int
    max_abs_rho: float
    contained: bool


def localization_report(ns: NodalSet, geom: "CollarGeometry") -> LocalizationReport:
    """Component count, distance reach, and collar containment of a zero set.

    An empty zero set reports NaN reach and is vacuously contained.
    """
    if ns.is_empty:
        return LocalizationReport(0, float("nan"), True)
    lo, hi = ns.value_range(geom.rho)
    reach = max(abs(lo), abs(hi))
    return LocalizationReport(ns.n_components, reach, bool(reach < geom.eta))


def nodal_domain_count(mesh: Mesh, u: np.ndarray) -> int:
    """Number of sign-constant vertex components under mesh adjacency."""
    signs = tie_signs(u)
    a, b = mesh.cell_edges()
    same = signs[a] == signs[b]
    rows, cols = a[same], b[same]
    n = mesh.num_vertices
    g = sparse.coo_matrix((np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(n, n))
    n_comp, _ = connected_components(g + g.T, directed=False)
    return int(n_comp)


def single_crossing_check(mesh: Mesh, u: np.ndarray, geom: "CollarGeometry") -> bool:
    """True iff every grid fiber along the distance axis changes sign once.

    This certifies the zero set is a graph over the cross-section, the
    checkable surrogate for being a small deformation of the hypersurface.
    Only structured box scenes expose fibers.
    """
    if mesh.grid_resolution is None or mesh.periodic:
        raise NonBoxSceneError("single-crossing check needs a structured box grid")
    shape = tuple(n + 1 for n in mesh.grid_resolution)
    signs = tie_signs(u).reshape(shape)
    flips = np.add.reduce((signs[1:] != signs[:-1]).astype(np.int64), axis=0)
    return bool(np.all(flips == 1))


def write_polygon_soup(ns: NodalSet, path) -> None:
    """One polygon per line: vertex count, then its coordinates."""
    with open(path, "w", encoding="utf-8") as fh:
        for frag in ns.fragments:
            coords = " ".join(repr(float(x)) for x in frag.points.reshape(-1))
            fh.write(f"{frag.points.shape[0]} {coords}\n")
