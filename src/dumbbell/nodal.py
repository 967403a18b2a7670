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


_TET_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def tie_signs(u: np.ndarray) -> np.ndarray:
    """Effective signs of vertex values; exact zeros count as positive."""
    return np.where(np.asarray(u) < 0, -1, 1).astype(np.int8)


@dataclass
class NodalFragment:
    """Zero-set polygon inside one cell, with its edge interpolation data."""

    cell: int
    points: np.ndarray   # (k, d) polygon vertices, cyclic order
    edge_v0: np.ndarray  # (k,) mesh vertex on the negative side of each point
    edge_v1: np.ndarray  # (k,) mesh vertex on the positive side
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


def _crossing_points(u, verts, cells, cell_id, neg_local, pos_local):
    """Polygon corners on the sign-crossing edges of one cell, cyclic order."""
    if len(neg_local) == 1 or len(pos_local) == 1:
        single, others = (
            (neg_local[0], pos_local) if len(neg_local) == 1 else (pos_local[0], neg_local)
        )
        pairs = [(single, o) for o in others]
    else:  # 2-2 split in a tetrahedron: quad around the minus edge
        a0, a1 = neg_local
        b0, b1 = pos_local
        pairs = [(a0, b0), (a0, b1), (a1, b1), (a1, b0)]

    cell = cells[cell_id]
    v0 = np.array([cell[i] for i, _ in pairs], dtype=np.int64)
    v1 = np.array([cell[j] for _, j in pairs], dtype=np.int64)
    ui, uj = u[v0], u[v1]
    t = ui / (ui - uj)
    pts = (1.0 - t)[:, None] * verts[v0] + t[:, None] * verts[v1]
    return pts, v0, v1, t


def _polygon_area(points: np.ndarray, metric: Optional[np.ndarray]) -> float:
    """Metric area of a planar polygon (Gram determinant per fan triangle)."""
    g = metric if metric is not None else np.eye(points.shape[1])
    if points.shape[1] == 2:  # segment length
        e = points[1] - points[0]
        return float(np.sqrt(e @ g @ e))
    area = 0.0
    for k in range(1, points.shape[0] - 1):
        e1 = points[k] - points[0]
        e2 = points[k + 1] - points[0]
        gram = np.array([[e1 @ g @ e1, e1 @ g @ e2], [e2 @ g @ e1, e2 @ g @ e2]])
        area += 0.5 * np.sqrt(max(np.linalg.det(gram), 0.0))
    return area


def extract_nodal_set(mesh: Mesh, u: np.ndarray) -> NodalSet:
    """Extract the zero set of the P1 interpolant of ``u``.

    Components join fragments that share a sign-crossing facet.  An empty
    zero set is a valid result.
    """
    u = np.asarray(u, dtype=float)
    signs = tie_signs(u)
    cell_signs = signs[mesh.cells]
    crossing = np.flatnonzero(~np.all(cell_signs == cell_signs[:, :1], axis=1))

    fragments: List[NodalFragment] = []
    frag_of_cell = {}
    areas = []
    local_range = np.arange(mesh.dim + 1)
    for cid in crossing:
        neg = local_range[cell_signs[cid] < 0]
        pos = local_range[cell_signs[cid] > 0]
        pts, v0, v1, t = _crossing_points(u, mesh.vertices, mesh.cells, cid, list(neg), list(pos))
        metric = mesh.cell_metric[cid] if mesh.cell_metric is not None else None
        areas.append(_polygon_area(pts, metric))
        frag_of_cell[cid] = len(fragments)
        fragments.append(NodalFragment(int(cid), pts, v0, v1, t))

    # adjacency through facets whose own vertex signs are mixed
    parent = list(range(len(fragments)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    if fragments:
        facets, pairs = mesh.interior_facet_pairs()
        fs = signs[facets]
        mixed = ~np.all(fs == fs[:, :1], axis=1)
        for c0, c1 in pairs[mixed]:
            i, j = frag_of_cell.get(int(c0)), frag_of_cell.get(int(c1))
            if i is None or j is None:
                continue
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)

    roots = np.array([find(i) for i in range(len(fragments))], dtype=np.int64)
    uniq, labels = (np.unique(roots, return_inverse=True) if fragments else (np.array([]), roots))

    if crossing.size:  # gradient operators of the crossing cells only
        metric = None if mesh.cell_metric is None else mesh.cell_metric[crossing]
        sub = Mesh(mesh.dim, mesh.vertices, mesh.cells[crossing], metric, periodic=mesh.periodic)
        grads = simplex_gradient_data(sub)
        min_grad = float(np.sqrt(grads.metric_norm_sq(grads.gradient_of(u, sub.cells)).min()))
    else:
        min_grad = float("inf")

    return NodalSet(
        fragments=fragments,
        component_labels=labels,
        n_components=int(uniq.size),
        total_area=float(np.add.reduce(np.asarray(areas))) if areas else 0.0,
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
