"""Zero sets of piecewise-linear vertex fields.

Marching simplices on the P1 interpolant: every cell whose vertex values
change sign contributes a planar polygon (segment in 2d, triangle or quad in
3d).  Values within ZERO_RTOL of the largest magnitude are exact zeros, so a
zero by symmetry that a solver leaves as roundoff of either sign gives the
same polygons, domains and crossings.  Exact zeros count as positive, the
discrete stand-in for perturbing value v to v + 1e-300 (1 + vertex id).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, TYPE_CHECKING

import numpy as np

from .mesh import Mesh, components

if TYPE_CHECKING:  # pragma: no cover
    from .metric import CollarGeometry


class NonBoxSceneError(ValueError):
    """Raised by checks that need the structured grid (fiber) layout."""


ZERO_RTOL = 1e-9  # far above eigensolver roundoff, far below a real sign change


def _snap_zeros(u: np.ndarray) -> np.ndarray:
    """``u`` with every value within ZERO_RTOL of its largest magnitude set to 0."""
    u = np.asarray(u, dtype=float)
    return np.where(np.abs(u) <= ZERO_RTOL * np.abs(u).max(initial=0.0), 0.0, u)


def tie_signs(u: np.ndarray) -> np.ndarray:
    """Effective signs of vertex values; exact zeros count as positive."""
    return np.where(_snap_zeros(u) < 0, -1, 1).astype(np.int8)


@dataclass
class NodalSet:
    """The zero set as arrays: polygon f, in cell ``cells[f]``, is ``points[starts[f]:starts[f + 1]]``."""

    cells: np.ndarray                # (F,) crossing cells, ascending
    starts: np.ndarray               # (F + 1,) polygon offsets into ``points``
    points: np.ndarray               # (P, d) polygon corners, cyclic per polygon
    edge_ends: np.ndarray            # (X, 2) the sign-crossing edges (a, b) of `Mesh.edge_table`
    edge_t: np.ndarray               # (X,) their zeros, at (1 - t) x_a + t x_b
    component_labels: np.ndarray     # (F,) component id per polygon
    n_components: int
    total_area: float                # metric area (length in 2d)
    min_gradient: float              # min metric gradient norm over crossing cells
    dim: int

    @property
    def is_empty(self) -> bool:
        return not self.cells.size

    def polygons(self) -> List[np.ndarray]:
        """The (k, d) corner array of each crossing cell, in ``cells`` order."""
        return [self.points[a:b] for a, b in zip(self.starts[:-1], self.starts[1:])]

    def value_range(self, field: np.ndarray):
        """(min, max) of a vertex field interpolated at the zero on each sign-crossing edge."""
        if self.is_empty:
            return (np.nan, np.nan)
        vals = (1.0 - self.edge_t) * field[self.edge_ends[:, 0]] + self.edge_t * field[self.edge_ends[:, 1]]
        return (float(vals.min()), float(vals.max()))


def _corner_pairs(code: int, d: int) -> List[tuple]:
    """Local (v0, v1) edges of the polygon corners, cyclic, in sign pattern ``code`` (bit i: vertex i < 0)."""
    neg = [i for i in range(d + 1) if code >> i & 1]
    pos = [i for i in range(d + 1) if not code >> i & 1]
    if len(neg) == 1 or len(pos) == 1:
        single, others = (neg[0], pos) if len(neg) == 1 else (pos[0], neg)
        return [(single, o) for o in others]
    (a0, a1), (b0, b1) = neg, pos  # 2-2 split in a tetrahedron: quad around the minus edge
    return [(a0, b0), (a0, b1), (a1, b1), (a1, b0)]


def extract_nodal_set(mesh: Mesh, u: np.ndarray) -> NodalSet:
    """Extract the zero set of the P1 interpolant of ``u``.

    Cells are batched by sign pattern, so corners and areas are computed once
    per pattern.  Components join polygons whose cells share a sign-crossing
    edge: on an edge-manifold mesh (every grid) the same as sharing a mixed
    facet, as the cells around an edge form a fan whose facets hold it.  On a
    file mesh pinched along an edge, polygons touching at a point of it are one
    component, as they are one connected set.  An empty zero set is valid.
    """
    u = _snap_zeros(u)
    d = mesh.dim
    signs = tie_signs(u)
    cell_signs = signs[mesh.cells]
    crossing = np.flatnonzero(~np.all(cell_signs == cell_signs[:, :1], axis=1))
    neg = cell_signs[crossing] < 0
    pattern = neg @ (1 << np.arange(d + 1))
    n_neg = neg.sum(axis=1)  # a 1-k split has k corners, a 2-2 split 4: n_neg * n_pos either way
    starts = np.concatenate([[0], np.cumsum(n_neg * (d + 1 - n_neg))])

    points = np.empty((starts[-1], d))
    areas = np.zeros(crossing.size)
    for code in np.unique(pattern):
        rows = np.flatnonzero(pattern == code)
        i0, i1 = np.array(_corner_pairs(code, d)).T
        cells = mesh.cells[crossing[rows]]
        v0, v1 = cells[:, i0], cells[:, i1]
        t = u[v0] / (u[v0] - u[v1])
        pts = (1.0 - t)[..., None] * mesh.vertices[v0] + t[..., None] * mesh.vertices[v1]
        points[starts[rows, None] + np.arange(i0.size)] = pts
        g = np.eye(d) if mesh.cell_metric is None else mesh.cell_metric[crossing[rows]]
        # metric area: a segment length in 2d, a fan of triangle Gram determinants in 3d
        for k in range(1, pts.shape[1] - d + 2):
            e = pts[:, k : k + d - 1] - pts[:, :1]
            gram = (e @ g) @ e.transpose(0, 2, 1)
            if d == 2:
                areas[rows] += np.sqrt(gram[:, 0, 0])
            else:
                areas[rows] += 0.5 * np.sqrt(np.maximum(np.linalg.det(gram), 0.0))

    edges, cell_edges = mesh.edge_table()
    cross = signs[edges[:, 0]] != signs[edges[:, 1]]
    edge_ends = edges[cross]
    # graph on polygons, then crossing edges: polygon f joins each crossing edge of its cell
    node = crossing.size - 1 + np.cumsum(cross)
    mine = cell_edges[crossing]
    hit = cross[mine]
    n_components, labels = components(crossing.size + edge_ends.shape[0], np.nonzero(hit)[0], node[mine[hit]])

    # |du|_g^2 vol = u_c' S_c u_c = -sum_{a<b} S_ab (u_a - u_b)^2, S_c kills constants
    ops = mesh.cell_operators()
    uc = u[mesh.cells[crossing]]
    i, j = np.triu_indices(d + 1, 1)  # the order of the edge entries of `CellOperators.local`
    energy = -(ops.rows(crossing)[:, d + 1 :] * (uc[:, i] - uc[:, j]) ** 2).sum(axis=1)
    min_grad = float(np.sqrt((energy / ops.volumes[crossing]).min(initial=np.inf)))

    a, b = edge_ends.T
    return NodalSet(
        cells=crossing, starts=starts, points=points, edge_ends=edge_ends, edge_t=u[a] / (u[a] - u[b]),
        component_labels=labels[: crossing.size].astype(np.int64),  # every crossing edge joins a polygon
        n_components=int(n_components), total_area=float(np.add.reduce(areas)), min_gradient=min_grad, dim=d,
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
    edges, _ = mesh.edge_table()
    same = edges[signs[edges[:, 0]] == signs[edges[:, 1]]]
    return int(components(mesh.num_vertices, *same.T)[0])


def single_crossing_check(mesh: Mesh, u: np.ndarray) -> bool:
    """True iff every grid fiber along the distance axis changes sign once.

    This certifies the zero set is a graph over the cross-section, the
    checkable surrogate for being a small deformation of the hypersurface.
    Only structured box scenes expose fibers; on a torus grid they are loops.
    """
    if mesh.grid_resolution is None or mesh.periodic:
        raise NonBoxSceneError("single-crossing check needs a structured box grid")
    shape = tuple(n + 1 for n in mesh.grid_resolution)
    signs = tie_signs(u).reshape(shape)
    flips = np.add.reduce((signs[1:] != signs[:-1]).astype(np.int64), axis=0)
    return bool(np.all(flips == 1))
