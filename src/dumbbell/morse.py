"""Discrete critical points of vertex fields and Morse-count bounds.

A vertex is classified by the connectivity of its lower and upper links
(Banchoff's rule): no lower neighbors makes a minimum, no upper neighbors a
maximum, a disconnected lower (upper) link a saddle counted with
multiplicity components - 1.  Exact ties are broken lexicographically by
vertex id, the deterministic stand-in for a generic perturbation, so
plateaus cannot occur.

All links are counted at once in one sparse graph.  Its nodes are the
directed mesh edges v -> a, numbered 2e + (v > a) from the mesh's edge
table; a link edge (a, b) of v joins v -> a and v -> b when a and b lie on
the same side of v.  Every component of that graph whose owner v is counted
is then one component of one lower or upper link.

Only vertex value ORDER matters; coordinates are never read.  A torus grid
has no boundary, so every vertex of it is counted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from .mesh import Mesh, components

LABEL_EXCLUDED = -1
LABEL_REGULAR = 0
LABEL_MIN = 1
LABEL_MAX = 2
LABEL_SADDLE = 3


@dataclass
class CriticalReport:
    """Per-vertex classification plus index-wise counts over counted vertices.

    In 2d the counts are {0: minima, 1: saddle multiplicity, 2: maxima}; in
    3d the index-1 count comes from lower-link components and the index-2
    count from upper-link components (both reported, neither resolved
    further).  ``counted`` marks vertices whose entire star lies inside the
    requested region and off the domain boundary.
    """

    labels: np.ndarray
    lower_components: np.ndarray
    upper_components: np.ndarray
    counts: Dict[int, int]
    counted: np.ndarray
    dim: int

    def euler_sum(self) -> int:
        """Alternating index sum, equals the Euler characteristic on closed inputs."""
        return int(sum((-1) ** i * c for i, c in self.counts.items()))


def classify_critical_points(
    mesh: Mesh,
    u: np.ndarray,
    region: Optional[np.ndarray] = None,
) -> CriticalReport:
    """Classify every vertex interior to ``region`` (a cell mask, default all).

    Counts cover vertices whose star is contained in the region; on meshes
    with boundary, vertices on it are excluded as well (their links are
    half-open, so extrema there are artifacts of truncation).  Link-graph nodes are the
    directed edges of `Mesh.edge_table`; uncounted vertices keep 0 lower and upper components.
    """
    u = np.asarray(u, dtype=float)
    n = mesh.num_vertices
    in_region = np.full(mesh.num_cells, True) if region is None else np.asarray(region, dtype=bool)

    # vertices touched by cells outside the region have truncated stars
    counted = np.zeros(n, dtype=bool)
    counted[mesh.cells[in_region].reshape(-1)] = True
    counted[mesh.cells[~in_region].reshape(-1)] = False
    if not mesh.periodic:
        counted &= ~mesh.boundary_vertex_mask()

    # lexicographic tie rule: equal values ordered by vertex id
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), u))] = np.arange(n)

    # every link edge (a, b) of every counted cell vertex v, as nodes v -> a, v -> b
    edges, cell_edges = mesh.edge_table()
    per = mesh.dim + 1
    slot = {ij: k for k, ij in enumerate(itertools.combinations(range(per), 2))}

    def node(i, j):  # directed edge from local vertex i to local vertex j of every cell
        return 2 * cell_edges[:, slot[min(i, j), max(i, j)]] + (mesh.cells[:, i] > mesh.cells[:, j])

    owner = edges.reshape(-1)
    lower = (rank[edges[:, ::-1]] < rank[edges]).reshape(-1)  # the other end ranks below the owner
    ia, ib = [], []
    for i in range(per):
        keep = counted[mesh.cells[:, i]]
        out = {j: node(i, j)[keep] for j in range(per) if j != i}
        for a, b in itertools.combinations(out.values(), 2):
            same = lower[a] == lower[b]
            ia.append(a[same])
            ib.append(b[same])
    ia, ib = np.concatenate(ia), np.concatenate(ib)
    n_comp, comp = components(owner.size, ia, ib)
    rep = np.empty(n_comp, dtype=np.int64)
    rep[comp] = np.arange(owner.size)  # any node of a component: it lies in one link half
    rep = rep[counted[owner[rep]]]
    halves = np.bincount(2 * owner[rep] + lower[rep], minlength=2 * n)
    upper_comp, lower_comp = halves.reshape(n, 2).T

    labels = np.full(n, LABEL_EXCLUDED, dtype=np.int8)
    labels[counted] = np.select(
        [lower_comp == 0, upper_comp == 0, (lower_comp > 1) | (upper_comp > 1)],
        [LABEL_MIN, LABEL_MAX, LABEL_SADDLE],
        LABEL_REGULAR,
    )[counted]

    counts: Dict[int, int] = {i: 0 for i in range(mesh.dim + 1)}
    counts[0] = int(np.sum(labels == LABEL_MIN))
    counts[mesh.dim] = int(np.sum(labels == LABEL_MAX))
    # saddle multiplicity components - 1 per vertex; regular vertices add zero
    counts[1] = int(np.sum(np.maximum(lower_comp[counted] - 1, 0)))
    if mesh.dim >= 3:
        counts[2] = int(np.sum(np.maximum(upper_comp[counted] - 1, 0)))
    return CriticalReport(
        labels=labels,
        lower_components=lower_comp,
        upper_components=upper_comp,
        counts=counts,
        counted=counted,
        dim=mesh.dim,
    )


def cosine_product_field(vertices: np.ndarray, periods: Sequence[int] = (2, 1)) -> np.ndarray:
    """Benchmark field prod_i cos(2 pi periods_i x_i) on the unit torus.

    With periods (2, 1) the analytic census on the unit 2-torus is 4 minima,
    4 maxima and 8 saddles; see `cosine_product_census`.
    """
    vals = np.ones(vertices.shape[0])
    for axis, k in enumerate(periods):
        vals = vals * np.cos(2.0 * np.pi * k * vertices[:, axis])
    return vals


def cosine_product_census(periods: Sequence[int] = (2, 1)) -> Dict[int, int]:
    """Analytic critical counts of the cosine product on the unit 2-torus.

    Enumerates the zero set of the gradient directly: extrema sit where both
    sines vanish (2 k_i choices per axis), saddles where both cosines vanish.
    """
    kx, ky = (int(k) for k in periods)
    extrema = [
        (ix, iy)
        for ix in range(2 * kx)
        for iy in range(2 * ky)
    ]
    minima = sum(1 for ix, iy in extrema if (-1) ** (ix + iy) < 0)
    maxima = len(extrema) - minima
    saddles = (2 * kx) * (2 * ky)
    return {0: minima, 1: saddles, 2: maxima}
