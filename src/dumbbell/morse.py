"""Discrete critical points of vertex fields and Morse-count bounds.

A vertex is classified by the connectivity of its lower and upper links
(Banchoff's rule): no lower neighbors makes a minimum, no upper neighbors a
maximum, a disconnected lower (upper) link a saddle counted with
multiplicity components - 1.  Exact ties are broken lexicographically by
vertex id, the deterministic stand-in for a generic perturbation, so
plateaus cannot occur.

On a box grid or torus (a mesh with a ``grid_resolution``) every vertex has
the same star (Freudenthal 1942): 2(2^d - 1) neighbours at fixed offsets,
joined by 6 link edges in 2d and 36 in 3d.  A counted vertex's lower link is
then a bit mask over that star, and components are counted once per distinct
mask.  Any other mesh counts all links at once in one sparse graph.  Its
nodes are the directed mesh edges v -> a, numbered 2e + (v > a) from the
mesh's edge table; a link edge (a, b) of v joins v -> a and v -> b when a
and b lie on the same side of v.  Every component of that graph whose owner
v is counted is then one component of one lower or upper link.

Only vertex value ORDER matters; coordinates are never read.  A torus grid
has no boundary, so every vertex of it is counted.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from .mesh import Mesh, _kuhn_shapes, _vertex_shape, components

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
    half-open, so extrema there are artifacts of truncation).  Uncounted
    vertices keep 0 lower and upper components.  A non-finite ``u``, or a
    ``u`` or ``region`` whose length does not match the mesh, is a ValueError.
    """
    n = mesh.num_vertices
    u = np.asarray(u, dtype=float)
    if u.shape != (n,):
        raise ValueError(f"field has shape {u.shape}, expected ({n},): one value per vertex")
    if not np.isfinite(u).all():
        raise ValueError(f"field is not finite at vertex {int(np.argmin(np.isfinite(u)))}")
    if region is None:
        in_region = np.full(mesh.num_cells, True)
    else:
        in_region = np.asarray(region, dtype=bool)
        if in_region.shape != (mesh.num_cells,):
            raise ValueError(f"region has shape {in_region.shape}, expected ({mesh.num_cells},): one flag per cell")

    # vertices touched by cells outside the region have truncated stars
    counted = np.zeros(n, dtype=bool)
    counted[mesh.cells[in_region].reshape(-1)] = True
    counted[mesh.cells[~in_region].reshape(-1)] = False
    if not mesh.periodic:
        counted &= ~mesh.boundary_vertex_mask()

    # lexicographic tie rule: equal values ordered by vertex id, as a stable sort orders them
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(u, kind="stable")] = np.arange(n)

    links = _grid_links if mesh.grid_resolution is not None else _graph_links
    lower_comp, upper_comp = links(mesh, rank, counted)

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


@functools.lru_cache(maxsize=None)
def _kuhn_star(d: int) -> tuple:
    """(offsets, neighbours) of the one star every Kuhn-grid vertex has.  ``offsets`` (N, d)
    are the 2(2^d - 1) vertices of the star, +-o for each nonzero 0/1 vector o; a cell of
    it is a Kuhn shape translated to put one of its walk vertices at the centre, and every
    two other vertices of that cell span a link edge (6 in 2d, 36 in 3d).  ``neighbours``
    (N, degree) lists each star vertex, then its link neighbours, padded with the vertex."""
    link = set()
    for walk in _kuhn_shapes(d):
        for centre in walk:
            others = sorted(tuple(int(x) for x in w - centre) for w in walk if (w != centre).any())
            link.update(itertools.combinations(others, 2))
    offsets = sorted({o for edge in link for o in edge})
    adjacent = {o: [o] for o in offsets}
    for a, b in sorted(link):
        adjacent[a].append(b)
        adjacent[b].append(a)
    degree = max(len(a) for a in adjacent.values())
    index = {o: k for k, o in enumerate(offsets)}
    neighbours = [[index[w] for w in adjacent[o]] + [index[o]] * (degree - len(adjacent[o])) for o in offsets]
    return np.array(offsets), np.array(neighbours, dtype=np.intp)


def _grid_links(mesh: Mesh, rank: np.ndarray, counted: np.ndarray) -> tuple:
    """(lower, upper) link components per vertex on a box grid or torus: a counted vertex's
    lower set is a bit mask over the fixed `_kuhn_star`, and components are counted once per
    distinct mask, so no link edge of any vertex is built."""
    offsets, neighbours = _kuhn_star(mesh.dim)
    size = offsets.shape[0]
    shape = _vertex_shape(mesh.grid_resolution, mesh.periodic)
    v = np.flatnonzero(counted)
    at = np.unravel_index(v, shape)
    star = np.ravel_multi_index(
        tuple(c[:, None] + offsets[:, a] for a, c in enumerate(at)), shape, mode="wrap")  # a torus wraps
    below = rank[star] < rank[v][:, None]
    distinct, inverse = np.unique(below @ (1 << np.arange(size, dtype=np.int64)), return_inverse=True)
    lower = (distinct[:, None] >> np.arange(size, dtype=np.int64) & 1).astype(bool)
    comp = _set_components(np.vstack([lower, ~lower]), neighbours)
    lower_comp, upper_comp = np.zeros(mesh.num_vertices, np.int64), np.zeros(mesh.num_vertices, np.int64)
    lower_comp[v] = comp[: distinct.size][inverse]
    upper_comp[v] = comp[distinct.size:][inverse]
    return lower_comp, upper_comp


def _set_components(sets: np.ndarray, neighbours: np.ndarray) -> np.ndarray:
    """Per row of ``sets`` (U, N) bool, the components of the graph ``neighbours`` (N, degree)
    induced on the row's set: each member takes the least label among itself and its member
    neighbours until none changes, and a component keeps its least member's own label."""
    size = sets.shape[1]
    own = np.arange(size, dtype=np.int8)
    label = np.where(sets, own, np.int8(size))
    while True:
        lowest = np.where(sets, label[:, neighbours].min(axis=2), np.int8(size))
        if np.array_equal(lowest, label):
            return np.count_nonzero(label == own, axis=1)
        label = lowest


def _graph_links(mesh: Mesh, rank: np.ndarray, counted: np.ndarray) -> tuple:
    """(lower, upper) link components per vertex on any mesh, from one sparse link graph whose
    nodes are the directed edges of `Mesh.edge_table`."""
    n = mesh.num_vertices
    edges, cell_edges = mesh.edge_table()
    per = mesh.dim + 1
    slot = {ij: k for k, ij in enumerate(itertools.combinations(range(per), 2))}

    def node(i, j):  # directed edge from local vertex i to local vertex j of every cell
        return 2 * cell_edges[:, slot[min(i, j), max(i, j)]] + (mesh.cells[:, i] > mesh.cells[:, j])

    # every link edge (a, b) of every counted cell vertex v, as nodes v -> a, v -> b
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
    return lower_comp, upper_comp


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
