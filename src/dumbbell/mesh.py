"""Simplicial meshes for unit-box spectral scenes.

Structured grids use the Kuhn/Freudenthal subdivision (2 triangles per
square, 6 tetrahedra per cube) of the unit box or of the flat torus, so
refinement is deterministic and meshes of the same resolution are
bit-identical across runs.  Curvature enters only through a constant metric
tensor per cell, which is enough to realize warped products
diag(1, w(rho)^2, ...) without curved elements.  Every cell of a structured
grid translates one of d! Kuhn shapes, so its cell operators come from the
gradients of d! representative cells; they are also the mesh's one source of
cell volumes, which the collar partition reads.  The same translation gives a
grid its adjacency (edges, facet neighbours, boundary) by index arithmetic.
Generic simplicial meshes enter through a small ASCII format (see `load_mesh`),
get their operators cell by cell and their adjacency by sorting.  Every mesh
reads its K/M sparsity pattern off its edge table.
"""

from __future__ import annotations

import functools
import itertools
import threading
from dataclasses import dataclass, field
from math import factorial
from typing import Callable, Optional

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

Warp = Callable[[np.ndarray], np.ndarray]
_TABLES_LOCK = threading.RLock()  # one build of each cached table when sweep threads assemble at once


class MeshFormatError(ValueError):
    """Parse failure in the ASCII mesh format; knows the offending line."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MeshValidationError(ValueError):
    """A mesh violates one of its structural invariants."""


@dataclass
class FacetTable:
    """Unique facets of a mesh with their incident cells.

    ``cells_of[f]`` holds the one or two cells sharing facet ``f`` (-1 marks
    the missing side of a boundary facet).
    """

    facets: np.ndarray      # (F, d) sorted vertex indices
    counts: np.ndarray      # (F,) incidence count
    cells_of: np.ndarray    # (F, 2) incident cell indices, -1 padded


@dataclass
class CellOperators:
    """The part of P1 assembly that no conformal factor changes, built once per
    mesh by `Mesh.cell_operators`.  A symmetric matrix is held by its upper entries:
    one per vertex (the diagonal), then one per edge of `Mesh.edge_table`; a cell's
    ``local`` row is its diagonal, then its edges in ``cell_edges`` order.  A grid
    without a metric holds one row per Kuhn shape (its cells come in d! blocks of
    one shape each), any other mesh one row per cell; `rows` reads either."""

    local: np.ndarray               # (d! or C, d+1 + d(d+1)/2) local stiffness, reference metric
    volumes: np.ndarray             # (C,) metric volumes
    pattern: sparse.csr_matrix      # sparsity of K and M over all vertices
    gather: np.ndarray              # (nnz,) int32 upper entry of each stored entry

    def rows(self, cells: np.ndarray) -> np.ndarray:
        """The ``local`` rows of the given cell ids."""
        return self.local[cells // (self.volumes.size // self.local.shape[0])]


@dataclass
class Mesh:
    """Simplicial mesh with an optional constant metric tensor per cell.

    Treated as immutable after construction; all derived quantities are pure
    functions of the stored arrays.
    """

    dim: int
    vertices: np.ndarray                         # (V, d)
    cells: np.ndarray                            # (C, d+1), positively oriented
    cell_metric: Optional[np.ndarray] = None     # (C, d, d) SPD, None = identity
    grid_resolution: Optional[tuple] = None      # per-axis cell counts (the `build_box_grid` layout)
    periodic: bool = False                       # flat torus: ids wrap per axis, edges mod 1
    _facets: Optional[FacetTable] = field(default=None, init=False, repr=False, compare=False)
    _edges: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _pairs: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    _operators: Optional[CellOperators] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(np.asarray(self.vertices, dtype=float))
        self.cells = np.ascontiguousarray(np.asarray(self.cells, dtype=np.int64))
        if self.cell_metric is not None:
            self.cell_metric = np.ascontiguousarray(np.asarray(self.cell_metric, dtype=float))
        if self.grid_resolution is not None:
            _check_grid_layout(self)

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_cells(self) -> int:
        return self.cells.shape[0]

    def edge_matrices(self) -> np.ndarray:
        """Per-cell (d, d) matrix whose rows are the edges v_i - v_0.  On a torus
        every edge is shorter than 1/2 per axis, so its true vector is the
        fundamental-domain difference mod 1."""
        v = self.vertices[self.cells]
        e = v[:, 1:, :] - v[:, :1, :]
        return e - np.round(e) if self.periodic else e

    def signed_volumes(self) -> np.ndarray:
        """Euclidean signed volumes; positive for correctly oriented cells."""
        return np.linalg.det(self.edge_matrices()) / factorial(self.dim)

    def facet_table(self) -> FacetTable:
        """All facets by sorting, for any mesh: the boundary and validation of a file
        mesh read it; a grid's scene path never builds it."""
        if self._facets is None:
            self._facets = _build_facet_table(self.cells, self.dim)
        return self._facets

    @property
    def boundary_facets(self) -> np.ndarray:
        """(B, d) sorted facets with a single incident cell, lexicographic order."""
        table = self.facet_table()
        return table.facets[table.counts == 1]

    def edge_table(self) -> tuple:
        """(edges, cell_edges): unique (low, high) edges (E, 2) in lexicographic order
        and each cell's edge ids (C, d(d+1)/2), local pairs in `itertools.combinations` order.
        A grid reads both off its Kuhn shapes; any other mesh sorts its cells' edges."""
        with _TABLES_LOCK:
            if self._edges is None:
                if self.grid_resolution is None:
                    self._edges = _build_edge_table(self.cells, self.dim, self.num_vertices)
                else:
                    self._edges = _grid_edge_table(self)
            return self._edges

    def cell_operators(self) -> CellOperators:
        """The mesh's `CellOperators`, built on first use."""
        with _TABLES_LOCK:
            if self._operators is None:
                self._operators = _build_operators(self)
            return self._operators

    def interior_cell_pairs(self) -> np.ndarray:
        """(P, 2) int32: the two cells of each facet shared by two cells.  A grid
        reads them off the Kuhn neighbour table; any other mesh off its facet table."""
        with _TABLES_LOCK:
            if self._pairs is None:
                if self.grid_resolution is None:
                    table = self.facet_table()
                    self._pairs = table.cells_of[table.counts == 2].astype(np.int32)
                else:
                    self._pairs = _grid_cell_pairs(self.dim, self.grid_resolution, self.periodic)
            return self._pairs

    def shared_facets(self, pairs: np.ndarray) -> np.ndarray:
        """(P, d): the vertices each of the given pairs of cells shares, found on each call."""
        first, second = self.cells[pairs[:, 0]], self.cells[pairs[:, 1]]
        shared = (first[:, :, None] == second[:, None, :]).any(axis=2)
        return first[shared].reshape(-1, self.dim)

    def boundary_vertex_mask(self) -> np.ndarray:
        """Vertices on a boundary facet: a box grid's outer index layer, no torus vertex."""
        if self.grid_resolution is None:
            mask = np.zeros(self.num_vertices, dtype=bool)
            mask[self.boundary_facets.reshape(-1)] = True
            return mask
        shape = _vertex_shape(self.grid_resolution, self.periodic)
        mask = np.full(shape, not self.periodic)
        mask[tuple(slice(1, -1) for _ in shape)] = False
        return mask.reshape(-1)

    def spacing(self) -> Optional[float]:
        """Grid spacing along the first axis for box scenes, else None."""
        if self.grid_resolution is None:
            return None
        return 1.0 / self.grid_resolution[0]


def _build_facet_table(cells: np.ndarray, dim: int) -> FacetTable:
    per_cell = dim + 1
    keep = [[j for j in range(per_cell) if j != i] for i in range(per_cell)]
    base = int(cells.max()) + 1 if cells.size else 1
    if base**dim >= 2**63:
        raise MeshValidationError(f"{base} vertices: facet keys need vertices**{dim} < 2**63 (3d: 2,097,151)")
    # a sorted cell less one vertex is a sorted facet; keyed in base `base`, key order is row order
    powers = base ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    keys = (np.sort(cells, axis=1)[:, keep] @ powers).reshape(-1)
    order = np.argsort(keys, kind="stable")  # owners ascend within a run
    keys = keys[order]
    owners = order // per_cell
    new_run = np.ones(order.size, dtype=bool)
    new_run[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(new_run)
    counts = np.diff(np.append(starts, order.size))
    cells_of = np.full((starts.size, 2), -1, dtype=np.int64)
    cells_of[:, 0] = owners[starts]
    two = counts >= 2
    cells_of[two, 1] = owners[starts[two] + 1]
    facets = keys[starts, None] // powers % base
    return FacetTable(facets=facets, counts=counts, cells_of=cells_of)


def _build_edge_table(cells: np.ndarray, dim: int, num_vertices: int):
    i, j = np.array(list(itertools.combinations(range(dim + 1), 2))).T
    a, b = cells[:, i], cells[:, j]
    keys = np.minimum(a, b) * num_vertices + np.maximum(a, b)
    uniq, cell_edges = np.unique(keys, return_inverse=True)
    return np.stack(np.divmod(uniq, num_vertices), axis=1), cell_edges.reshape(keys.shape)


def _build_operators(mesh: Mesh) -> CellOperators:
    d, n = mesh.dim, mesh.num_vertices
    edges, _ = mesh.edge_table()
    diag, ids = np.arange(n, dtype=np.int32), np.arange(n, n + edges.shape[0], dtype=np.int32)
    rows, cols = np.concatenate([diag, edges[:, 0], edges[:, 1]]), np.concatenate([diag, edges[:, 1], edges[:, 0]])
    # each stored entry carries its upper entry's id plus 1 (none is 0); the conversion sorts each row
    pattern = sparse.csr_matrix((np.concatenate([diag, ids, ids]) + 1, (rows, cols)), shape=(n, n))
    del diag, ids, rows, cols
    gather = pattern.data - 1
    pattern.data = np.zeros(gather.size, dtype=np.int8)

    i, j = np.triu_indices(d + 1, 1)  # the `itertools.combinations` order of `cell_edges`
    a, b = np.concatenate([np.arange(d + 1), i]), np.concatenate([np.arange(d + 1), j])
    cm, C = mesh.cell_metric, mesh.num_cells
    if mesh.grid_resolution is None or (cm is not None and np.count_nonzero(cm) > d * C):  # not diagonal
        G, ginv, vol = simplex_gradient_data(mesh)
        stiff = (G.swapaxes(1, 2) @ ginv @ G) * vol[:, None, None]
        del G, ginv
        local = 0.5 * (stiff[:, a, b] + stiff[:, b, a])  # exact symmetry
        return CellOperators(local=local, volumes=vol, pattern=pattern, gather=gather)
    # a box grid is d! blocks of one Kuhn shape each: with shape k's terms T_ki = vol_k g_ki' g_ki
    # (g_ki row i of its gradient), a cell of metric diag(m) has stiffness sum_i sqrt(det m) / m_i T_ki,
    # which without a metric is one row per shape
    shapes = factorial(d)
    block = C // shapes
    G, _, vol = simplex_gradient_data(Mesh(d, mesh.vertices, mesh.cells[::block], periodic=mesh.periodic))
    T = vol[:, None, None] * G[:, :, a] * G[:, :, b]  # (d!, d, local entries)
    m = np.ones((shapes, 1, d)) if cm is None else np.diagonal(cm, axis1=1, axis2=2).reshape(shapes, block, d)
    root = np.sqrt(np.prod(m, axis=2, keepdims=True))
    local = (root / m @ T).reshape(-1, a.size)
    volumes = np.broadcast_to(vol[:, None] * root[..., 0], (shapes, block)).reshape(C)
    return CellOperators(local=local, volumes=volumes, pattern=pattern, gather=gather)


def _vertex_shape(res: tuple, periodic: bool) -> tuple:
    """Vertex counts per axis of a grid with ``res`` cells per axis: a torus wraps the last layer."""
    return tuple(res) if periodic else tuple(k + 1 for k in res)


def _row_major_strides(shape) -> np.ndarray:
    return np.cumprod((tuple(shape[1:]) + (1,))[::-1])[::-1]


def _grid_edge_table(mesh: Mesh) -> tuple:
    """`Mesh.edge_table` of a grid with no sort.  Every edge joins a vertex v to v + o for a
    nonzero 0/1 offset o, numbered by v, then by o in increasing row-major stride, which on a
    box is the lexicographic order; a torus wraps ids, so it orders each edge (low, high) and
    sorts the keys once.  Local pair (a, b) of shape k is the edge from its lower walk vertex
    by the offset |w_a - w_b| (a walk is a chain, so one of the two lies below the other)."""
    d, shape = mesh.dim, _vertex_shape(mesh.grid_resolution, mesh.periodic)
    offsets = np.array(list(itertools.product((0, 1), repeat=d)))[1:]  # axis 0 is the high bit
    up = np.ones(shape + (len(offsets),), dtype=bool)  # v + o is a vertex (on a torus always: ids wrap)
    if not mesh.periodic:
        for axis in range(d):
            up[(slice(None),) * axis + (-1,)][..., offsets[:, axis] == 1] = False
    up = up.reshape(-1, len(offsets))
    low, step = np.nonzero(up)
    if mesh.periodic:
        high = np.ravel_multi_index(tuple(np.unravel_index(low, shape) + offsets[step].T), shape, mode="wrap")
        low, high = np.minimum(low, high), np.maximum(low, high)
        order = np.argsort(low * mesh.num_vertices + high)
        low, high = low[order], high[order]
        ids = np.empty(order.size, dtype=np.int32)
        ids[order] = np.arange(order.size, dtype=np.int32)
        del order
    else:
        high = low + (offsets @ _row_major_strides(shape))[step]
        ids = np.cumsum(up.reshape(-1), dtype=np.int32) - 1  # garbage where no edge: never read
    del step
    ids = ids.reshape(up.shape)
    edges = np.stack([low, high], axis=1).astype(np.int32)
    del low, high

    pairs = list(itertools.combinations(range(d + 1), 2))
    cells = mesh.cells.reshape(factorial(d), -1, d + 1)
    cell_edges = np.empty(cells.shape[:2] + (len(pairs),), dtype=np.int32)
    for k, walk in enumerate(_kuhn_shapes(d)):
        for p, (a, b) in enumerate(pairs):
            lo, hi = (a, b) if walk[a].sum() < walk[b].sum() else (b, a)
            offset = int((walk[hi] - walk[lo]) @ (1 << np.arange(d)[::-1]))  # its row in `offsets`, plus 1
            cell_edges[k, :, p] = ids[cells[k, :, lo], offset - 1]
    return edges, cell_edges.reshape(-1, len(pairs))


@functools.lru_cache(maxsize=None)
def _kuhn_neighbours(d: int) -> tuple:
    """For each Kuhn shape k (in `_kuhn_shapes` order) and each facet w, the one opposite walk
    vertex w: (k', axis, step), the shape across it in the cube ``step`` (0, +1 or -1) cells
    along ``axis``.  The Kuhn rule on the walk pi of shape k: for 0 < w < d the same cube, pi
    with steps w and w+1 swapped; for w = 0 the cube at +e_pi1, walk (pi2 ... pid, pi1); for
    w = d the cube at -e_pid, walk (pid, pi1 ... pid-1)."""
    perms = list(itertools.permutations(range(d)))
    table = []
    for perm in perms:
        row = [(perms.index(perm[1:] + perm[:1]), perm[0], 1)]
        for w in range(1, d):
            swapped = list(perm)
            swapped[w - 1], swapped[w] = swapped[w], swapped[w - 1]
            row.append((perms.index(tuple(swapped)), 0, 0))
        row.append((perms.index(perm[-1:] + perm[:-1]), perm[-1], -1))
        table.append(tuple(row))
    return tuple(table)


def _grid_cell_pairs(d: int, res: tuple, periodic: bool) -> np.ndarray:
    """`Mesh.interior_cell_pairs` of a grid from `_kuhn_neighbours`, with no search: each
    facet inside a cube once, from its lower shape, and each facet between cubes once, from
    the shape whose cube lies below along the axis (a box has none past its last layer)."""
    block = int(np.prod(res))
    cube = np.arange(block, dtype=np.int32)
    strides = _row_major_strides(res)  # of the cube ids
    pairs = []
    for k, row in enumerate(_kuhn_neighbours(d)):
        for other, axis, step in row:
            if step == 0 and k < other:
                pairs.append(np.stack([k * block + cube, other * block + cube], axis=1))
            elif step == 1:
                last = cube // strides[axis] % res[axis] == res[axis] - 1
                there = cube + np.int32(strides[axis]) - last * np.int32(res[axis] * strides[axis])  # wraps
                pair = np.stack([k * block + cube, other * block + there], axis=1)
                pairs.append(pair if periodic else pair[~last])
    return np.concatenate(pairs)


def validate_mesh(mesh: Mesh) -> None:
    """Check every structural invariant, naming the violated one.

    Idempotent: a valid mesh revalidates silently.  Orientation is checked on
    the true edge vectors (`Mesh.edge_matrices`), so torus grids get it too.
    """
    cells = mesh.cells
    if cells.size and (cells.min() < 0 or cells.max() >= mesh.num_vertices):
        raise MeshValidationError("vertex index out of range")
    used = np.zeros(mesh.num_vertices, dtype=bool)
    used[cells.reshape(-1)] = True
    if not used.all():
        raise MeshValidationError(f"dangling vertex: {int(np.flatnonzero(~used)[0])} unused")
    ordered = np.sort(cells, axis=1)
    repeats = np.flatnonzero(np.any(ordered[:, 1:] == ordered[:, :-1], axis=1))
    if repeats.size:
        raise MeshValidationError(f"orientation: cell {int(repeats[0])} repeats a vertex")
    bad = np.flatnonzero(~np.isfinite(mesh.vertices).all(axis=1))
    if bad.size:
        raise MeshValidationError(f"non-finite coordinate: vertex {int(bad[0])}")
    if mesh.cell_metric is not None:
        bad = np.flatnonzero(~np.isfinite(mesh.cell_metric).reshape(mesh.num_cells, -1).all(axis=1))
        if bad.size:
            raise MeshValidationError(f"non-finite metric: cell {int(bad[0])}")
    bad = np.flatnonzero(mesh.signed_volumes() <= 0)
    if bad.size:
        raise MeshValidationError(f"orientation: cell {int(bad[0])} has non-positive volume")
    if mesh.cell_metric is not None:
        bad = np.flatnonzero(np.linalg.eigvalsh(mesh.cell_metric).min(axis=1) <= 0)
        if bad.size:
            raise MeshValidationError(f"metric not positive definite: cell {int(bad[0])}")

    table = mesh.facet_table()
    if np.any(table.counts > 2):
        f = table.facets[np.argmax(table.counts > 2)]
        raise MeshValidationError(f"non-manifold facet: {tuple(int(i) for i in f)}")

    n_comp, _ = components(mesh.num_vertices, *mesh.edge_table()[0].T)
    if n_comp != 1:
        raise MeshValidationError(f"disconnected mesh: {n_comp} components")


def components(n: int, i: np.ndarray, j: np.ndarray) -> tuple:
    """(count, labels) of the connected components of the undirected graph on
    nodes 0..n-1 with an edge i[k] - j[k] for each k."""
    graph = sparse.coo_matrix((np.ones(len(i), dtype=np.int8), (i, j)), shape=(n, n))
    return connected_components(graph, directed=False)


def _kuhn_shapes(d: int) -> list:
    """Vertex offsets (d+1, d) of the d! Kuhn simplices of the unit cube, in
    `itertools.permutations` order: each walks from the origin one axis at a time,
    and an odd walk swaps its last two vertices, so every shape is positively
    oriented (Freudenthal, Ann. of Math. 43, 1942; Bey, Numer. Math. 85, 2000)."""
    shapes = []
    for perm in itertools.permutations(range(d)):
        walk = np.vstack([np.zeros(d, dtype=np.int64), np.eye(d, dtype=np.int64)[list(perm)].cumsum(axis=0)])
        if sum(a > b for a, b in itertools.combinations(perm, 2)) % 2:
            walk[[-2, -1]] = walk[[-1, -2]]
        shapes.append(walk)
    return shapes


def _check_grid_layout(mesh: Mesh) -> None:
    """The `build_box_grid` layout that a ``grid_resolution`` promises and every closed-form
    table reads: d! blocks of prod(res) cells, one vertex per grid point, and each block's
    first cell its Kuhn shape at cube 0.  O(d!): the cells past each block's first are
    trusted."""
    d, res = mesh.dim, tuple(mesh.grid_resolution)
    if len(res) != d:
        raise MeshValidationError(f"grid_resolution {res} does not give {d} axes")
    shape = _vertex_shape(res, mesh.periodic)
    block, points = int(np.prod(res)), int(np.prod(shape))
    if mesh.num_cells != factorial(d) * block or mesh.num_vertices != points:
        raise MeshValidationError(
            f"grid_resolution {res}: expected {factorial(d) * block} cells and {points} vertices, "
            f"got {mesh.num_cells} and {mesh.num_vertices}")
    first = np.array([np.ravel_multi_index(tuple(walk.T), shape, mode="wrap") for walk in _kuhn_shapes(d)])
    if not np.array_equal(mesh.cells[::block], first):
        raise MeshValidationError(f"grid_resolution {res}: a shape block does not start with its Kuhn shape")


def build_box_grid(
    d: int,
    n,
    warp: Optional[Warp] = None,
    sigma_offset: float = 0.5,
    periodic: bool = False,
) -> Mesh:
    """Mesh the unit box [0,1]^d with n cells per axis (scalar or per-axis).

    With ``warp`` given, each cell carries the tensor diag(1, w^2, ..., w^2)
    evaluated at the cell barycenter's first coordinate minus
    ``sigma_offset``, realizing the warped product metric drho^2 + w(rho)^2 dy^2.
    With ``periodic``, the flat torus R^d / Z^d: the Kuhn split is invariant under
    integer translations, so vertex ids wrap per axis (at least 3 cells each, so no
    edge is glued to itself) and `Mesh.edge_matrices` takes edge vectors mod 1.
    Valid by construction (its simplices translate d! positively oriented shapes), so
    not run through `validate_mesh`; a warp sample that is not positive and finite,
    squared too, is a ValueError.  Its adjacency tables are built on first use, from
    ``grid_resolution`` and the Kuhn shapes, so its cells must keep this layout.
    """
    if d not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {d}")
    res = tuple(int(k) for k in (n if np.ndim(n) else (n,) * d))
    if len(res) != d:
        raise ValueError(f"expected {d} per-axis resolutions, got {res}")
    least = 3 if periodic else 2
    if min(res) < least:
        raise ValueError(f"resolution must be at least {least}, got {min(res)}")
    if periodic and warp is not None:
        raise ValueError("a warp is not periodic")

    shape = _vertex_shape(res, periodic)
    grids = np.meshgrid(*[np.linspace(0.0, 1.0, k + 1)[:s] for k, s in zip(res, shape)], indexing="ij")
    vertices = np.stack(grids, axis=-1).reshape(-1, d)

    # corner j of shape k in cube c is c + walk_kj, for all (k, c, j) at once: each axis's
    # coordinate broadcasts over the other axes, so only the cells are ever full size
    walks = np.array(_kuhn_shapes(d))  # (d!, d+1, d)
    corners = tuple(
        np.arange(k).reshape([1] + [k if b == a else 1 for b in range(d)] + [1])
        + walks[:, :, a].reshape([-1] + [1] * d + [d + 1])
        for a, k in enumerate(res)
    )
    cells = np.ravel_multi_index(corners, shape, mode="wrap").reshape(-1, d + 1)

    cell_metric = None
    if warp is not None:
        bary = vertices[cells].mean(axis=1)
        w = np.asarray(warp(bary[:, 0] - sigma_offset), dtype=float)
        with np.errstate(over="ignore"):  # an overflowing square is rejected below
            w2 = w**2
        if not np.all((w > 0) & (w2 > 0) & (w2 < np.inf)):
            raise ValueError("warp sample not positive and finite")
        cell_metric = np.zeros((cells.shape[0], d, d))
        cell_metric[:, 0, 0] = 1.0
        for i in range(1, d):
            cell_metric[:, i, i] = w2

    return Mesh(
        dim=d,
        vertices=vertices,
        cells=cells,
        cell_metric=cell_metric,
        grid_resolution=res,
        periodic=periodic,
    )


def simplex_gradient_data(mesh: Mesh) -> tuple:
    """(gradients, metric_inv, volumes) of every cell: ``gradients[c] @ u[cells[c]]``
    (C, d, d+1) is the coordinate gradient of the P1 interpolant on cell c, exact on
    affine fields; ``metric_inv`` (C, d, d) gives |du|_g^2 = du . g^{-1} . du, and
    ``volumes`` (C,) are the metric volumes."""
    d = mesh.dim
    edges = mesh.edge_matrices()
    dets = np.linalg.det(edges)
    if np.any(np.abs(dets) < 1e-300):
        raise MeshValidationError(f"degenerate cell: {int(np.argmin(np.abs(dets)))}")
    einv = np.linalg.inv(edges)
    # difference operator: (u_1 - u_0, ..., u_d - u_0)
    diff = np.zeros((d, d + 1))
    diff[:, 0] = -1.0
    diff[:, 1:] = np.eye(d)
    gradients = np.einsum("ckl,la->cka", einv, diff)
    volumes = np.abs(dets / factorial(d))
    if mesh.cell_metric is None:
        metric_inv = np.broadcast_to(np.eye(d), (mesh.num_cells, d, d)).copy()
    else:
        metric_inv = np.linalg.inv(mesh.cell_metric)
        volumes = volumes * np.sqrt(np.linalg.det(mesh.cell_metric))
    return gradients, metric_inv, volumes


def save_mesh(mesh: Mesh, path) -> None:
    """Write the ASCII format: dim, vertices, cells, optional metric block."""
    d = mesh.dim
    lines = [f"dim {d}", f"vertices {mesh.num_vertices}"]
    for v in mesh.vertices:
        lines.append(" ".join(repr(float(x)) for x in v))
    lines.append(f"cells {mesh.num_cells}")
    for c in mesh.cells:
        lines.append(" ".join(str(int(i)) for i in c))
    if mesh.cell_metric is not None:
        lines.append(f"metric {mesh.num_cells}")
        iu = np.triu_indices(d)
        for g in mesh.cell_metric:
            lines.append(" ".join(repr(float(x)) for x in g[iu]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_mesh(path) -> Mesh:
    """Read the ASCII format and validate the result."""
    tokens = []  # (line_number, token)
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0]
            for tok in text.split():
                tokens.append((ln, tok))
    pos = 0

    def take(expect: Optional[str] = None) -> tuple:
        nonlocal pos
        if pos >= len(tokens):
            last = tokens[-1][0] if tokens else 1
            raise MeshFormatError("unexpected end of file", line=last)
        ln, tok = tokens[pos]
        pos += 1
        if expect is not None and tok != expect:
            raise MeshFormatError(f"expected '{expect}', got '{tok}'", line=ln)
        return ln, tok

    def take_int(what: str) -> int:
        ln, tok = take()
        try:
            return int(tok)
        except ValueError:
            raise MeshFormatError(f"bad {what}: '{tok}'", line=ln) from None

    def take_count(what: str) -> int:
        n = take_int(what)
        if n < 1:
            raise MeshFormatError(f"{what} must be positive, got {n}", line=tokens[pos - 1][0])
        return n

    def take_index() -> int:
        i = take_int("vertex index")
        if not 0 <= i < nv:
            raise MeshValidationError("vertex index out of range")
        return i

    def take_float(what: str) -> float:
        ln, tok = take()
        try:
            return float(tok)
        except ValueError:
            raise MeshFormatError(f"bad {what}: '{tok}'", line=ln) from None

    take("dim")
    d = take_int("dimension")
    if d < 2:
        raise MeshFormatError(f"dimension must be >= 2, got {d}", line=tokens[pos - 1][0])
    take("vertices")
    nv = take_count("vertex count")
    vertices = np.array([[take_float("coordinate") for _ in range(d)] for _ in range(nv)])
    take("cells")
    nc = take_count("cell count")
    cells = np.array([[take_index() for _ in range(d + 1)] for _ in range(nc)], dtype=np.int64)
    cell_metric = None
    if pos < len(tokens):
        take("metric")
        nm = take_int("metric count")
        if nm != nc:
            raise MeshFormatError(f"metric block has {nm} rows, expected {nc}", line=tokens[pos - 1][0])
        rows, cols = np.triu_indices(d)
        vals = np.array([[take_float("metric entry") for _ in rows] for _ in range(nc)])
        cell_metric = np.zeros((nc, d, d))
        cell_metric[:, rows, cols] = vals
        cell_metric[:, cols, rows] = vals
    if pos < len(tokens):
        raise MeshFormatError(f"trailing data '{tokens[pos][1]}'", line=tokens[pos][0])

    mesh = Mesh(dim=d, vertices=vertices, cells=cells, cell_metric=cell_metric)
    validate_mesh(mesh)
    return mesh
