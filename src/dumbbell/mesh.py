"""Simplicial meshes for unit-box spectral scenes.

Structured grids use the Kuhn/Freudenthal subdivision (2 triangles per
square, 6 tetrahedra per cube) so refinement is deterministic and meshes of
the same resolution are bit-identical across runs.  Curvature enters only
through a constant metric tensor per cell, which is enough to realize warped
products diag(1, w(rho)^2, ...) without curved elements.  Generic simplicial
meshes enter through a small ASCII format (see `load_mesh`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

Warp = Callable[[np.ndarray], np.ndarray]


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
class Mesh:
    """Simplicial mesh with an optional constant metric tensor per cell.

    Treated as immutable after construction; all derived quantities are pure
    functions of the stored arrays.
    """

    dim: int
    vertices: np.ndarray                         # (V, d)
    cells: np.ndarray                            # (C, d+1), positively oriented
    cell_metric: Optional[np.ndarray] = None     # (C, d, d) SPD, None = identity
    grid_resolution: Optional[tuple] = None      # per-axis cell counts (box scenes)
    periodic: bool = False                       # combinatorial torus, no geometry
    _facets: Optional[FacetTable] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(np.asarray(self.vertices, dtype=float))
        self.cells = np.ascontiguousarray(np.asarray(self.cells, dtype=np.int64))
        if self.cell_metric is not None:
            self.cell_metric = np.ascontiguousarray(np.asarray(self.cell_metric, dtype=float))

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_cells(self) -> int:
        return self.cells.shape[0]

    def edge_matrices(self) -> np.ndarray:
        """Per-cell (d, d) matrix whose rows are the edges v_i - v_0."""
        v = self.vertices[self.cells]
        return v[:, 1:, :] - v[:, :1, :]

    def signed_volumes(self) -> np.ndarray:
        """Euclidean signed volumes; positive for correctly oriented cells."""
        from math import factorial

        return np.linalg.det(self.edge_matrices()) / factorial(self.dim)

    def cell_volumes(self) -> np.ndarray:
        """Reference-metric volumes, sqrt(det g) times the Euclidean volume."""
        vol = np.abs(self.signed_volumes())
        if self.cell_metric is not None:
            vol = vol * np.sqrt(np.linalg.det(self.cell_metric))
        return vol

    def total_volume(self) -> float:
        return float(np.add.reduce(self.cell_volumes()))

    def barycenters(self) -> np.ndarray:
        return self.vertices[self.cells].mean(axis=1)

    def facet_table(self) -> FacetTable:
        if self._facets is None:
            self._facets = _build_facet_table(self.cells, self.dim)
        return self._facets

    @property
    def boundary_facets(self) -> np.ndarray:
        """(B, d) sorted facets with a single incident cell, lexicographic order."""
        table = self.facet_table()
        return table.facets[table.counts == 1]

    def cell_edges(self):
        """(a, b) endpoints of every local cell edge, pair-major (shared edges repeat)."""
        i, j = np.array(list(itertools.combinations(range(self.dim + 1), 2))).T
        return self.cells.T[i].reshape(-1), self.cells.T[j].reshape(-1)

    def interior_facet_pairs(self):
        """(facets, cell_pairs) for facets shared by exactly two cells."""
        table = self.facet_table()
        shared = table.counts == 2
        return table.facets[shared], table.cells_of[shared]

    def boundary_vertex_mask(self) -> np.ndarray:
        mask = np.zeros(self.num_vertices, dtype=bool)
        mask[self.boundary_facets.reshape(-1)] = True
        return mask

    def spacing(self) -> Optional[float]:
        """Grid spacing along the first axis for box scenes, else None."""
        if self.grid_resolution is None:
            return None
        return 1.0 / self.grid_resolution[0]


def _build_facet_table(cells: np.ndarray, dim: int) -> FacetTable:
    per_cell = dim + 1
    keep = [[j for j in range(per_cell) if j != i] for i in range(per_cell)]
    facets = np.sort(cells[:, keep].reshape(-1, dim), axis=1)
    order = np.lexsort(facets.T[::-1])  # stable, so owners ascend within a run
    facets = facets[order]
    owners = order // per_cell
    new_run = np.ones(order.size, dtype=bool)
    new_run[1:] = np.any(facets[1:] != facets[:-1], axis=1)
    starts = np.flatnonzero(new_run)
    counts = np.diff(np.append(starts, order.size))
    cells_of = np.full((starts.size, 2), -1, dtype=np.int64)
    cells_of[:, 0] = owners[starts]
    two = counts >= 2
    cells_of[two, 1] = owners[starts[two] + 1]
    return FacetTable(facets=facets[starts], counts=counts, cells_of=cells_of)


def _vertex_graph(mesh: Mesh) -> sparse.csr_matrix:
    rows, cols = mesh.cell_edges()
    data = np.ones(rows.shape[0], dtype=np.int8)
    n = mesh.num_vertices
    g = sparse.coo_matrix((data, (rows, cols)), shape=(n, n))
    return (g + g.T).tocsr()


def validate_mesh(mesh: Mesh) -> None:
    """Check every structural invariant, naming the violated one.

    Idempotent: a valid mesh revalidates silently.  Periodic meshes are
    combinatorial objects, so the geometric (orientation) check is skipped
    for them.
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
    if not mesh.periodic:
        signed = mesh.signed_volumes()
        bad = np.flatnonzero(signed <= 0)
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

    n_comp, _ = connected_components(_vertex_graph(mesh), directed=False)
    if n_comp != 1:
        raise MeshValidationError(f"disconnected mesh: {n_comp} components")


def _perm_sign(perm) -> int:
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _freudenthal_patterns() -> list:
    """Vertex-offset quadruples of the 6-tet cube split, positively oriented."""
    patterns = []
    for perm in itertools.permutations(range(3)):
        offs = [(0, 0, 0)]
        cur = [0, 0, 0]
        for axis in perm:
            cur[axis] += 1
            offs.append(tuple(cur))
        if _perm_sign(perm) < 0:
            offs[2], offs[3] = offs[3], offs[2]
        patterns.append(offs)
    return patterns


def build_box_grid(
    d: int,
    n,
    warp: Optional[Warp] = None,
    sigma_offset: float = 0.5,
) -> Mesh:
    """Mesh the unit box [0,1]^d with n cells per axis (scalar or per-axis).

    With ``warp`` given, each cell carries the tensor diag(1, w^2, ..., w^2)
    evaluated at the cell barycenter's first coordinate minus
    ``sigma_offset``, realizing the warped product metric drho^2 + w(rho)^2 dy^2.
    """
    if d not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {d}")
    res = tuple(int(k) for k in (n if np.ndim(n) else (n,) * d))
    if len(res) != d:
        raise ValueError(f"expected {d} per-axis resolutions, got {res}")
    if min(res) < 2:
        raise ValueError(f"resolution must be at least 2, got {min(res)}")

    grids = np.meshgrid(*[np.linspace(0.0, 1.0, k + 1) for k in res], indexing="ij")
    vertices = np.stack(grids, axis=-1).reshape(-1, d)
    shape = tuple(k + 1 for k in res)

    base = np.stack(
        np.meshgrid(*[np.arange(k) for k in res], indexing="ij"), axis=-1
    ).reshape(-1, d)

    def corner(offset):
        return np.ravel_multi_index(tuple((base + offset).T), shape)

    if d == 2:
        a = corner((0, 0))
        b = corner((1, 0))
        c = corner((1, 1))
        e = corner((0, 1))
        cells = np.concatenate(
            [np.stack([a, b, c], axis=1), np.stack([a, c, e], axis=1)]
        )
    else:
        blocks = []
        for offs in _freudenthal_patterns():
            blocks.append(np.stack([corner(o) for o in offs], axis=1))
        cells = np.concatenate(blocks)

    cell_metric = None
    if warp is not None:
        bary = vertices[cells].mean(axis=1)
        w = np.asarray(warp(bary[:, 0] - sigma_offset), dtype=float)
        if np.any(w <= 0):
            raise ValueError("non-positive warp sample")
        cell_metric = np.zeros((cells.shape[0], d, d))
        cell_metric[:, 0, 0] = 1.0
        for i in range(1, d):
            cell_metric[:, i, i] = w**2

    mesh = Mesh(
        dim=d,
        vertices=vertices,
        cells=cells,
        cell_metric=cell_metric,
        grid_resolution=res,
    )
    validate_mesh(mesh)
    return mesh


def periodic_unit_grid_2d(nx: int, ny: Optional[int] = None) -> Mesh:
    """Triangulated flat 2-torus on an nx-by-ny grid.

    Vertices carry fundamental-domain coordinates, so cells crossing the seam
    are geometric nonsense; only the combinatorics (links, adjacency) are
    meaningful.  Used by the critical-point benchmarks, rejected by assembly.
    """
    ny = nx if ny is None else ny
    if nx < 2 or ny < 2:
        raise ValueError("periodic grid needs at least 2 cells per axis")
    xs = np.arange(nx) / nx
    ys = np.arange(ny) / ny
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    vertices = np.stack([gx, gy], axis=-1).reshape(-1, 2)

    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    i, j = i.reshape(-1), j.reshape(-1)

    def vid(ii, jj):
        return (ii % nx) * ny + (jj % ny)

    a = vid(i, j)
    b = vid(i + 1, j)
    c = vid(i + 1, j + 1)
    e = vid(i, j + 1)
    cells = np.concatenate([np.stack([a, b, c], axis=1), np.stack([a, c, e], axis=1)])
    mesh = Mesh(
        dim=2,
        vertices=vertices,
        cells=cells,
        grid_resolution=(nx, ny),
        periodic=True,
    )
    validate_mesh(mesh)
    return mesh


@dataclass
class CellGradients:
    """Per-cell affine gradient operators in the cell metric.

    ``gradients[c] @ u[cells[c]]`` is the (coordinate) gradient of the P1
    interpolant on cell c; it reproduces affine fields exactly.  The metric
    norm uses the inverse tensor: |du|_g^2 = du . g^{-1} . du.
    """

    gradients: np.ndarray     # (C, d, d+1)
    metric_inv: np.ndarray    # (C, d, d)
    volumes: np.ndarray       # (C,) metric volumes

    def gradient_of(self, u: np.ndarray, cells: np.ndarray) -> np.ndarray:
        return np.einsum("cka,ca->ck", self.gradients, u[cells])

    def metric_norm_sq(self, grad: np.ndarray) -> np.ndarray:
        return np.einsum("ck,ckl,cl->c", grad, self.metric_inv, grad)


def simplex_gradient_data(mesh: Mesh) -> CellGradients:
    """Gradient operators, metric inverses and volumes for every cell."""
    if mesh.periodic:
        raise MeshValidationError("periodic meshes carry no usable geometry")
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
    if mesh.cell_metric is None:
        metric_inv = np.broadcast_to(np.eye(d), (mesh.num_cells, d, d)).copy()
    else:
        metric_inv = np.linalg.inv(mesh.cell_metric)
    return CellGradients(gradients=gradients, metric_inv=metric_inv, volumes=mesh.cell_volumes())


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
