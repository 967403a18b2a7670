import ast
import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import eigsh

from dumbbell import mesh
from dumbbell.assembly import assemble
from dumbbell.eigen import solve_smallest
from dumbbell.experiments import _parse_warp
from dumbbell.mesh import (
    Mesh,
    MeshFormatError,
    MeshValidationError,
    build_box_grid,
    load_mesh,
    save_mesh,
    simplex_gradient_data,
    validate_mesh,
)
from dumbbell.morse import classify_critical_points
from dumbbell.nodal import extract_nodal_set


def test_box_grid_counts():
    m = build_box_grid(3, 4)
    assert m.num_vertices == 125
    assert m.num_cells == 384
    assert m.boundary_facets.shape == (12 * 16, 3)  # 2 triangles per face square


def test_box_grid_per_axis_resolutions():
    m = build_box_grid(3, (4, 3, 2))
    assert m.num_vertices == 5 * 4 * 3
    assert m.num_cells == 6 * 4 * 3 * 2
    assert m.cell_operators().volumes.sum() == pytest.approx(1.0, abs=1e-12)
    assert m.grid_resolution == (4, 3, 2)
    assert m.spacing() == pytest.approx(0.25)
    with pytest.raises(ValueError, match="per-axis"):
        build_box_grid(3, (4, 3))


def test_box_grid_flat_volume_exact():
    m = build_box_grid(3, 4)
    assert m.cell_operators().volumes.sum() == pytest.approx(1.0, abs=1e-12)
    m2 = build_box_grid(2, 7)
    assert m2.cell_operators().volumes.sum() == pytest.approx(1.0, abs=1e-12)


def test_warped_volume_matches_1d_integral():
    # exact: int_0^1 (1 + (x - 1/2))^2 dx = 1 + 1/12
    m = build_box_grid(3, 8, warp=lambda r: 1.0 + r, sigma_offset=0.5)
    exact = 1.0 + 1.0 / 12.0
    assert abs(m.cell_operators().volumes.sum() - exact) / exact < 0.01


def test_volume_additivity_under_refinement():
    errs = []
    for n in (8, 16):
        m = build_box_grid(3, n, warp=lambda r: 1.0 + r, sigma_offset=0.5)
        errs.append(abs(m.cell_operators().volumes.sum() - (1.0 + 1.0 / 12.0)))
    assert errs[1] < errs[0] / 3.0  # O(n^-2)


def test_resolution_validation():
    with pytest.raises(ValueError, match="at least 2"):
        build_box_grid(3, 1)
    with pytest.raises(ValueError, match="warp"):
        build_box_grid(3, 4, warp=lambda r: -np.ones_like(r))
    with pytest.raises(ValueError, match="dimension"):
        build_box_grid(4, 4)
    with pytest.raises(ValueError, match="not periodic"):
        build_box_grid(3, 4, warp=lambda r: 1.0 + r, periodic=True)


def _gradients(m, u):
    G, ginv, _ = simplex_gradient_data(m)
    return np.einsum("cka,ca->ck", G, u[m.cells]), ginv


def test_gradient_affine_reproduction(box8):
    rng = np.random.default_rng(3)
    a = rng.standard_normal(3)
    g, _ = _gradients(box8, box8.vertices @ a + 1.7)
    assert np.abs(g - a).max() < 1e-13


def test_gradient_constant_field(box8):
    g, _ = _gradients(box8, np.full(box8.num_vertices, 4.2))
    assert np.abs(g).max() < 1e-13


def test_gradient_metric_norm():
    m = build_box_grid(3, 2)
    cm = np.tile(np.diag([4.0, 1.0, 1.0]), (m.num_cells, 1, 1))
    warped = Mesh(3, m.vertices, m.cells, cell_metric=cm,
                  grid_resolution=(2, 2, 2))
    g, ginv = _gradients(warped, warped.vertices[:, 0])
    assert np.abs(np.einsum("ck,ckl,cl->c", g, ginv, g) - 0.25).max() < 1e-13


def test_single_tetrahedron_file(tmp_path):
    path = tmp_path / "tet.mesh"
    path.write_text(
        "# one tetrahedron\n"
        "dim 3\nvertices 4\n"
        "0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
        "cells 1\n0 1 2 3\n"
    )
    m = load_mesh(path)
    assert m.num_vertices == 4
    assert m.num_cells == 1
    assert m.boundary_facets.shape[0] == 4


def test_load_rejects_bad_vertex_index(tmp_path):
    path = tmp_path / "bad.mesh"
    path.write_text("dim 3\nvertices 4\n0 0 0\n1 0 0\n0 1 0\n0 0 1\ncells 1\n0 1 2 7\n")
    with pytest.raises(MeshValidationError, match="vertex index out of range"):
        load_mesh(path)


def test_load_parse_error_carries_line(tmp_path):
    path = tmp_path / "bad.mesh"
    path.write_text("dim 3\nvertices 1\n0 0 oops\n")
    with pytest.raises(MeshFormatError, match="line 3"):
        load_mesh(path)


def test_round_trip_identity(tmp_path):
    m = build_box_grid(3, 2)
    path = tmp_path / "grid.mesh"
    save_mesh(m, path)
    loaded = load_mesh(path)
    assert np.array_equal(loaded.vertices, m.vertices)
    assert np.array_equal(loaded.cells, m.cells)


def test_round_trip_with_metric(tmp_path):
    m = build_box_grid(3, 4, warp=lambda r: 1.0 + 0.5 * r, sigma_offset=0.5)
    path = tmp_path / "warped.mesh"
    save_mesh(m, path)
    loaded = load_mesh(path)
    assert np.array_equal(loaded.cell_metric, m.cell_metric)


def test_validation_idempotent(box8):
    validate_mesh(box8)
    validate_mesh(box8)  # second pass must stay silent


def test_orientation_violation_detected():
    m = build_box_grid(3, 2)
    cells = m.cells.copy()
    cells[0, [0, 1]] = cells[0, [1, 0]]  # flip one cell
    bad = Mesh(3, m.vertices, cells)
    with pytest.raises(MeshValidationError, match="orientation"):
        validate_mesh(bad)


def test_dangling_vertex_detected():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [5, 5, 5]], dtype=float)
    cells = np.array([[0, 1, 2, 3]])
    bad = Mesh(3, verts, cells)
    with pytest.raises(MeshValidationError, match="dangling vertex"):
        validate_mesh(bad)


def test_non_manifold_facet_detected():
    # three tetrahedra glued along one shared triangle
    verts = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0.3, 0.3, -1], [1, 1, 1]],
        dtype=float,
    )
    cells = np.array([[0, 1, 2, 3], [0, 2, 1, 4], [0, 1, 2, 5]])
    bad = Mesh(3, verts, cells)
    with pytest.raises(MeshValidationError, match="non-manifold"):
        validate_mesh(bad)


def test_interior_facets_pair_exactly(box8):
    table = box8.facet_table()
    assert set(np.unique(table.counts)) == {1, 2}


def test_periodic_grid_is_closed():
    m = build_box_grid(2, 6, periodic=True)
    assert m.boundary_facets.shape[0] == 0
    table = m.facet_table()
    assert np.all(table.counts == 2)
    # V - E + F of the torus
    assert m.num_vertices - table.facets.shape[0] + m.num_cells == 0


@pytest.mark.parametrize("shape", [(32, 32), (128, 128), (12, 9), (4, 3), (32, 16)])
def test_torus_cells_follow_the_row_major_formula(shape):
    # the census and `cosine-benchmark-counts` read these ids and this split
    nx, ny = shape
    m = build_box_grid(2, shape, periodic=True)
    i, j = (a.reshape(-1) for a in np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij"))

    def vid(ii, jj):
        return (ii % nx) * ny + (jj % ny)

    a, b, c, e = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
    assert np.array_equal(m.cells, np.concatenate([np.stack([a, b, c], 1), np.stack([a, c, e], 1)]))
    # the builder's linspace differs from i / n in the last bit, except at powers of two
    ref = np.stack([i / nx, j / ny], 1)
    exact = all(k & (k - 1) == 0 for k in shape)
    assert np.abs(m.vertices - ref).max() <= (0.0 if exact else 1e-15)


@pytest.mark.parametrize("d, n, mult", [(2, 32, 4), (3, 12, 6)])
def test_torus_pairs_match_arpack(d, n, mult):
    # the flat torus R^d / Z^d: lambda1 = 4 pi^2 with eigenfunctions cos and sin
    # of 2 pi x_i, so multiplicity 2d; the next eigenvalue is 8 pi^2
    pair = assemble(build_box_grid(d, n, periodic=True))
    assert pair.grid is None  # the V-cycle prolongation does not wrap
    assert pair.M.sum() == pytest.approx(1.0, rel=1e-12)
    m = mult + 2
    res = solve_smallest(pair, m)
    v0 = np.random.default_rng(1).standard_normal(pair.n_dof)
    ref = np.sort(eigsh(pair.K, k=m, M=pair.M, sigma=-1e-3, v0=v0)[0])
    assert (np.abs(res.values[1:] - ref[1:]) / ref[1:]).max() <= 1e-10  # the constant deflated
    assert abs(res.values[0]) <= 1e-12 * res.values[1]
    rel = res.values[1:] / (4 * np.pi**2) - 1
    assert np.all(np.abs(rel[:mult]) <= 0.03) and rel[mult] > 0.5


def test_torus_geometry_is_the_box_geometry():
    # same cell order, so the true torus edges are the box edges, seam cells included
    torus, box = build_box_grid(3, (4, 3, 5), periodic=True), build_box_grid(3, (4, 3, 5))
    assert np.abs(torus.edge_matrices() - box.edge_matrices()).max() <= 1e-15
    assert torus.cell_operators().volumes.sum() == pytest.approx(1.0, rel=1e-14)
    (tg, _, tv), (bg, _, bv) = simplex_gradient_data(torus), simplex_gradient_data(box)
    assert np.abs(tg - bg).max() <= 1e-12
    assert np.abs(tv - bv).max() <= 1e-15


def test_replace_rebuilds_the_facet_table():
    full = build_box_grid(2, 4)
    assert full.boundary_facets.shape[0] == 16
    cut = dataclasses.replace(full, cells=full.cells[:8], grid_resolution=None)  # 8 triangles sharing no edge
    assert cut.facet_table().facets.shape[0] == 24
    assert cut.boundary_facets.shape[0] == 24


_LAYOUT_BREAKS = {  # each on build_box_grid(2, 4): 2 blocks of 16 cells, 25 vertices
    "first 8 cells": lambda m: {"cells": m.cells[:8]},
    "shape blocks swapped": lambda m: {"cells": np.roll(m.cells, 16, axis=0)},
    "first shape at cube 1": lambda m: {"cells": np.roll(m.cells, -1, axis=0)},
    "one vertex fewer": lambda m: {"vertices": m.vertices[:-1]},
    "three axes": lambda m: {"grid_resolution": (4, 4, 4)},
    "other resolution": lambda m: {"grid_resolution": (2, 8)},
    "periodic": lambda m: {"periodic": True},
}


@pytest.mark.parametrize("name", sorted(_LAYOUT_BREAKS))
def test_grid_resolution_must_describe_the_cells(name):
    # the closed-form tables read the layout off grid_resolution: trusted, the first 8 cells
    # gave 56 edges and 40 cell pairs for 8 triangles that share no edge
    full = build_box_grid(2, 4)
    with pytest.raises(MeshValidationError, match="grid_resolution"):
        dataclasses.replace(full, **_LAYOUT_BREAKS[name](full))
    assert dataclasses.replace(full).num_cells == 32  # the layout itself passes


def _unique_facet_table(cells, dim):
    """Reference table via np.unique(axis=0), the construction it replaced."""
    per = dim + 1
    keep = [[j for j in range(per) if j != i] for i in range(per)]
    facets = np.sort(cells[:, keep].reshape(-1, dim), axis=1)
    uniq, inverse, counts = np.unique(facets, axis=0, return_inverse=True, return_counts=True)
    owners = np.repeat(np.arange(cells.shape[0]), per)[np.argsort(inverse.reshape(-1), kind="stable")]
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    cells_of = np.full((uniq.shape[0], 2), -1, dtype=np.int64)
    cells_of[:, 0] = owners[starts]
    cells_of[counts >= 2, 1] = owners[starts[counts >= 2] + 1]
    return uniq, counts, cells_of


@pytest.mark.parametrize("make", [
    lambda: build_box_grid(3, (4, 3, 2)),
    lambda: build_box_grid(2, 5),
    lambda: build_box_grid(2, 5, periodic=True),
    lambda: build_box_grid(3, 4, periodic=True),
])
def test_facet_table_matches_unique_reference(make):
    m = make()
    rng = np.random.default_rng(7)
    for cells in (m.cells, m.cells[rng.permutation(m.num_cells)]):
        table = mesh._build_facet_table(cells, m.dim)
        uniq, counts, cells_of = _unique_facet_table(cells, m.dim)
        assert np.array_equal(table.facets, uniq)
        assert np.array_equal(table.counts, counts)
        assert np.array_equal(table.cells_of, cells_of)


def test_facet_table_of_no_cells_is_empty():
    table = mesh._build_facet_table(np.empty((0, 4), dtype=np.int64), 3)
    assert table.facets.shape == (0, 3)
    assert table.counts.shape == (0,)
    assert table.cells_of.shape == (0, 2)


def test_one_facet_table_per_mesh_build(monkeypatch, tmp_path):
    assert "boundary_facets" not in {f.name for f in dataclasses.fields(Mesh)}
    save_mesh(build_box_grid(3, 3), tmp_path / "box.mesh")
    calls = []
    real = mesh._build_facet_table
    real_edges = mesh._build_edge_table

    def counting(cells, dim):
        calls.append(dim)
        return real(cells, dim)

    def counting_edges(cells, dim, num_vertices):
        calls.append("edges")
        return real_edges(cells, dim, num_vertices)

    monkeypatch.setattr(mesh, "_build_facet_table", counting)
    monkeypatch.setattr(mesh, "_build_edge_table", counting_edges)
    # a box grid reads its adjacency off the Kuhn shapes and sorts nothing on the scene or nodal path;
    # only the boundary facets and validation, which no scene asks of it, build its facet table.
    # A file mesh (validated on load) sorts once for each table.
    for build, scene, checks in ((lambda: build_box_grid(3, 3), [], [3]),
                                 (lambda: load_mesh(tmp_path / "box.mesh"), [3, "edges"], [3, "edges"])):
        calls.clear()
        m = build()
        m.boundary_vertex_mask()
        m.interior_cell_pairs()
        u = m.vertices[:, 0] - 0.5
        extract_nodal_set(m, u)  # its domains too
        classify_critical_points(m, u)
        assemble(m)  # the K/M pattern is read off the edge table too
        assert sorted(calls, key=str) == scene
        assert m.boundary_facets.shape == (6 * 2 * 9, 3)
        validate_mesh(m)
        assert sorted(calls, key=str) == checks


_GENERATED = {
    "d2-even": lambda: build_box_grid(2, 8),
    "d2-odd": lambda: build_box_grid(2, 7),
    "d3-even": lambda: build_box_grid(3, 6),
    "d3-odd": lambda: build_box_grid(3, 5),
    "d3-per-axis": lambda: build_box_grid(3, (4, 3, 2)),
    "d2-per-axis": lambda: build_box_grid(2, (5, 2)),
    "d3-warp": lambda: build_box_grid(3, 6, warp=_parse_warp("linear:1.0")[0]),
    "d3-warp-odd": lambda: build_box_grid(3, 5, warp=_parse_warp("linear:1.0")[0], sigma_offset=0.3),
    "d2-warp": lambda: build_box_grid(2, 9, warp=_parse_warp("linear:1.0")[0]),
    "torus-even": lambda: build_box_grid(2, 6, periodic=True),
    "torus-odd": lambda: build_box_grid(2, 5, periodic=True),
    "torus-mixed": lambda: build_box_grid(2, (4, 3), periodic=True),
    "torus3-three": lambda: build_box_grid(3, 3, periodic=True),
    "torus3-four": lambda: build_box_grid(3, 4, periodic=True),
    "torus3-mixed": lambda: build_box_grid(3, (4, 3, 5), periodic=True),
}


@pytest.mark.parametrize("name", sorted(_GENERATED))
def test_generated_grids_are_valid_by_construction(monkeypatch, name):
    calls = []
    for fn in ("validate_mesh", "_build_facet_table", "_build_edge_table"):
        real = getattr(mesh, fn)
        monkeypatch.setattr(mesh, fn, lambda *a, real=real, fn=fn: calls.append(fn) or real(*a))
    m = _GENERATED[name]()
    assert calls == []  # neither builder validates or builds a table
    mesh.validate_mesh(m)  # the proof the builders no longer run
    assert calls[0] == "validate_mesh"


@pytest.mark.parametrize("name", sorted(_GENERATED))
def test_cells_are_the_kuhn_permutation_walk(name):
    # block k walks the k-th permutation of the axes from each cell's lowest corner,
    # one axis at a time; an odd permutation swaps its last two vertices
    m = _GENERATED[name]()
    d, res = m.dim, np.array(m.grid_resolution)
    shape = res if m.periodic else res + 1
    strides = np.cumprod(np.r_[shape[1:], 1][::-1])[::-1]  # row-major vertex ids
    base = np.stack(np.meshgrid(*[np.arange(k) for k in res], indexing="ij"), -1).reshape(-1, 1, d)
    perms = list(itertools.permutations(range(d)))
    edges = m.edge_matrices().reshape(len(perms), -1, d, d)
    blocks = []
    for k, perm in enumerate(perms):
        P = np.eye(d, dtype=np.int64)[list(perm)]
        walk = np.r_[np.zeros((1, d), dtype=np.int64), np.cumsum(P, axis=0)]
        if np.linalg.det(P) < 0:
            walk[-2:] = walk[[-1, -2]]
        assert np.linalg.det(walk[1:]) > 0
        assert np.array_equal(mesh._kuhn_shapes(d)[k], walk)
        assert np.abs(edges[k] - walk[1:] / res).max() <= 1e-15  # block k is shape k
        blocks.append((base + walk) % shape @ strides)
    assert np.array_equal(m.cells, np.concatenate(blocks))


def test_components_labels_an_isolated_node():
    count, labels = mesh.components(5, np.array([0, 2, 3]), np.array([1, 1, 3]))  # 3 has a self-loop, 4 no edge
    assert count == 3
    assert labels[0] == labels[1] == labels[2]
    assert len({labels[0], labels[3], labels[4]}) == 3
    assert mesh.components(3, np.array([], dtype=np.int64), np.array([], dtype=np.int64))[0] == 3


def test_only_mesh_imports_csgraph():
    # `mesh.components` is the one path for counting connectivity
    importers = set()
    for path in Path(mesh.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Attribute) and node.attr == "csgraph":  # sparse.csgraph.<function>
                names = ["scipy.sparse.csgraph"]
            else:
                continue
            if any(n.startswith("scipy.sparse.csgraph") for n in names):
                importers.add(path.name)
    assert importers == {"mesh.py"}


def test_periodic_grid_needs_three_cells_per_axis():
    for shape in ((2, 2), (2, 5), (5, 2), (3, 3, 2)):
        with pytest.raises(ValueError, match="at least 3"):
            build_box_grid(len(shape), shape, periodic=True)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, 1e-200, 1e200])
def test_non_finite_or_non_positive_warp_is_rejected_at_build(bad):
    def warp(r):
        w = 1.0 + r
        w[r > 0.1] = bad
        return w

    with pytest.raises(ValueError, match="warp sample not positive and finite"):
        build_box_grid(3, 4, warp=warp)


@pytest.mark.parametrize("name", sorted(_GENERATED))
def test_edge_table_indexes_each_cells_own_edges(name):
    m = _GENERATED[name]()
    edges, cell_edges = m.edge_table()
    assert m.edge_table()[0] is edges  # cached
    assert np.all(edges[:, 0] < edges[:, 1])
    assert np.all(np.diff(edges[:, 0] * m.num_vertices + edges[:, 1]) > 0)  # unique, lexicographic
    pairs = list(itertools.combinations(range(m.dim + 1), 2))
    assert cell_edges.shape == (m.num_cells, len(pairs))
    for k, (i, j) in enumerate(pairs):
        ends = np.sort(m.cells[:, [i, j]], axis=1)
        assert np.array_equal(edges[cell_edges[:, k]], ends)
    assert np.array_equal(np.unique(cell_edges), np.arange(edges.shape[0]))  # every edge has a cell
    faces = m.facet_table().facets.shape[0] if m.dim == 3 else m.num_cells
    if m.dim == 2:  # the facets of a triangle mesh are its edges
        assert np.array_equal(m.facet_table().facets, edges)
    euler = m.num_vertices - edges.shape[0] + faces - (m.num_cells if m.dim == 3 else 0)
    assert euler == (0 if m.periodic else 1)


@pytest.mark.parametrize("name, as_file", [pytest.param(name, as_file, id=name + "-file" * as_file)
                                           for as_file in (False, True) for name in sorted(_GENERATED)])
def test_cell_operator_pattern_is_the_coo_pattern(name, as_file):
    m = _GENERATED[name]()
    if as_file:  # the same cells with no grid_resolution: the edge table comes from a sort
        m = Mesh(m.dim, m.vertices, m.cells, m.cell_metric, periodic=m.periodic)
    ops = m.cell_operators()
    assert m.cell_operators() is ops  # cached
    k = m.dim + 1
    rows, cols = np.repeat(m.cells, k, axis=1).reshape(-1), np.tile(m.cells, (1, k)).reshape(-1)
    ref = sparse.coo_matrix((np.ones(rows.size), (rows, cols)), shape=ops.pattern.shape).tocsr()
    ref.sort_indices()
    assert np.array_equal(ops.pattern.indptr, ref.indptr)
    assert np.array_equal(ops.pattern.indices, ref.indices)
    # every stored entry is reached by a cell, so the mass has no explicit zeros
    assert assemble(m).M.data.min() > 0
    # the pattern's data names the diagonal by vertex id, an edge by its place after the vertices
    edges, _ = m.edge_table()
    r = np.repeat(np.arange(m.num_vertices), np.diff(ops.pattern.indptr))
    c, ids = ops.pattern.indices, ops.pattern.data
    assert ids.dtype == np.int32
    ends = edges[np.maximum(ids - m.num_vertices, 0)]
    off = r != c
    assert np.array_equal(ids[~off], r[~off])
    assert np.array_equal(ends[off], np.sort(np.stack([r, c], axis=1)[off], axis=1))


@pytest.mark.parametrize("name", sorted(_GENERATED))
def test_box_grid_operators_come_from_the_kuhn_shapes(monkeypatch, name):
    m = _GENERATED[name]()
    seen = []
    real = mesh.simplex_gradient_data
    monkeypatch.setattr(mesh, "simplex_gradient_data", lambda sub: seen.append(sub.num_cells) or real(sub))
    ops = m.cell_operators()
    assert seen == [math.factorial(m.dim)]  # one representative cell per shape
    # the per-cell path: each cell's own gradients, metric and volume
    G, ginv, vol = real(m)
    stiff = (G.swapaxes(1, 2) @ ginv @ G) * vol[:, None, None]
    i, j = np.triu_indices(m.dim + 1, 1)
    a, b = np.r_[np.arange(m.dim + 1), i], np.r_[np.arange(m.dim + 1), j]
    assert ops.local.shape[0] == (math.factorial(m.dim) if m.cell_metric is None else m.num_cells)
    assert np.abs(ops.rows(np.arange(m.num_cells)) - stiff[:, a, b]).max() <= 1e-14 * np.abs(stiff).max()
    assert np.abs(ops.volumes - vol).max() <= 1e-14 * vol.max()
    K = assemble(m).K
    assert np.abs(K @ np.ones(m.num_vertices)).max() <= 1e-14 * np.abs(K.data).max()


def test_file_mesh_operators_come_cell_by_cell(monkeypatch, tmp_path):
    save_mesh(build_box_grid(3, 3), tmp_path / "box.mesh")
    m = load_mesh(tmp_path / "box.mesh")
    seen = []
    real = mesh.simplex_gradient_data
    monkeypatch.setattr(mesh, "simplex_gradient_data", lambda sub: seen.append(sub.num_cells) or real(sub))
    assert np.array_equal(m.cell_operators().volumes, real(m)[2])
    assert seen == [m.num_cells]


def test_facet_keys_name_the_int64_limit():
    cells = np.array([[0, 1, 2, 2_097_150], [1, 2, 3, 2_097_150]])
    table = mesh._build_facet_table(cells, 3)  # the largest base whose cube fits
    uniq, counts, cells_of = _unique_facet_table(cells, 3)
    assert np.array_equal(table.facets, uniq) and np.array_equal(table.cells_of, cells_of)
    with pytest.raises(MeshValidationError, match="2,097,151"):
        mesh._build_facet_table(cells + 1, 3)


def test_repeated_vertex_names_first_bad_cell():
    m = build_box_grid(3, 3)
    rng = np.random.default_rng(11)
    for _ in range(5):
        cells = m.cells.copy()
        bad = rng.choice(m.num_cells, size=3, replace=False)
        cells[bad, 3] = cells[bad, 0]  # column 3 vertices sit in other cells too: none dangles
        # reference: the per-cell loop the sorted-row comparison replaced
        first = next(c for c in range(len(cells)) if np.unique(cells[c]).size != 4)
        with pytest.raises(MeshValidationError, match=f"cell {first} repeats a vertex"):
            validate_mesh(Mesh(3, m.vertices, cells))


@pytest.mark.parametrize("text, line", [
    ("dim 3\nvertices 0\ncells 1\n0 1 2 3\n", 2),
    ("dim 3\nvertices -2\n", 2),
    ("dim 3\nvertices 4\n0 0 0\n1 0 0\n0 1 0\n0 0 1\ncells 0\n", 7),
    ("dim 3\nvertices 4\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n\ncells -1\n", 8),
])
def test_load_rejects_nonpositive_counts(tmp_path, text, line):
    path = tmp_path / "bad.mesh"
    path.write_text(text)
    with pytest.raises(MeshFormatError, match=f"line {line}: .* must be positive"):
        load_mesh(path)


@pytest.mark.parametrize("body, what", [
    ("0 0 0\n1 0 0\nnan 1 0\n0 0 1\ncells 1\n0 1 2 3\n", "vertex 2"),
    ("0 0 0\n1 0 0\n0 1 0\n0 0 inf\ncells 1\n0 1 2 3\n", "vertex 3"),
    ("0 0 0\n1 0 0\n0 1 0\n0 0 1\ncells 1\n0 1 2 3\nmetric 1\n1 0 0 nan 0 1\n", "cell 0"),
])
def test_load_rejects_non_finite_values(tmp_path, body, what):
    path = tmp_path / "bad.mesh"
    path.write_text("dim 3\nvertices 4\n" + body)
    with pytest.raises(MeshValidationError, match=f"non-finite .*{what}"):
        load_mesh(path)


@pytest.mark.parametrize("rows, cell", [
    ("1 0 0 1 0 1\n-1 0 0 -1 0 1\n", 1),  # det 1 > 0, yet indefinite
    ("-1 0 0 1 0 1\n1 0 0 1 0 1\n", 0),
    ("1 0 0 1 0 1\n1 0 0 1 0 0\n", 1),     # semidefinite
])
def test_load_rejects_indefinite_metric(tmp_path, rows, cell):
    path = tmp_path / "bad.mesh"
    path.write_text(
        "dim 3\nvertices 5\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n1 1 1\n"
        "cells 2\n0 1 2 3\n1 4 2 3\nmetric 2\n" + rows
    )
    with pytest.raises(MeshValidationError, match=f"not positive definite: cell {cell}$"):
        load_mesh(path)
