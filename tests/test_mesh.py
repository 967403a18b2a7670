import dataclasses

import numpy as np
import pytest

from dumbbell import mesh
from dumbbell.mesh import (
    Mesh,
    MeshFormatError,
    MeshValidationError,
    build_box_grid,
    load_mesh,
    periodic_unit_grid_2d,
    save_mesh,
    simplex_gradient_data,
    validate_mesh,
)


def test_box_grid_counts():
    m = build_box_grid(3, 4)
    assert m.num_vertices == 125
    assert m.num_cells == 384
    assert m.boundary_facets.shape == (12 * 16, 3)  # 2 triangles per face square


def test_box_grid_per_axis_resolutions():
    m = build_box_grid(3, (4, 3, 2))
    assert m.num_vertices == 5 * 4 * 3
    assert m.num_cells == 6 * 4 * 3 * 2
    assert m.total_volume() == pytest.approx(1.0, abs=1e-12)
    assert m.grid_resolution == (4, 3, 2)
    assert m.spacing() == pytest.approx(0.25)
    with pytest.raises(ValueError, match="per-axis"):
        build_box_grid(3, (4, 3))


def test_box_grid_flat_volume_exact():
    m = build_box_grid(3, 4)
    assert m.total_volume() == pytest.approx(1.0, abs=1e-12)
    m2 = build_box_grid(2, 7)
    assert m2.total_volume() == pytest.approx(1.0, abs=1e-12)


def test_warped_volume_matches_1d_integral():
    # exact: int_0^1 (1 + (x - 1/2))^2 dx = 1 + 1/12
    m = build_box_grid(3, 8, warp=lambda r: 1.0 + r, sigma_offset=0.5)
    exact = 1.0 + 1.0 / 12.0
    assert abs(m.total_volume() - exact) / exact < 0.01


def test_volume_additivity_under_refinement():
    errs = []
    for n in (8, 16):
        m = build_box_grid(3, n, warp=lambda r: 1.0 + r, sigma_offset=0.5)
        errs.append(abs(m.total_volume() - (1.0 + 1.0 / 12.0)))
    assert errs[1] < errs[0] / 3.0  # O(n^-2)


def test_resolution_validation():
    with pytest.raises(ValueError, match="at least 2"):
        build_box_grid(3, 1)
    with pytest.raises(ValueError, match="warp"):
        build_box_grid(3, 4, warp=lambda r: -np.ones_like(r))
    with pytest.raises(ValueError, match="dimension"):
        build_box_grid(4, 4)


def test_gradient_affine_reproduction(box8):
    grads = simplex_gradient_data(box8)
    rng = np.random.default_rng(3)
    a = rng.standard_normal(3)
    u = box8.vertices @ a + 1.7
    g = grads.gradient_of(u, box8.cells)
    assert np.abs(g - a).max() < 1e-13


def test_gradient_constant_field(box8):
    grads = simplex_gradient_data(box8)
    g = grads.gradient_of(np.full(box8.num_vertices, 4.2), box8.cells)
    assert np.abs(g).max() < 1e-13


def test_gradient_metric_norm():
    m = build_box_grid(3, 2)
    cm = np.tile(np.diag([4.0, 1.0, 1.0]), (m.num_cells, 1, 1))
    warped = Mesh(3, m.vertices, m.cells, cell_metric=cm,
                  grid_resolution=(2, 2, 2))
    grads = simplex_gradient_data(warped)
    g = grads.gradient_of(warped.vertices[:, 0], warped.cells)
    assert np.abs(grads.metric_norm_sq(g) - 0.25).max() < 1e-13


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
    m = periodic_unit_grid_2d(6)
    assert m.boundary_facets.shape[0] == 0
    table = m.facet_table()
    assert np.all(table.counts == 2)
    # V - E + F of the torus
    assert m.num_vertices - table.facets.shape[0] + m.num_cells == 0


def test_periodic_grid_rejected_by_geometry():
    m = periodic_unit_grid_2d(4)
    with pytest.raises(MeshValidationError, match="periodic"):
        simplex_gradient_data(m)


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
    lambda: periodic_unit_grid_2d(5),
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

    def counting(cells, dim):
        calls.append(dim)
        return real(cells, dim)

    monkeypatch.setattr(mesh, "_build_facet_table", counting)
    for build in (lambda: build_box_grid(3, 3), lambda: load_mesh(tmp_path / "box.mesh")):
        calls.clear()
        m = build()
        assert m.boundary_facets.shape == (6 * 2 * 9, 3)
        m.boundary_vertex_mask()
        m.interior_facet_pairs()
        assert calls == [3]


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
