"""A Kuhn grid's adjacency by index arithmetic against the sort-based builders.

Box grids and tori read their edge table, interior facet pairs, boundary and
Morse links off the d! Kuhn shapes; file meshes sort, and classify critical
points on a link graph.  Both must give the same tables and Morse reports, and,
since every mesh reads its K/M pattern off its edge table, K and M bit for bit.
"""

import dataclasses
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dumbbell import experiments, mesh  # noqa: E402
from dumbbell.assembly import assemble  # noqa: E402
from dumbbell.experiments import ScenarioConfig, _parse_warp, run_scenario  # noqa: E402
from dumbbell.mesh import Mesh, build_box_grid, load_mesh, save_mesh  # noqa: E402
from dumbbell.metric import ConformalField  # noqa: E402
from dumbbell.morse import classify_critical_points  # noqa: E402

BOUNDED = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def _grids(draw):
    """(d, per-axis resolutions, periodic): a torus needs 3 cells per axis."""
    d = draw(st.sampled_from([2, 3]))
    periodic = draw(st.booleans())
    top = 7 if d == 2 else 5
    res = tuple(draw(st.integers(3 if periodic else 2, top)) for _ in range(d))
    return d, res, periodic


@pytest.mark.parametrize("d", [2, 3])
def test_kuhn_neighbour_table_points_back(d):
    # across facet w of shape k lies shape k' one step along an axis; across one of k''s
    # facets, one step back, lies k again
    table = mesh._kuhn_neighbours(d)
    assert len(table) == len(mesh._kuhn_shapes(d)) and {len(row) for row in table} == {d + 1}
    for k, row in enumerate(table):
        for other, axis, step in row:
            assert (k, axis, -step) in table[other]


def _sorted_twin(m: Mesh) -> Mesh:
    """The same cells without `grid_resolution`: every table from the sort-based builders."""
    return Mesh(m.dim, m.vertices, m.cells, m.cell_metric, periodic=m.periodic)


def _facet_rows(facets, pairs):
    """Each interior facet as (sorted vertices, lower cell, higher cell), in one order."""
    return sorted(tuple(sorted(f)) + tuple(sorted(p)) for f, p in zip(facets.tolist(), pairs.tolist()))


@BOUNDED
@given(_grids())
def test_closed_form_tables_match_the_sort_builders(grid):
    d, res, periodic = grid
    m = build_box_grid(d, res, periodic=periodic)
    edges, cell_edges = m.edge_table()
    ref_edges, ref_cell_edges = mesh._build_edge_table(m.cells, d, m.num_vertices)
    assert cell_edges.dtype == np.int32
    assert np.array_equal(edges, ref_edges)
    assert np.array_equal(cell_edges, ref_cell_edges)

    table = mesh._build_facet_table(m.cells, d)
    shared = table.counts == 2
    pairs = m.interior_cell_pairs()
    assert pairs.dtype == np.int32
    want = _facet_rows(table.facets[shared], table.cells_of[shared])
    assert _facet_rows(m.shared_facets(pairs), pairs) == want
    twin = _sorted_twin(m)
    assert _facet_rows(twin.shared_facets(twin.interior_cell_pairs()), twin.interior_cell_pairs()) == want

    boundary = np.zeros(m.num_vertices, dtype=bool)
    boundary[table.facets[table.counts == 1].reshape(-1)] = True
    assert np.array_equal(m.boundary_vertex_mask(), boundary)
    assert np.array_equal(twin.boundary_vertex_mask(), boundary)
    assert m._facets is None  # none of it built the facet table


@st.composite
def _grid_scenes(draw):
    """(grid, field, region): a box or torus in d = 2 or 3 with per-axis resolutions, a
    random, tied or constant field and no, a random or an empty region."""
    d = draw(st.sampled_from([2, 3]))
    periodic = draw(st.booleans())
    res = tuple(draw(st.integers(3 if periodic else 2, 8 if d == 2 else 5)) for _ in range(d))
    m = build_box_grid(d, res, periodic=periodic)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = {
        "random": lambda: rng.standard_normal(m.num_vertices),
        "tied": lambda: rng.integers(0, draw(st.integers(2, 4)), m.num_vertices).astype(float),
        "constant": lambda: np.full(m.num_vertices, draw(st.floats(-1e3, 1e3))),
    }[draw(st.sampled_from(["random", "tied", "constant"]))]()
    region = {
        "none": lambda: None,
        "random": lambda: rng.random(m.num_cells) < draw(st.floats(0.3, 1.0)),
        "empty": lambda: np.zeros(m.num_cells, dtype=bool),
    }[draw(st.sampled_from(["none", "random", "random", "empty"]))]()
    return m, u, region


@BOUNDED
@given(_grid_scenes())
def test_grid_morse_star_matches_the_link_graph(scene):
    # the grid's fixed Kuhn star against the link graph of the same cells, read as a file mesh
    m, u, region = scene
    grid = classify_critical_points(m, u, region=region)
    graph = classify_critical_points(_sorted_twin(m), u, region=region)
    assert np.array_equal(grid.labels, graph.labels)
    assert np.array_equal(grid.lower_components, graph.lower_components)
    assert np.array_equal(grid.upper_components, graph.upper_components)
    assert np.array_equal(grid.counted, graph.counted)
    assert grid.counts == graph.counts


def _with_tables_of(m: Mesh, grid_resolution) -> Mesh:
    """``m``'s cells and cell operator values, with its adjacency from the other path."""
    twin = Mesh(m.dim, m.vertices, m.cells, m.cell_metric, grid_resolution=grid_resolution, periodic=m.periodic)
    ops = m.cell_operators()
    twin._operators = dataclasses.replace(
        twin.cell_operators(), local=ops.rows(np.arange(m.num_cells)), volumes=ops.volumes)
    return twin


def _assert_bit_identical(a, b):
    for x, y in ((a.K, b.K), (a.M, b.M)):
        assert np.array_equal(x.indptr, y.indptr)
        assert np.array_equal(x.indices, y.indices)
        assert x.data.tobytes() == y.data.tobytes()
    assert np.array_equal(a.dof_map, b.dof_map)


@pytest.mark.parametrize("d, n", [(2, 7), (3, 5), (3, 6)])
@pytest.mark.parametrize("warp", ["none", "linear:1.0"])
@pytest.mark.parametrize("masked", [False, True], ids=["whole", "mask"])
def test_kuhn_tables_assemble_bit_identical_k_and_m(tmp_path, d, n, warp, masked):
    box = build_box_grid(d, n, warp=_parse_warp(warp)[0])
    save_mesh(box, tmp_path / "box.mesh")
    read = load_mesh(tmp_path / "box.mesh")  # no grid_resolution: the sort path
    assert read.grid_resolution is None
    rng = np.random.default_rng(5)
    field = ConformalField(1e-3, 1.0, "step", None, rng.uniform(0.5, 2.0, box.num_cells))
    mask = box.vertices[box.cells].mean(axis=1)[:, 0] > 0.4 if masked else None
    for m, other in ((box, None), (read, box.grid_resolution)):
        twin = _with_tables_of(m, other)
        assert (twin.grid_resolution is None) != (m.grid_resolution is None)
        _assert_bit_identical(assemble(m, field, mask), assemble(twin, field, mask))


@pytest.mark.parametrize("mapping", [
    {"scenario": "scaling", "n": 8, "oracle_resolution": 256, "epsilons": (1e-1, 1e-2, 1e-3)},
    {"scenario": "gap", "n": 8},
    {"scenario": "nodal", "n": 8},
    {"scenario": "morse", "n": 8, "resolution": 16},
], ids=lambda mapping: mapping["scenario"])
def test_box_grid_scenes_sort_no_mesh_table(monkeypatch, mapping):
    def refuse(*args):
        raise AssertionError("a box-grid scene built a sort-based mesh table")

    monkeypatch.setattr(mesh, "_build_facet_table", refuse)
    monkeypatch.setattr(mesh, "_build_edge_table", refuse)
    report = run_scenario(ScenarioConfig.from_mapping(mapping))
    assert not report.failures, report.failures


def _cached_bytes(m: Mesh) -> int:
    """Bytes of every table and operator the mesh has cached."""
    arrays = [*(m._edges or ()), m._pairs]
    if m._facets is not None:
        arrays += [m._facets.facets, m._facets.counts, m._facets.cells_of]
    ops = m._operators
    if ops is not None:
        arrays += [ops.local, ops.volumes, ops.gather, ops.pattern.data, ops.pattern.indices, ops.pattern.indptr]
    return sum(a.nbytes for a in arrays if a is not None)


def test_scene_mesh_caches_stay_small():
    # 86, 83 and 82 bytes per cell at n = 8, 16 and 24 (edges, cell edges, cell pairs, volumes,
    # pattern and gather); the sorted tables and per-cell stiffness held 310 at n = 16
    local = {}
    for n in (8, 16):
        m, _ = experiments._build_scene(ScenarioConfig.from_mapping({"scenario": "scaling", "n": n}))
        assemble(m)  # the edge table too
        assert _cached_bytes(m) <= 100 * m.num_cells
        assert m._facets is None
        local[n] = m.cell_operators().local.nbytes
    assert local[8] == local[16]  # one stiffness row per Kuhn shape


def test_threads_build_each_grid_table_once(monkeypatch):
    # sweep threads assemble on one mesh at once; its edge table is first read there.
    # Each build sleeps first, so a thread that finds no table yet finds it while another builds
    calls = []
    for fn in ("_grid_edge_table", "_build_operators"):
        real = getattr(mesh, fn)
        monkeypatch.setattr(mesh, fn, lambda m, real=real, fn=fn: calls.append(fn) or time.sleep(0.05) or real(m))
    m = build_box_grid(3, 6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            pairs = list(pool.map(lambda _: assemble(m), range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(calls) == ["_build_operators", "_grid_edge_table"]
    for pair in pairs[1:]:
        _assert_bit_identical(pair, pairs[0])
