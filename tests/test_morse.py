import numpy as np
import pytest

from dumbbell import metric, morse
from dumbbell.experiments import ScenarioConfig, run_scenario
from dumbbell.mesh import Mesh, _kuhn_shapes, build_box_grid
from dumbbell.morse import (
    LABEL_MAX,
    LABEL_MIN,
    LABEL_REGULAR,
    classify_critical_points,
    cosine_product_census,
    cosine_product_field,
)


@pytest.fixture(scope="module")
def torus32():
    return build_box_grid(2, 32, periodic=True)


def test_monotone_field_has_no_interior_criticals(box8):
    rep = classify_critical_points(box8, box8.vertices[:, 0])
    assert not np.any(rep.counted & (rep.labels != LABEL_REGULAR))


def test_distance_squared_single_minimum(box8):
    u = np.sum((box8.vertices - 0.5) ** 2, axis=1)
    rep = classify_critical_points(box8, u)
    assert rep.counts[0] == 1
    assert rep.counts[1] == 0 and rep.counts[2] == 0 and rep.counts[3] == 0


def test_cosine_benchmark_matches_census(torus32):
    u = cosine_product_field(torus32.vertices, periods=(2, 1))
    rep = classify_critical_points(torus32, u)
    census = cosine_product_census((2, 1))
    assert rep.counts == census
    assert census == {0: 4, 1: 8, 2: 4}


def test_single_period_census_is_half(torus32):
    # the plain product of unit-frequency cosines carries half the counts
    u = cosine_product_field(torus32.vertices, periods=(1, 1))
    rep = classify_critical_points(torus32, u)
    assert rep.counts == cosine_product_census((1, 1)) == {0: 2, 1: 4, 2: 2}


def test_census_at_sixteen_per_period():
    grid = build_box_grid(2, (32, 16), periodic=True)
    u = cosine_product_field(grid.vertices, periods=(2, 1))
    rep = classify_critical_points(grid, u)
    assert rep.counts == cosine_product_census((2, 1))


def test_benchmark_counts_cover_critical_vertices(torus32):
    u = cosine_product_field(torus32.vertices, periods=(2, 1))
    rep = classify_critical_points(torus32, u)
    n_critical = int(np.sum(rep.counted & (rep.labels != LABEL_REGULAR)))
    assert sum(rep.counts.values()) == n_critical == 16


def test_euler_sum_vanishes_on_torus(torus32):
    u = cosine_product_field(torus32.vertices, periods=(2, 1))
    rep = classify_critical_points(torus32, u)
    assert rep.euler_sum() == 0


def test_negation_swaps_extrema(torus32):
    u = cosine_product_field(torus32.vertices, periods=(2, 1))
    rep = classify_critical_points(torus32, u)
    neg = classify_critical_points(torus32, -u)
    assert neg.counts[0] == rep.counts[2]
    assert neg.counts[2] == rep.counts[0]
    assert neg.counts[1] == rep.counts[1]


def test_monotone_reparameterization_invariance(torus32):
    u = cosine_product_field(torus32.vertices, periods=(2, 1))
    rep = classify_critical_points(torus32, u)
    rep2 = classify_critical_points(torus32, np.exp(2.0 * u) + 3.0)
    assert np.array_equal(rep.labels, rep2.labels)
    assert rep.counts == rep2.counts


def test_tie_rule_breaks_plateaus(torus32):
    rep = classify_critical_points(torus32, np.zeros(torus32.num_vertices))
    # a constant field degenerates to exactly one min and one max under the
    # lexicographic order, saddles carrying the remaining Euler balance
    assert rep.counts[0] == 1
    assert rep.counts[2] == 1
    assert rep.euler_sum() == 0


def test_solid_torus_betti_bound():
    mesh3 = build_box_grid(3, 20)
    torus = metric.torus_level((0.5, 0.5, 0.5), 0.3, 0.14)
    phi = torus.func(mesh3.vertices)
    region = np.all(phi[mesh3.cells] < 0, axis=1)
    rep = classify_critical_points(mesh3, phi, region=region)
    assert rep.counts[0] >= 1   # at least one minimum on the core ring
    assert rep.counts[1] >= 1   # and one connecting saddle


def test_region_filter_limits_counts(box8):
    u = np.sum((box8.vertices - 0.5) ** 2, axis=1)
    region = np.zeros(box8.num_cells, dtype=bool)
    region[box8.vertices[box8.cells].mean(axis=1)[:, 0] < 0.4] = True  # excludes the center
    rep = classify_critical_points(box8, u, region=region)
    assert rep.counts[0] == 0


def test_labels_on_benchmark_extrema(torus32):
    u = cosine_product_field(torus32.vertices, periods=(2, 1))
    rep = classify_critical_points(torus32, u)
    # (0,0) is a maximum of cos(4 pi x) cos(2 pi y); (1/4, 0) a minimum
    n = 32
    assert rep.labels[0] == LABEL_MAX
    assert rep.labels[(n // 4) * n] == LABEL_MIN


def _reference_classify(mesh, u, region=None):
    """The per-vertex loop with a union-find per link, kept as the reference."""

    def components(nodes, edges):
        parent = {v: v for v in nodes}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for a, b in edges:
            parent[find(a)] = find(b)
        return len({find(v) for v in nodes})

    n = mesh.num_vertices
    in_region = np.ones(mesh.num_cells, bool) if region is None else np.asarray(region, bool)
    neighbor = [set() for _ in range(n)]
    link_edges = [[] for _ in range(n)]
    for cell in mesh.cells[in_region].tolist():
        for i, v in enumerate(cell):
            others = cell[:i] + cell[i + 1:]
            neighbor[v].update(others)
            link_edges[v] += [(a, b) for k, a in enumerate(others) for b in others[k + 1:]]
    star_ok = np.zeros(n, bool)
    star_ok[mesh.cells[in_region].reshape(-1)] = True
    star_ok[mesh.cells[~in_region].reshape(-1)] = False
    if not mesh.periodic:
        star_ok &= ~mesh.boundary_vertex_mask()
    labels = np.full(n, -1, dtype=np.int8)
    lower_comp = np.zeros(n, dtype=np.int64)
    upper_comp = np.zeros(n, dtype=np.int64)
    for v in np.flatnonzero(star_ok):
        lower = {w for w in neighbor[v] if (u[w], w) < (u[v], v)}
        upper = neighbor[v] - lower
        cl = components(lower, [e for e in link_edges[v] if set(e) <= lower])
        cu = components(upper, [e for e in link_edges[v] if set(e) <= upper])
        lower_comp[v], upper_comp[v] = cl, cu
        labels[v] = 1 if cl == 0 else 2 if cu == 0 else 3 if max(cl, cu) > 1 else 0
    counted = labels != -1
    counts = {i: 0 for i in range(mesh.dim + 1)}
    counts[0] = int(np.sum(labels == 1))
    counts[mesh.dim] = int(np.sum(labels == 2))
    counts[1] = int(np.sum(np.maximum(lower_comp[counted] - 1, 0)))
    if mesh.dim >= 3:
        counts[2] = int(np.sum(np.maximum(upper_comp[counted] - 1, 0)))
    return labels, lower_comp, upper_comp, counted, counts


def _file_twin(m: Mesh) -> Mesh:
    """The same cells with no `grid_resolution`: Morse links from the link graph."""
    return Mesh(m.dim, m.vertices, m.cells, m.cell_metric, periodic=m.periodic)


_GRIDS = {
    "torus": lambda: build_box_grid(2, (12, 9), periodic=True),
    "torus3": lambda: build_box_grid(3, (4, 5, 3), periodic=True),
    "box2": lambda: build_box_grid(2, 10),
    "box3": lambda: build_box_grid(3, 6),
}
_MESHES = {**_GRIDS, **{f"{name}-file": lambda make=make: _file_twin(make()) for name, make in _GRIDS.items()}}


@pytest.mark.parametrize("name", sorted(_MESHES))
@pytest.mark.parametrize("field", ["random", "integer", "zeros"])
@pytest.mark.parametrize("where", ["all", "random", "half", "empty"])
def test_link_graph_matches_reference_loop(name, field, where):
    mesh = _MESHES[name]()
    rng = np.random.default_rng(3)
    u = {
        "random": rng.standard_normal(mesh.num_vertices),
        "integer": rng.integers(0, 3, mesh.num_vertices).astype(float),
        "zeros": np.zeros(mesh.num_vertices),
    }[field]
    region = {
        "all": None,
        "random": rng.random(mesh.num_cells) < 0.7,
        "half": mesh.vertices[mesh.cells].mean(axis=1)[:, 0] < 0.6,
        "empty": np.zeros(mesh.num_cells, dtype=bool),
    }[where]
    rep = classify_critical_points(mesh, u, region=region)
    labels, lower, upper, counted, counts = _reference_classify(mesh, u, region)
    assert np.array_equal(rep.labels, labels)
    assert np.array_equal(rep.lower_components, lower)
    assert np.array_equal(rep.upper_components, upper)
    assert np.array_equal(rep.counted, counted)
    assert rep.counts == counts


@pytest.mark.parametrize("d", [2, 3])
def test_kuhn_star_is_the_grid_star(d):
    # 2(2^d - 1) neighbours and 6 or 36 link edges, as the sorted edge table of an interior vertex says
    offsets, neighbours = morse._kuhn_star(d)
    assert offsets.shape == (2 * (2**d - 1), d)
    degrees = (neighbours != np.arange(len(offsets))[:, None]).sum(axis=1)
    assert degrees.sum() // 2 == {2: 6, 3: 36}[d]
    m = build_box_grid(d, 4)
    centre = int(np.ravel_multi_index((2,) * d, (5,) * d))
    edges, _ = _file_twin(m).edge_table()
    star = edges[(edges == centre).any(axis=1)].sum(axis=1) - centre
    want = {tuple(x) for x in np.array(np.unravel_index(star, (5,) * d)).T - 2}
    assert {tuple(o) for o in offsets.tolist()} == want


def _kuhn_grid_4d(n: int) -> Mesh:
    """The 4d box grid in the `build_box_grid` layout (which builds only d = 2, 3): d! shape blocks
    of n^d cubes each, cube c's corner j of shape k at c + walk_kj."""
    d, shape = 4, (n + 1,) * 4
    vertices = np.stack(np.meshgrid(*[np.linspace(0.0, 1.0, n + 1)] * d, indexing="ij"), axis=-1).reshape(-1, d)
    cubes = np.array(np.unravel_index(np.arange(n**d), (n,) * d)).T
    corners = cubes[None, :, None, :] + np.array(_kuhn_shapes(d))[:, None, :, :]
    cells = np.ravel_multi_index(tuple(np.moveaxis(corners, -1, 0)), shape).reshape(-1, d + 1)
    return Mesh(d, vertices, cells, grid_resolution=(n,) * d)


@pytest.mark.parametrize("field", ["random", "integer"])
def test_grid_links_of_a_4d_star(field):
    # the 4d star has 30 vertices, so its lower-link masks need more than 16 bits
    mesh = _kuhn_grid_4d(3)
    assert morse._kuhn_star(4)[0].shape == (30, 4)
    rng = np.random.default_rng(4)
    u = rng.standard_normal(mesh.num_vertices) if field == "random" else rng.integers(0, 3, mesh.num_vertices) * 1.0
    labels, lower, upper, counted, counts = _reference_classify(mesh, u)
    assert counted.sum() == 16
    for got in (classify_critical_points(mesh, u), classify_critical_points(_file_twin(mesh), u)):
        assert got.counts == counts
        assert np.array_equal(got.lower_components, lower)
        assert np.array_equal(got.upper_components, upper)
        assert np.array_equal(got.labels, labels)


@pytest.mark.parametrize("bad", ["nan", "inf", "short", "long", "matrix"])
def test_bad_fields_are_named_errors(box8, bad):
    n = box8.num_vertices
    u = {
        "nan": np.where(np.arange(n) == 7, np.nan, 0.0),
        "inf": np.where(np.arange(n) == 7, -np.inf, 0.0),
        "short": np.zeros(n - 1),
        "long": np.zeros(n + 1),
        "matrix": np.zeros((n, 1)),
    }[bad]
    with pytest.raises(ValueError, match="vertex 7" if bad in ("nan", "inf") else "one value per vertex"):
        classify_critical_points(box8, u)


@pytest.mark.parametrize("size", [-1, 1])
def test_region_of_the_wrong_length_is_a_named_error(box8, size):
    region = np.ones(box8.num_cells + size, dtype=bool)
    with pytest.raises(ValueError, match="one flag per cell"):
        classify_critical_points(box8, np.zeros(box8.num_vertices), region=region)


def test_grid_morse_builds_no_link_graph(monkeypatch):
    # the scene may build its edge table for assembly; no Morse classification reads it
    classify, grids = morse.classify_critical_points, []

    def refuse(*args, **kwargs):
        raise AssertionError("a grid Morse classification built a link graph")

    def guarded(mesh, *args, **kwargs):
        grids.append(mesh.grid_resolution)
        with monkeypatch.context() as inside:
            inside.setattr(Mesh, "edge_table", refuse)
            inside.setattr(morse, "components", refuse)
            return classify(mesh, *args, **kwargs)

    cfg = ScenarioConfig.from_mapping({"scenario": "morse", "n": 8, "resolution": 16, "workers": 1})
    free = run_scenario(cfg).to_dict()
    monkeypatch.setattr(morse, "classify_critical_points", guarded)
    report = run_scenario(cfg).to_dict()
    assert not report["failures"], report["failures"]
    assert grids == [(16, 16), (8, 8, 8), (8, 8, 8)]
    assert (report["tables"], report["verdicts"]) == (free["tables"], free["verdicts"])
