import numpy as np
import pytest

from dumbbell import metric
from dumbbell.mesh import build_box_grid, periodic_unit_grid_2d
from dumbbell.morse import (
    LABEL_MAX,
    LABEL_MIN,
    betti_bound_check,
    classify_critical_points,
    cosine_product_census,
    cosine_product_field,
)


@pytest.fixture(scope="module")
def torus32():
    return periodic_unit_grid_2d(32)


def test_monotone_field_has_no_interior_criticals(box8):
    rep = classify_critical_points(box8, box8.vertices[:, 0])
    assert rep.n_critical == 0


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
    grid = periodic_unit_grid_2d(32, 16)
    u = cosine_product_field(grid.vertices, periods=(2, 1))
    rep = classify_critical_points(grid, u)
    assert rep.counts == cosine_product_census((2, 1))


def test_benchmark_counts_cover_critical_vertices(torus32):
    u = cosine_product_field(torus32.vertices, periods=(2, 1))
    rep = classify_critical_points(torus32, u)
    assert sum(rep.counts.values()) == rep.n_critical == 16


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


def test_betti_bound_check_basics():
    class Dummy:
        counts = {0: 1, 1: 0, 2: 0}

    assert betti_bound_check(Dummy(), (1, 0, 0))
    assert not betti_bound_check(Dummy(), (1, 1, 0))


def test_solid_torus_betti_bound():
    mesh3 = build_box_grid(3, 20)
    torus = metric.torus_level((0.5, 0.5, 0.5), 0.3, 0.14)
    phi = torus.func(mesh3.vertices)
    region = np.all(phi[mesh3.cells] < 0, axis=1)
    rep = classify_critical_points(mesh3, phi, region=region)
    assert rep.counts[0] >= 1   # at least one minimum on the core ring
    assert rep.counts[1] >= 1   # and one connecting saddle
    assert betti_bound_check(rep, (1, 1))


def test_region_filter_limits_counts(box8):
    u = np.sum((box8.vertices - 0.5) ** 2, axis=1)
    region = np.zeros(box8.num_cells, dtype=bool)
    region[box8.barycenters()[:, 0] < 0.4] = True  # excludes the center
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


_MESHES = {
    "torus": lambda: periodic_unit_grid_2d(12, 9),
    "box2": lambda: build_box_grid(2, 10),
    "box3": lambda: build_box_grid(3, 6),
}


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
        "half": mesh.barycenters()[:, 0] < 0.6,
        "empty": np.zeros(mesh.num_cells, dtype=bool),
    }[where]
    rep = classify_critical_points(mesh, u, region=region)
    labels, lower, upper, counted, counts = _reference_classify(mesh, u, region)
    assert np.array_equal(rep.labels, labels)
    assert np.array_equal(rep.lower_components, lower)
    assert np.array_equal(rep.upper_components, upper)
    assert np.array_equal(rep.counted, counted)
    assert rep.counts == counts
