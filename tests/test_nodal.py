from pathlib import Path

import numpy as np
import pytest

from dumbbell import harmonic, nodal
from dumbbell.experiments import ScenarioConfig, _build_scene, _solve_point, emit_plot_data
from dumbbell.mesh import simplex_gradient_data
from dumbbell.nodal import NonBoxSceneError, extract_nodal_set, single_crossing_check


def test_planar_field_single_flat_component(scene16):
    m, geom = scene16
    u = m.vertices[:, 0] - 0.5
    ns = extract_nodal_set(m, u)
    assert ns.n_components == 1
    assert ns.total_area == pytest.approx(1.0, abs=1e-10)
    lo, hi = ns.value_range(geom.rho)
    assert lo == pytest.approx(0.0, abs=1e-14)
    assert hi == pytest.approx(0.0, abs=1e-14)
    assert ns.domains == 2


def test_positive_field_empty_set(scene8):
    m, geom = scene8
    ns = extract_nodal_set(m, np.ones(m.num_vertices))
    assert ns.is_empty
    assert ns.n_components == 0 and ns.domains == 1
    assert np.isnan(ns.value_range(geom.rho)).all()
    assert ns.min_gradient == np.inf and ns.total_area == 0.0


def test_plane_gradient_is_one(box8):
    u = box8.vertices[:, 0] - 0.5
    ns = extract_nodal_set(box8, u)
    assert ns.min_gradient == pytest.approx(1.0)


def _explicit_min_gradient(m, u):
    """min over the crossing cells of the metric norm of the P1 gradient, cell by cell."""
    s = nodal.tie_signs(u)[m.cells]
    crossing = np.flatnonzero(~np.all(s == s[:, :1], axis=1))
    G, ginv, _ = simplex_gradient_data(m)
    g = np.einsum("cka,ca->ck", G[crossing], nodal._snap_zeros(u)[m.cells[crossing]])
    return np.sqrt(np.einsum("ck,ckl,cl->c", g, ginv[crossing], g).min())


@pytest.mark.parametrize("warp", [None, "linear:1.0"])
def test_min_gradient_is_the_explicit_gradient_floor(warp):
    cfg = ScenarioConfig.from_mapping({"scenario": "nodal", **({"warp": warp} if warp else {})})
    m, geom = _build_scene(cfg)
    *_, result = _solve_point(m, geom, cfg, cfg.epsilon)
    u = result.vectors[:, 1]
    expected = _explicit_min_gradient(m, u)
    assert extract_nodal_set(m, u).min_gradient == pytest.approx(expected, rel=1e-14)


def test_affine_collar_gradient(scene16):
    m, geom = scene16
    consts = harmonic.PlateauConstants(0.8, -0.4, 1.0)
    u = harmonic.hbar(np.clip(geom.rho, -geom.eta, geom.eta), geom.eta, consts)
    ns = extract_nodal_set(m, u)
    expected = (consts.c_plus - consts.c_minus) / (2 * geom.eta)
    assert ns.min_gradient == pytest.approx(expected, rel=1e-12)


def test_affine_root_within_one_spacing(scene16):
    m, geom = scene16
    consts = harmonic.PlateauConstants(0.8, -0.4, 1.0)
    u = harmonic.hbar(np.clip(geom.rho, -geom.eta, geom.eta), geom.eta, consts)
    ns = extract_nodal_set(m, u)
    lo, hi = ns.value_range(geom.rho)
    root = harmonic.hbar_root(geom.eta, consts)
    spacing = 1.0 / m.grid_resolution[0]
    assert max(abs(lo - root), abs(hi - root)) <= spacing


def test_nodal_domains_plane_and_modes(box16, dumbbell16):
    u = box16.vertices[:, 0] - 0.5
    assert extract_nodal_set(box16, u).domains == 2
    # second eigenfunction of the flat box is a single cosine: 2 domains
    from dumbbell import assembly, eigen

    pair = assembly.assemble(box16)
    res = eigen.solve_smallest(pair, 3, tol=1e-9)
    assert extract_nodal_set(box16, res.vectors[:, 2]).domains == 2
    # first eigenfunction of the dumbbell: Courant bound attained
    assert extract_nodal_set(dumbbell16["mesh"], dumbbell16["result"].vectors[:, 1]).domains == 2


def test_domain_count_scale_invariant(box8):
    rng = np.random.default_rng(7)
    u = rng.standard_normal(box8.num_vertices)
    assert extract_nodal_set(box8, u).domains == extract_nodal_set(box8, 7.3 * u).domains


def test_single_crossing_plane_and_bubble(scene16):
    m, _ = scene16
    u = m.vertices[:, 0] - 0.5
    assert single_crossing_check(m, u)
    bubble = u.copy()
    blob = np.linalg.norm(m.vertices - [0.85, 0.5, 0.5], axis=1) < 0.09
    bubble[blob] = -0.05
    assert not single_crossing_check(m, bubble)


def test_single_crossing_needs_grid(scene16):
    from dumbbell.mesh import Mesh

    m, _ = scene16
    generic = Mesh(3, m.vertices, m.cells)
    with pytest.raises(NonBoxSceneError):
        single_crossing_check(generic, m.vertices[:, 0] - 0.5)


def test_sign_symmetry_random_fields(box8):
    rng = np.random.default_rng(123)
    for _ in range(3):
        u = rng.standard_normal(box8.num_vertices)
        ns_pos = extract_nodal_set(box8, u)
        ns_neg = extract_nodal_set(box8, -u)
        assert np.array_equal(ns_pos.cells, ns_neg.cells)
        assert ns_pos.n_components == ns_neg.n_components
        assert ns_pos.total_area == pytest.approx(ns_neg.total_area, rel=1e-12)


def test_fragments_stay_inside_cells(box8):
    rng = np.random.default_rng(42)
    u = rng.standard_normal(box8.num_vertices)
    ns = extract_nodal_set(box8, u)
    assert not ns.is_empty
    for cid, points in list(zip(ns.cells, ns.polygons()))[::17]:
        cell = box8.cells[cid]
        verts = box8.vertices[cell]
        lo = verts.min(axis=0) - 1e-12
        hi = verts.max(axis=0) + 1e-12
        assert np.all(points >= lo) and np.all(points <= hi)
        # a crossing cell must have mixed signs
        signs = nodal.tie_signs(u)[cell]
        assert signs.min() < signs.max()


def test_noncrossing_cells_have_no_fragment(box8):
    rng = np.random.default_rng(9)
    u = rng.standard_normal(box8.num_vertices)
    ns = extract_nodal_set(box8, u)
    signs = nodal.tie_signs(u)[box8.cells]
    crossing = set(np.flatnonzero(~np.all(signs == signs[:, :1], axis=1)).tolist())
    assert set(ns.cells.tolist()) == crossing
    assert np.all(np.diff(ns.cells) > 0) and ns.starts.size == ns.cells.size + 1


def test_exact_zero_vertices_count_positive(box8):
    u = box8.vertices[:, 0] - 0.5  # vertices on the plane hit exact zero
    signs = nodal.tie_signs(u)
    assert np.all(signs[np.abs(u) < 1e-15] == 1)
    assert extract_nodal_set(box8, u).domains == 2


def test_polygon_soup_round_trip(tmp_path, box8):
    # the zero set as the surface scenario stores it, written by emit --kind surface
    u = box8.vertices[:, 0] - 0.5
    ns = extract_nodal_set(box8, u)
    report = {"artifacts": {"polygons": [poly.tolist() for poly in ns.polygons()]}}
    path = Path(emit_plot_data(report, "surface", tmp_path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == ns.cells.size
    for line, points in zip(lines, ns.polygons()):
        fields = line.split()
        count = int(fields[0])
        assert len(fields) == 1 + 3 * count
        back = np.array([float(x) for x in fields[1:]]).reshape(count, 3)
        np.testing.assert_array_equal(back, points)


def test_eigenfunction_nodal_set(dumbbell16):
    m, geom = dumbbell16["mesh"], dumbbell16["geom"]
    u1 = dumbbell16["result"].vectors[:, 1]
    ns = extract_nodal_set(m, u1)
    reach = max(abs(r) for r in ns.value_range(geom.rho))
    assert ns.n_components == 1
    assert reach < geom.eta
    # the harmonic model predicts the crossing at its affine root
    consts = dumbbell16["consts"]
    root = harmonic.hbar_root(geom.eta, consts)
    assert reach <= abs(root) + 1.0 / m.grid_resolution[0]
    assert single_crossing_check(m, u1)


def test_polygons_ignore_solver_roundoff(dumbbell16):
    # u1 vanishes by symmetry at 17 vertices, where the solver leaves values
    # of either sign near 1e-14 max|u|; the next smallest is 7.6e-6 max|u|,
    # so a 1e-12 max|u| perturbation moves crossings by under 1e-12 / 7.6e-6 h
    m = dumbbell16["mesh"]
    u = dumbbell16["result"].vectors[:, 1]
    noise = np.random.default_rng(0).standard_normal(u.size)
    base = extract_nodal_set(m, u)
    moved = extract_nodal_set(m, u + 1e-12 * np.abs(u).max() * noise)
    assert np.array_equal(moved.cells, base.cells) and np.array_equal(moved.starts, base.starts)
    np.testing.assert_allclose(moved.points, base.points, rtol=0, atol=1e-7)


def _reference_fragment(u, mesh, cid):
    """Corners and metric area of one crossing cell: the per-cell loop, kept as reference."""
    cell = mesh.cells[cid]
    neg = [i for i in range(mesh.dim + 1) if u[cell[i]] < 0]
    pos = [i for i in range(mesh.dim + 1) if u[cell[i]] >= 0]
    if len(neg) == 1 or len(pos) == 1:
        single, others = (neg[0], pos) if len(neg) == 1 else (pos[0], neg)
        pairs = [(single, o) for o in others]
    else:
        pairs = [(neg[0], pos[0]), (neg[0], pos[1]), (neg[1], pos[1]), (neg[1], pos[0])]
    i0, i1 = (np.array(ends, dtype=np.int64) for ends in zip(*pairs))
    v0, v1 = cell[i0], cell[i1]
    t = u[v0] / (u[v0] - u[v1])
    x = mesh.vertices[cell]
    if mesh.periodic:  # every corner along its edge vector mod 1, from the cell's first vertex
        x = x[0] + (x - x[0] - np.round(x - x[0]))
    pts = (1.0 - t)[:, None] * x[i0] + t[:, None] * x[i1]
    g = mesh.cell_metric[cid] if mesh.cell_metric is not None else np.eye(mesh.dim)
    if mesh.dim == 2:
        e = pts[1] - pts[0]
        return pts, v0, v1, t, float(np.sqrt(e @ g @ e))
    area = 0.0
    for k in range(1, pts.shape[0] - 1):
        e1, e2 = pts[k] - pts[0], pts[k + 1] - pts[0]
        gram = np.array([[e1 @ g @ e1, e1 @ g @ e2], [e2 @ g @ e1, e2 @ g @ e2]])
        area += 0.5 * np.sqrt(max(np.linalg.det(gram), 0.0))
    return pts, v0, v1, t, area


def _shared_facets(mesh, pairs):
    """(P, d): the vertices each given pair of cells shares."""
    first, second = mesh.cells[pairs[:, 0]], mesh.cells[pairs[:, 1]]
    return first[(first[:, :, None] == second[:, None, :]).any(axis=2)].reshape(-1, mesh.dim)


def _check_against_per_cell_reference(mesh, fields):
    """Polygons and areas cell by cell, containment at every polygon corner, and components by
    union-find over polygons whose cells share a facet with mixed vertex signs."""
    probe = np.random.default_rng(11).standard_normal(mesh.num_vertices)
    for u in fields:
        ns = extract_nodal_set(mesh, u)
        s = nodal.tie_signs(u)[mesh.cells]
        assert np.array_equal(ns.cells, np.flatnonzero(s.min(axis=1) < s.max(axis=1)))
        areas, corner_values = [], []
        for f, cid in enumerate(ns.cells):
            pts, v0, v1, t, area = _reference_fragment(u, mesh, cid)
            got = ns.points[ns.starts[f] : ns.starts[f + 1]]
            assert got.dtype == pts.dtype and got.tobytes() == pts.tobytes()
            areas.append(area)
            corner_values.append((1.0 - t) * probe[v0] + t * probe[v1])
        assert ns.total_area == float(np.add.reduce(np.asarray(areas)))
        if corner_values:
            corner_values = np.concatenate(corner_values)
            np.testing.assert_allclose(ns.value_range(probe), (corner_values.min(), corner_values.max()),
                                       rtol=0, atol=1e-12)
        index = {cid: k for k, cid in enumerate(ns.cells.tolist())}
        parent = list(range(len(index)))

        def find(k):
            while parent[k] != k:
                k = parent[k]
            return k

        pairs = mesh.interior_cell_pairs()
        fs = nodal.tie_signs(u)[_shared_facets(mesh, pairs)]
        for c0, c1 in pairs[fs.min(axis=1) < fs.max(axis=1)].tolist():
            r0, r1 = sorted((find(index[c0]), find(index[c1])))
            parent[r1] = r0
        roots = [find(k) for k in range(len(index))]
        assert np.array_equal(ns.component_labels, np.unique(roots, return_inverse=True)[1])
        assert ns.n_components == len(set(roots))


@pytest.mark.parametrize("dim, n", [(3, 12), (2, 16)])
def test_batched_fragments_match_per_cell_reference(dim, n):
    from dumbbell.mesh import build_box_grid

    mesh = build_box_grid(dim, n, warp=lambda r: 1 + 0.7 * r)
    rng = np.random.default_rng(5)
    x = mesh.vertices
    _check_against_per_cell_reference(mesh, (rng.standard_normal(mesh.num_vertices), x[:, 0] - 0.5,
                                             np.sum((x - 0.5) ** 2, axis=1) - 0.1))


def _balls(mesh, rng, count):
    """Distance to the union of ``count`` random balls, periodic on a torus: one component each."""
    rel = mesh.vertices[:, None, :] - rng.random((count, mesh.dim))
    if mesh.periodic:
        rel -= np.round(rel)
    return (np.linalg.norm(rel, axis=2) - rng.uniform(0.05, 0.15, count)).min(axis=1)


@pytest.mark.parametrize("scene", ["torus", "file-twin"])
def test_per_cell_reference_on_a_torus_and_a_file_mesh(scene, tmp_path):
    from dumbbell.mesh import build_box_grid, load_mesh, save_mesh

    if scene == "torus":
        mesh = build_box_grid(3, 10, periodic=True)
    else:
        save_mesh(build_box_grid(3, 7, warp=lambda r: 1 + 0.7 * r), tmp_path / "box.mesh")
        mesh = load_mesh(tmp_path / "box.mesh")
    rng = np.random.default_rng(8)
    _check_against_per_cell_reference(mesh, (rng.standard_normal(mesh.num_vertices), _balls(mesh, rng, 12),
                                             np.cos(2 * np.pi * mesh.vertices[:, 0])))


def _reference_domains(mesh, u):
    """Sign-constant vertex components by union-find over every cell edge with equal end signs."""
    signs = nodal.tie_signs(u)
    parent = list(range(mesh.num_vertices))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for cell in mesh.cells.tolist():
        for k, a in enumerate(cell):
            for b in cell[k + 1:]:
                if signs[a] == signs[b]:
                    ra, rb = find(a), find(b)
                    parent[max(ra, rb)] = min(ra, rb)
    return len({find(v) for v in range(mesh.num_vertices)})


@pytest.mark.parametrize("scene", ["box", "box2", "torus", "file"])
@pytest.mark.parametrize("field", ["random", "tied", "zeros"])
def test_domains_are_the_same_sign_edge_components(scene, field, tmp_path):
    from dumbbell.mesh import build_box_grid, load_mesh, save_mesh

    if scene == "file":
        save_mesh(build_box_grid(3, 5, warp=lambda r: 1 + 0.7 * r), tmp_path / "box.mesh")
        mesh = load_mesh(tmp_path / "box.mesh")
    else:
        mesh = {"box": lambda: build_box_grid(3, 6), "box2": lambda: build_box_grid(2, 12),
                "torus": lambda: build_box_grid(3, 5, periodic=True)}[scene]()
    rng = np.random.default_rng(13)
    u = {"random": rng.standard_normal(mesh.num_vertices),
         "tied": rng.integers(-1, 2, mesh.num_vertices).astype(float),
         "zeros": np.zeros(mesh.num_vertices)}[field]
    ns = extract_nodal_set(mesh, u)
    assert ns.domains == _reference_domains(mesh, u)
    assert (ns.domains == 1) == ns.is_empty  # every grid and this file mesh is connected


@pytest.mark.parametrize("d, n", [(3, 12), (3, 24), (2, 16), (2, 32)])
def test_torus_polygons_follow_the_edges_across_the_seam(d, n):
    # cos(2 pi x) vanishes on the planes x = 1/4 and 3/4 (area 2); a cell across a seam
    # has corners wrapped to the far side, which must not drag its polygon mid-box
    from dumbbell.mesh import build_box_grid

    box, torus = build_box_grid(d, n), build_box_grid(d, n, periodic=True)
    ns = extract_nodal_set(torus, np.cos(2 * np.pi * torus.vertices[:, 0]))
    assert ns.n_components == 2
    assert ns.total_area == pytest.approx(2.0, abs=1e-12)
    assert abs(ns.total_area - extract_nodal_set(box, np.cos(2 * np.pi * box.vertices[:, 0])).total_area) <= 1e-12
    np.testing.assert_allclose(np.abs(ns.points[:, 0] - 0.5), 0.25, rtol=0, atol=1e-12)
