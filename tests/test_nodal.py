from pathlib import Path

import numpy as np
import pytest

from dumbbell import harmonic, nodal
from dumbbell.experiments import ScenarioConfig, _build_scene, _solve_point, emit_plot_data
from dumbbell.mesh import simplex_gradient_data
from dumbbell.nodal import (
    NonBoxSceneError,
    extract_nodal_set,
    localization_report,
    nodal_domain_count,
    single_crossing_check,
)


def test_planar_field_single_flat_component(scene16):
    m, geom = scene16
    u = m.vertices[:, 0] - 0.5
    ns = extract_nodal_set(m, u)
    assert ns.n_components == 1
    assert ns.total_area == pytest.approx(1.0, abs=1e-10)
    lo, hi = ns.value_range(geom.rho)
    assert lo == pytest.approx(0.0, abs=1e-14)
    assert hi == pytest.approx(0.0, abs=1e-14)
    rep = localization_report(ns, geom)
    assert rep == (1, pytest.approx(0.0, abs=1e-14), True)


def test_positive_field_empty_set(scene8):
    m, geom = scene8
    ns = extract_nodal_set(m, np.ones(m.num_vertices))
    assert ns.is_empty
    rep = localization_report(ns, geom)
    assert rep.components == 0
    assert np.isnan(rep.max_abs_rho)
    assert rep.contained
    assert ns.min_gradient == np.inf


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
    assert nodal_domain_count(box16, u) == 2
    # second eigenfunction of the flat box is a single cosine: 2 domains
    from dumbbell import assembly, eigen

    pair = assembly.assemble(box16)
    res = eigen.solve_smallest(pair, 3, tol=1e-9)
    assert nodal_domain_count(box16, res.vectors[:, 2]) == 2
    # first eigenfunction of the dumbbell: Courant bound attained
    assert nodal_domain_count(dumbbell16["mesh"], dumbbell16["result"].vectors[:, 1]) == 2


def test_domain_count_scale_invariant(box8):
    rng = np.random.default_rng(7)
    u = rng.standard_normal(box8.num_vertices)
    assert nodal_domain_count(box8, u) == nodal_domain_count(box8, 7.3 * u)


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
        assert len(ns_pos.fragments) == len(ns_neg.fragments)
        assert ns_pos.n_components == ns_neg.n_components
        assert ns_pos.total_area == pytest.approx(ns_neg.total_area, rel=1e-12)


def test_fragments_stay_inside_cells(box8):
    rng = np.random.default_rng(42)
    u = rng.standard_normal(box8.num_vertices)
    ns = extract_nodal_set(box8, u)
    assert not ns.is_empty
    for frag in ns.fragments[::17]:
        cell = box8.cells[frag.cell]
        verts = box8.vertices[cell]
        lo = verts.min(axis=0) - 1e-12
        hi = verts.max(axis=0) + 1e-12
        assert np.all(frag.points >= lo) and np.all(frag.points <= hi)
        # a crossing cell must have mixed signs
        signs = nodal.tie_signs(u)[cell]
        assert signs.min() < signs.max()


def test_noncrossing_cells_have_no_fragment(box8):
    rng = np.random.default_rng(9)
    u = rng.standard_normal(box8.num_vertices)
    ns = extract_nodal_set(box8, u)
    signs = nodal.tie_signs(u)[box8.cells]
    crossing = set(np.flatnonzero(~np.all(signs == signs[:, :1], axis=1)).tolist())
    assert {f.cell for f in ns.fragments} == crossing


def test_exact_zero_vertices_count_positive(box8):
    u = box8.vertices[:, 0] - 0.5  # vertices on the plane hit exact zero
    signs = nodal.tie_signs(u)
    assert np.all(signs[np.abs(u) < 1e-15] == 1)
    assert nodal_domain_count(box8, u) == 2


def test_polygon_soup_round_trip(tmp_path, box8):
    # the zero set as the surface scenario stores it, written by emit --kind surface
    u = box8.vertices[:, 0] - 0.5
    ns = extract_nodal_set(box8, u)
    report = {"artifacts": {"polygons": [frag.points.tolist() for frag in ns.fragments]}}
    path = Path(emit_plot_data(report, "surface", tmp_path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(ns.fragments)
    for line, frag in zip(lines, ns.fragments):
        fields = line.split()
        count = int(fields[0])
        assert len(fields) == 1 + 3 * count
        back = np.array([float(x) for x in fields[1:]]).reshape(count, 3)
        np.testing.assert_array_equal(back, frag.points)


def test_eigenfunction_nodal_set(dumbbell16):
    m, geom = dumbbell16["mesh"], dumbbell16["geom"]
    u1 = dumbbell16["result"].vectors[:, 1]
    ns = extract_nodal_set(m, u1)
    rep = localization_report(ns, geom)
    assert rep.components == 1
    assert rep.contained
    # the harmonic model predicts the crossing at its affine root
    consts = dumbbell16["consts"]
    root = harmonic.hbar_root(geom.eta, consts)
    assert rep.max_abs_rho <= abs(root) + 1.0 / m.grid_resolution[0]
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
    assert [f.cell for f in moved.fragments] == [f.cell for f in base.fragments]
    for got, want in zip(moved.fragments, base.fragments):
        assert got.points.shape == want.points.shape
        np.testing.assert_allclose(got.points, want.points, rtol=0, atol=1e-7)


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
    v0 = np.array([cell[i] for i, _ in pairs], dtype=np.int64)
    v1 = np.array([cell[j] for _, j in pairs], dtype=np.int64)
    t = u[v0] / (u[v0] - u[v1])
    pts = (1.0 - t)[:, None] * mesh.vertices[v0] + t[:, None] * mesh.vertices[v1]
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


@pytest.mark.parametrize("dim, n", [(3, 12), (2, 16)])
def test_batched_fragments_match_per_cell_reference(dim, n):
    from dumbbell.mesh import build_box_grid

    mesh = build_box_grid(dim, n, warp=lambda r: 1 + 0.7 * r)
    rng = np.random.default_rng(5)
    x = mesh.vertices
    for u in (rng.standard_normal(mesh.num_vertices), x[:, 0] - 0.5,
              np.sum((x - 0.5) ** 2, axis=1) - 0.1):
        ns = extract_nodal_set(mesh, u)
        areas = []
        for frag in ns.fragments:
            pts, v0, v1, t, area = _reference_fragment(u, mesh, frag.cell)
            for got, want in ((frag.points, pts), (frag.edge_v0, v0),
                              (frag.edge_v1, v1), (frag.edge_t, t)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            areas.append(area)
        assert ns.total_area == float(np.add.reduce(np.asarray(areas)))
        # components: union-find over fragments sharing a mixed facet
        index = {f.cell: k for k, f in enumerate(ns.fragments)}
        parent = list(range(len(index)))

        def find(k):
            while parent[k] != k:
                k = parent[k]
            return k

        pairs = mesh.interior_cell_pairs()
        facets = mesh.shared_facets(pairs)
        s = nodal.tie_signs(u)[facets]
        for c0, c1 in pairs[s.min(axis=1) < s.max(axis=1)].tolist():
            r0, r1 = sorted((find(index[c0]), find(index[c1])))
            parent[r1] = r0
        roots = [find(k) for k in range(len(index))]
        assert np.array_equal(ns.component_labels, np.unique(roots, return_inverse=True)[1])
        assert ns.n_components == len(set(roots))
