import numpy as np
import pytest

from dumbbell import metric
from dumbbell.mesh import build_box_grid
from dumbbell.metric import (
    PlaneSigma,
    SeparationError,
    build_conformal_field,
    collar_geometry,
    kappa,
    kappa_zero,
    signed_distance,
    sphere_level,
    verify_volume_preservation,
    volume_rescale_factor,
)


def test_plane_distance_exact(box8):
    rho = signed_distance(box8, PlaneSigma(0.5))
    assert rho[np.argmin(np.abs(box8.vertices - [0.75, 0.5, 0.5]).sum(axis=1))] == pytest.approx(0.25)
    on_plane = np.abs(box8.vertices[:, 0] - 0.5) < 1e-14
    assert np.abs(rho[on_plane]).max() == 0.0


def test_sphere_distance_radial_oracle(box16):
    # oracle: for the sphere, the signed distance is exactly |x - c| - r
    rho = signed_distance(box16, sphere_level((0.5, 0.5, 0.5), 0.3))
    exact = np.linalg.norm(box16.vertices - 0.5, axis=1) - 0.3
    h = 1.0 / 16.0
    near = np.abs(exact) < 0.1 + 1e-12
    assert np.abs(rho - exact)[near].max() < 2.0 * h * h


def _loop_fan_triangles(mesh, phi):
    """The per-fragment fan loop that `_zero_set_triangles` replaced, kept as reference."""
    from dumbbell.nodal import extract_nodal_set

    tris = []
    for frag in extract_nodal_set(mesh, phi).fragments:
        pts = frag.points
        if mesh.dim == 2:
            tris.append(pts[None, :, :])
        else:
            for k in range(1, pts.shape[0] - 1):
                tris.append(pts[None, (0, k, k + 1), :])
    return np.concatenate(tris)


def _brute_distance(points, tris, d):
    """Distance to the nearest fragment over all point-fragment pairs, kept
    as the reference for the pruned `_distance_to_triangles`."""
    out = np.empty(points.shape[0])
    chunk = max(1, 4_000_000 // tris.shape[0])
    for start in range(0, points.shape[0], chunk):
        p = points[start : start + chunk, None, :]
        if d == 2:
            d2 = metric._point_segment_sq(p, tris[:, 0], tris[:, 1])
        else:
            d2 = metric._point_triangle_sq(p, tris[:, 0], tris[:, 1], tris[:, 2])
        out[start : start + chunk] = np.sqrt(d2.min(axis=1))
    return out


def _sorted_rows(tris):
    flat = tris.reshape(tris.shape[0], -1)
    return flat[np.lexsort(flat.T[::-1])]


@pytest.mark.parametrize("d, n, sigma", [
    (3, 16, metric.sphere_level((0.5, 0.5, 0.5), 0.3)),
    (3, 16, metric.torus_level((0.5, 0.5, 0.5), 0.3, 0.14)),
    (2, 24, metric.sphere_level((0.5, 0.5), 0.3)),
], ids=["sphere", "torus", "circle"])
def test_zero_set_fan_matches_reference_loop(d, n, sigma):
    m = build_box_grid(d, n)
    phi = sigma.func(m.vertices)
    ref = _loop_fan_triangles(m, phi)
    tris = metric._zero_set_triangles(m, phi)
    assert tris.shape == ref.shape
    assert np.array_equal(_sorted_rows(tris), _sorted_rows(ref))
    ref_rho = np.where(phi >= 0, 1.0, -1.0) * _brute_distance(m.vertices, ref, d)
    assert np.array_equal(signed_distance(m, sigma), ref_rho)


def test_point_triangle_distance_brute_force():
    # dense barycentric sampling can only overestimate the true distance,
    # and never by more than the sampling spacing
    from dumbbell.metric import _point_triangle_sq

    rng = np.random.default_rng(0)
    tris = rng.standard_normal((12, 3, 3))
    pts = rng.standard_normal((10, 3)) * 1.5
    d2 = _point_triangle_sq(pts[:, None], tris[:, 0], tris[:, 1], tris[:, 2])

    n = 120
    u, v = np.meshgrid(np.linspace(0, 1, n), np.linspace(0, 1, n), indexing="ij")
    keep = (u + v) <= 1.0
    u, v = u[keep], v[keep]
    edges = np.concatenate([tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 1],
                            tris[:, 2] - tris[:, 0]])
    spacing = np.linalg.norm(edges, axis=1).max() / n
    for t in range(tris.shape[0]):
        a, b, c = tris[t]
        cloud = a[None] + u[:, None] * (b - a)[None] + v[:, None] * (c - a)[None]
        for p in range(pts.shape[0]):
            sampled = np.sqrt(((pts[p][None] - cloud) ** 2).sum(axis=1).min())
            exact = np.sqrt(d2[p, t])
            assert exact <= sampled + 1e-12
            assert sampled - exact <= 1.5 * spacing


def test_level_set_must_separate(box8):
    with pytest.raises(SeparationError):
        signed_distance(box8, sphere_level((5.0, 5.0, 5.0), 0.1))


def test_collar_volumes_partition(scene16):
    m, geom = scene16
    total = m.total_volume()
    assert geom.vol_collar + geom.vol_plus + geom.vol_minus == pytest.approx(total, abs=1e-13)
    assert geom.vol_collar == pytest.approx(0.25, abs=1e-12)  # eta = 2/16 on both sides


def test_labels_idempotent(scene16):
    m, geom = scene16
    again = collar_geometry(m, geom.rho, geom.eta)
    assert np.array_equal(again.region, geom.region)
    assert again.eta == geom.eta


def test_eta_snapping(box16):
    rho = signed_distance(box16, PlaneSigma(0.5))
    geom = collar_geometry(box16, rho, 0.11)  # snaps to 2/16
    assert geom.eta == pytest.approx(0.125)
    assert geom.grid_aligned


def test_kappa_closed_form():
    assert kappa(1.0, 0.3, 0.7, 3) == pytest.approx(1.0)
    assert kappa_zero(1.0, 1.0, 3) == pytest.approx(2.0 ** (2.0 / 3.0))


@pytest.mark.parametrize("eps", [1.0, 0.5, 0.1, 0.01, 1e-4])
def test_kappa_volume_identity(eps):
    vc, vo = 0.25, 0.75
    k = kappa(eps, vc, vo, 3)
    assert eps ** 1.5 * vc + k ** 1.5 * vo == pytest.approx(vc + vo, abs=1e-14)


def test_kappa_monotone_in_epsilon():
    eps = np.linspace(0.05, 1.0, 20)
    vals = [kappa(e, 0.25, 0.75, 3) for e in eps]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(1.0)


def test_kappa_validation():
    with pytest.raises(ValueError):
        kappa(0.5, -1.0, 0.75, 3)
    with pytest.raises(ValueError):
        kappa(0.0, 0.25, 0.75, 3)


def test_step_field_two_values(scene16):
    _, geom = scene16
    fld = build_conformal_field(geom, 0.1, 3)
    values = np.unique(fld.f)
    assert values.size == 2
    assert values[0] == pytest.approx(0.1)
    assert values[1] == pytest.approx(fld.kappa)
    collar = geom.region == metric.REGION_COLLAR
    assert np.all(fld.f[collar] == 0.1)
    assert np.all(fld.f[~collar] == fld.kappa)


def test_mollified_bounds_and_interior(scene16):
    _, geom = scene16
    fld = build_conformal_field(geom, 0.1, 3, profile="mollified", mollify_n=16)
    assert fld.f.min() >= 0.1 - 1e-15
    assert fld.f.max() <= fld.kappa + 1e-15
    deep = np.abs(geom.cell_rho) <= geom.eta - 1.0 / 16.0
    outside = np.abs(geom.cell_rho) >= geom.eta
    assert np.all(fld.f[deep] == 0.1)
    assert np.all(fld.f[outside] == fld.kappa)


def test_mollified_converges_to_step(scene16):
    import warnings

    _, geom = scene16
    step = build_conformal_field(geom, 0.1, 3)
    errs = []
    for n in (16, 64, 256):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # sub-spacing widths on purpose
            moll = build_conformal_field(geom, 0.1, 3, profile="mollified", mollify_n=n)
        keep = np.abs(np.abs(geom.cell_rho) - geom.eta) > 1.0 / n
        errs.append(np.abs(moll.f - step.f)[keep].max() if keep.any() else 0.0)
    assert errs[-1] == 0.0  # band narrower than one layer: no barycenter inside


def test_mollified_monotone_in_distance(scene16):
    _, geom = scene16
    fld = build_conformal_field(geom, 0.1, 3, profile="mollified", mollify_n=8)
    order = np.argsort(np.abs(geom.cell_rho))
    f_sorted = fld.f[order]
    assert np.all(np.diff(f_sorted) >= -1e-12)  # nondecreasing in |rho|


def test_mollified_width_warning(scene16):
    _, geom = scene16
    with pytest.warns(UserWarning, match="below the mesh spacing"):
        build_conformal_field(geom, 0.1, 3, profile="mollified", mollify_n=64)


@pytest.mark.parametrize("eps", [1.0, 0.3, 0.01, 1e-3])
def test_step_volume_preserved(scene16, eps):
    _, geom = scene16
    fld = build_conformal_field(geom, eps, 3)
    assert verify_volume_preservation(fld, geom, 3) <= 1e-12


def test_mollified_volume_defect_positive(scene16):
    _, geom = scene16
    fld = build_conformal_field(geom, 0.1, 3, profile="mollified", mollify_n=8)
    defect = verify_volume_preservation(fld, geom, 3)
    assert defect > 1e-6
    gamma = volume_rescale_factor(fld, geom, 3)
    rescaled = fld.scaled(gamma)
    assert verify_volume_preservation(rescaled, geom, 3) <= 1e-12


def test_conformal_field_validation(scene16):
    _, geom = scene16
    with pytest.raises(ValueError):
        build_conformal_field(geom, -0.5, 3)
    with pytest.raises(ValueError):
        build_conformal_field(geom, 0.5, 3, profile="mollified", mollify_n=0)
