import inspect
from dataclasses import replace

import numpy as np
import pytest

from dumbbell import assembly, eigen, harmonic, metric, nodal
from dumbbell.mesh import load_mesh, save_mesh
from dumbbell.metric import (
    PlaneSigma,
    SeparationError,
    build_conformal_field,
    collar_geometry,
    kappa,
    kappa_zero,
    signed_distance,
    sphere_level,
    torus_level,
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
    assert np.abs(rho - exact).max() <= 1e-14


def test_torus_distance_parametric_oracle(box16):
    # the level set is returned as is; |func| against the nearest point of a dense (u, v) sample of the
    # surface: never below the true distance, and above it by at most half
    # the diagonal of a parameter cell
    from scipy.spatial import cKDTree

    major, minor, nu, nv = 0.3, 0.14, 1200, 600
    torus = torus_level((0.5, 0.5, 0.5), major, minor)
    rho = signed_distance(box16, torus)
    assert np.array_equal(rho, torus.func(box16.vertices))
    u, v = np.meshgrid(np.arange(nu) * (2 * np.pi / nu), np.arange(nv) * (2 * np.pi / nv),
                       indexing="ij")
    ring = major + minor * np.cos(v)
    surface = np.stack([ring * np.cos(u), ring * np.sin(u), minor * np.sin(v)], axis=-1)
    sampled, _ = cKDTree(surface.reshape(-1, 3) + 0.5).query(box16.vertices)
    spacing = 0.5 * np.hypot(2 * np.pi * (major + minor) / nu, 2 * np.pi * minor / nv)
    gap = sampled - np.abs(rho)
    assert gap.min() >= -1e-12
    assert gap.max() <= spacing


def test_level_set_must_separate(box8):
    # every vertex outside, then every vertex inside
    for sigma in (sphere_level((5.0, 5.0, 5.0), 0.1), sphere_level((0.5, 0.5, 0.5), 5.0)):
        with pytest.raises(SeparationError):
            signed_distance(box8, sigma)


def test_collar_volumes_partition(scene16):
    m, geom = scene16
    total = m.cell_operators().volumes.sum()
    assert geom.vol_collar + geom.vol_plus + geom.vol_minus == pytest.approx(total, abs=1e-13)
    assert geom.vol_collar == pytest.approx(0.25, abs=1e-12)  # eta = 2/16 on both sides


def test_labels_idempotent(scene16):
    m, geom = scene16
    again = collar_geometry(m, PlaneSigma(0.5), geom.eta)
    assert np.array_equal(again.region, geom.region)
    assert again.eta == geom.eta


def test_eta_snapping(box8, box16, tmp_path):
    geom = collar_geometry(box16, PlaneSigma(0.5), 0.11)  # snaps to 2/16
    assert geom.eta == pytest.approx(0.125)
    # only a plane on a grid snaps: a sphere on the grid and a plane on a file mesh keep eta
    save_mesh(box8, tmp_path / "box.mesh")
    for m, sigma in ((box16, sphere_level((0.5,) * 3, 0.3)), (load_mesh(tmp_path / "box.mesh"), PlaneSigma(0.5))):
        geom = collar_geometry(m, sigma, 0.11)
        assert geom.eta == 0.11


def test_geometry_fixes_the_dimension_and_the_snap():
    # a function handed the collar geometry or a conformal field reads d from it
    takes_d = []
    for module in (metric, eigen, harmonic, assembly, nodal):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if name.startswith("_") or fn.__module__ != module.__name__:
                continue
            params = inspect.signature(fn).parameters
            annotations = " ".join(str(p.annotation) for p in params.values())
            if ("CollarGeometry" in annotations or "ConformalField" in annotations) and "d" in params:
                takes_d.append(f"{module.__name__}.{name}")
    assert takes_d == []
    assert "snap" not in inspect.signature(collar_geometry).parameters


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kappa_rejects_non_finite_volumes(bad):
    for vols in ((bad, 0.75), (0.25, bad)):
        with pytest.raises(ValueError, match="positive and finite"):
            kappa(0.5, *vols, 3)
        with pytest.raises(ValueError, match="positive and finite"):
            kappa_zero(*vols, 3)


def test_step_field_two_values(scene16):
    _, geom = scene16
    fld = build_conformal_field(geom, 0.1)
    values = np.unique(fld.f)
    assert values.size == 2
    assert values[0] == pytest.approx(0.1)
    assert values[1] == pytest.approx(fld.kappa)
    collar = geom.region == metric.REGION_COLLAR
    assert np.all(fld.f[collar] == 0.1)
    assert np.all(fld.f[~collar] == fld.kappa)


def test_mollified_bounds_and_interior(scene16):
    _, geom = scene16
    fld = build_conformal_field(geom, 0.1, mollify_n=16)
    assert fld.f.min() >= 0.1 - 1e-15
    assert fld.f.max() <= fld.kappa + 1e-15
    deep = np.abs(geom.cell_rho) <= geom.eta - 1.0 / 16.0
    outside = np.abs(geom.cell_rho) >= geom.eta
    assert np.all(fld.f[deep] == 0.1)
    assert np.all(fld.f[outside] == fld.kappa)


def test_mollified_converges_to_step(scene16):
    import warnings

    _, geom = scene16
    step = build_conformal_field(geom, 0.1)
    errs = []
    for n in (16, 64, 256):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # sub-spacing widths on purpose
            moll = build_conformal_field(geom, 0.1, mollify_n=n)
        keep = np.abs(np.abs(geom.cell_rho) - geom.eta) > 1.0 / n
        errs.append(np.abs(moll.f - step.f)[keep].max() if keep.any() else 0.0)
    assert errs[-1] == 0.0  # band narrower than one layer: no barycenter inside


def test_mollified_monotone_in_distance(scene16):
    _, geom = scene16
    fld = build_conformal_field(geom, 0.1, mollify_n=8)
    order = np.argsort(np.abs(geom.cell_rho))
    f_sorted = fld.f[order]
    assert np.all(np.diff(f_sorted) >= -1e-12)  # nondecreasing in |rho|


def test_mollified_width_warning(scene16):
    _, geom = scene16
    with pytest.warns(UserWarning, match="below the mesh spacing"):
        build_conformal_field(geom, 0.1, mollify_n=64)


@pytest.mark.parametrize("eps", [1.0, 0.3, 0.01, 1e-3])
def test_step_volume_preserved(scene16, eps):
    _, geom = scene16
    fld = build_conformal_field(geom, eps)
    assert verify_volume_preservation(fld, geom) <= 1e-12


def test_mollified_volume_defect_positive(scene16):
    _, geom = scene16
    fld = build_conformal_field(geom, 0.1, mollify_n=8)
    defect = verify_volume_preservation(fld, geom)
    assert defect > 1e-6
    gamma = volume_rescale_factor(fld, geom)
    rescaled = replace(fld, f=fld.f * gamma)
    assert verify_volume_preservation(rescaled, geom) <= 1e-12


def test_conformal_field_validation(scene16):
    _, geom = scene16
    with pytest.raises(ValueError):
        build_conformal_field(geom, -0.5)
    with pytest.raises(ValueError):
        build_conformal_field(geom, 0.5, mollify_n=0)
