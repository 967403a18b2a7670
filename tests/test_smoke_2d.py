"""Two-dimensional smoke coverage.

Most quantitative gates live in three dimensions (the collapse exponent
d/2 - 1 vanishes at d = 2); these tests exercise the pipeline end to end on
planar scenes, and the scaling gate's band follows d.
"""

import numpy as np
import pytest

from dumbbell import assembly, eigen, metric, nodal
from dumbbell.experiments import ScenarioConfig, run_scenario
from dumbbell.mesh import build_box_grid


@pytest.fixture(scope="module")
def plane_scene():
    m = build_box_grid(2, 12)
    geom = metric.collar_geometry(m, metric.PlaneSigma(0.5), 1.0 / 6.0)
    return m, geom


def test_2d_dumbbell_pipeline(plane_scene):
    m, geom = plane_scene
    fld = metric.build_conformal_field(geom, 0.05)
    assert metric.verify_volume_preservation(fld, geom) <= 1e-12
    # the field reads d = 2 from the mesh: the volume weight f^(d/2) is f itself
    assert fld.epsilon * geom.vol_collar + fld.kappa * geom.vol_complement == pytest.approx(1.0, abs=1e-12)
    pair = assembly.assemble(m, fld)
    bound = eigen.minmax_bound(m, geom, pair)
    res = eigen.apply_sign_rule(eigen.solve_smallest(pair, 2, tol=1e-9), pair, geom)
    assert 0 < res.values[1] <= bound
    u1 = res.vectors[:, 1]
    assert u1[geom.rho >= 2 * geom.eta].mean() > 0


def test_2d_nodal_segments(plane_scene):
    m, geom = plane_scene
    u = m.vertices[:, 0] - 0.5
    ns = nodal.extract_nodal_set(m, u)
    assert ns.n_components == 1
    assert ns.total_area == pytest.approx(1.0, abs=1e-12)  # total length here
    assert all(poly.shape == (2, 2) for poly in ns.polygons())
    assert nodal.nodal_domain_count(m, u) == 2
    assert nodal.single_crossing_check(m, u)


def test_2d_circle_level_set():
    # the circle is its own signed distance: exactly |x - c| - r everywhere
    m = build_box_grid(2, 24)
    rho = metric.signed_distance(m, metric.sphere_level((0.5, 0.5), 0.3))
    exact = np.linalg.norm(m.vertices - 0.5, axis=1) - 0.3
    assert np.abs(rho - exact).max() <= 1e-14


def test_2d_scaling_slope_band_follows_dimension():
    # lambda1 ~ eps^(d/2 - 1) is flat at d = 2; both bands centre on 0 there
    report = run_scenario(ScenarioConfig.from_mapping(
        {"scenario": "scaling", "d": 2, "n": 16, "oracle_resolution": 256}))
    assert not report.failures
    slopes = {v.name: v for v in report.verdicts if v.name.endswith("scaling-slope")}
    assert slopes["eigenvalue-scaling-slope"].threshold == [-0.1, 0.1]
    assert slopes["oracle-scaling-slope"].threshold == [-0.05, 0.05]
    assert all(v.passed for v in slopes.values()), [v.to_dict() for v in slopes.values()]
