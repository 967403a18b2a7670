import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from dumbbell import eigen, experiments, harmonic, mesh, metric
from dumbbell.assembly import assemble, subdomain_neumann
from dumbbell.mesh import build_box_grid, simplex_gradient_data
from dumbbell.metric import PlaneSigma, build_conformal_field, collar_geometry


def _reference_pair(mesh, field=None, cell_mask=None):
    """K and M built per call from the selected cells' local matrices, by COO."""
    d = mesh.dim
    cell_ids = np.arange(mesh.num_cells) if cell_mask is None else np.flatnonzero(cell_mask)
    cells = mesh.cells[cell_ids]
    dof_map = np.arange(mesh.num_vertices) if cell_mask is None else np.unique(cells)
    local_cells = np.searchsorted(dof_map, cells)
    G, ginv, vol = (a[cell_ids] for a in simplex_gradient_data(mesh))
    stiff = np.einsum("cka,ckl,clb->cab", G, ginv, G) * vol[:, None, None]
    stiff = 0.5 * (stiff + stiff.swapaxes(1, 2))
    mass_ref = (np.ones((d + 1, d + 1)) + np.eye(d + 1)) / ((d + 1) * (d + 2))
    mass = vol[:, None, None] * mass_ref[None, :, :]
    if field is not None:
        f = field.f[cell_ids]
        stiff = stiff * (f ** (d / 2.0 - 1.0))[:, None, None]
        mass = mass * (f ** (d / 2.0))[:, None, None]
    n = dof_map.size
    rows = np.repeat(local_cells, d + 1, axis=1).reshape(-1)
    cols = np.tile(local_cells, (1, d + 1)).reshape(-1)
    K = sparse.coo_matrix((stiff.reshape(-1), (rows, cols)), shape=(n, n)).tocsr()
    M = sparse.coo_matrix((mass.reshape(-1), (rows, cols)), shape=(n, n)).tocsr()
    return K, M, dof_map


_REGION = {"collar": metric.REGION_COLLAR, "plus": metric.REGION_PLUS, "minus": metric.REGION_MINUS}


def _scene(d, n, warp=None):
    m = build_box_grid(d, n, warp=warp)
    geom = collar_geometry(m, PlaneSigma(0.5), 0.25)
    return m, geom


@pytest.mark.parametrize("d, n, warp", [(2, 8, None), (3, 8, None), (3, 8, lambda r: 1.0 + r)])
@pytest.mark.parametrize("profile", ["none", "step", "mollified"])
@pytest.mark.parametrize("region", ["whole", "collar", "plus", "minus"])
def test_reweighting_matches_per_subset_assembly(d, n, warp, profile, region):
    # at d = 2 the stiffness weight f^0 is 1 on every cell, so a mask that
    # multiplied before the power would leak the unselected cells into K; the
    # minus side holds vertex 0, whose diagonal is the pattern's entry id 0
    m, geom = _scene(d, n, warp)
    fld = None if profile == "none" else build_conformal_field(
        geom, 1e-3, profile=profile, mollify_n=None if profile == "step" else n // 2)
    mask = None if region == "whole" else geom.region == _REGION[region]
    K, M, dof_map = _reference_pair(m, fld, mask)
    pair = assemble(m, fld, cell_mask=mask)
    assert np.array_equal(pair.dof_map, dof_map)
    for got, want in ((pair.K, K), (pair.M, M)):
        assert got.shape == want.shape
        assert abs(got - want).max() <= 1e-14 * abs(want).max()


@pytest.mark.parametrize("region", ["whole", "collar", "minus"])
def test_assembled_pairs_do_not_share_the_cached_pattern(scene8, region):
    # K and M share one index structure; a solve, whose K + M/10 shares K's,
    # and the sign rule leave both as a fresh assembly makes them
    m, geom = scene8
    fld = build_conformal_field(geom, 1e-1)
    mask = None if region == "whole" else geom.region == _REGION[region]
    first = assemble(m, fld, cell_mask=mask)
    assert np.shares_memory(first.K.indices, first.M.indices) and np.shares_memory(first.K.indptr, first.M.indptr)
    eigen.apply_sign_rule(eigen.solve_smallest(first, 2), first, geom)
    again = assemble(m, fld, cell_mask=mask)
    for got, want in ((first.K, again.K), (first.M, again.M)):
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))
    K, M = first.K.copy(), first.M.copy()
    first.K.indices[:] = 0
    first.M.indptr[:] = 0
    again = assemble(m, fld, cell_mask=mask)
    assert abs(again.K - K).max() == 0 and abs(again.M - M).max() == 0


@pytest.mark.parametrize("workers", [1, 2])
def test_scaling_sweep_builds_cell_operators_once(monkeypatch, workers):
    calls = []

    def counting(m):  # slow, so a second thread arrives mid-build
        calls.append(m)
        time.sleep(0.2)
        return simplex_gradient_data(m)

    monkeypatch.setattr(mesh, "simplex_gradient_data", counting)
    cfg = experiments.ScenarioConfig.from_mapping(
        {"scenario": "scaling", "n": 8, "oracle_resolution": 256, "workers": workers})
    assert len(cfg.epsilons) == 5
    report = experiments.run_scenario(cfg)
    assert not report.failures
    assert len(calls) == 1


def test_constants_in_null_space(box8):
    pair = assemble(box8)
    ones = np.ones(pair.n_dof)
    scale = np.abs(pair.K.data).max()
    assert np.abs(pair.K @ ones).max() < 1e-13 * scale
    assert ones @ (pair.M @ ones) == pytest.approx(1.0, abs=1e-12)


def test_symmetry_probes(scene16):
    m, geom = scene16
    fld = build_conformal_field(geom, 1e-3)
    pair = assemble(m, fld)
    rng = np.random.default_rng(11)
    for _ in range(3):
        x = rng.standard_normal(pair.n_dof)
        y = rng.standard_normal(pair.n_dof)
        for op in (pair.K, pair.M):
            lhs, rhs = x @ (op @ y), y @ (op @ x)
            assert abs(lhs - rhs) <= 1e-14 * max(abs(lhs), abs(rhs), 1e-30)


def test_total_mass_is_conformal_volume(scene16):
    m, geom = scene16
    fld = build_conformal_field(geom, 0.01)
    pair = assemble(m, fld)
    expected = float(np.add.reduce(fld.f**1.5 * geom.cell_volumes))
    assert pair.M.sum() == pytest.approx(expected, rel=1e-12)


def test_mass_row_sums_positive(scene16):
    m, geom = scene16
    pair = assemble(m, build_conformal_field(geom, 1e-3))
    assert np.asarray(pair.M.sum(axis=1)).min() > 0


def test_flat_box_first_eigenvalue(box16):
    pair = assemble(box16)
    res = eigen.solve_smallest(pair, 2, tol=1e-9)
    assert abs(res.values[1] - np.pi**2) / np.pi**2 < 0.02


@pytest.mark.parametrize("sigma", [PlaneSigma(0.5), metric.sphere_level((0.5, 0.5, 0.5), 0.3)],
                         ids=["plane", "sphere"])
def test_minmax_vector_energy_only_from_collar(box16, sigma):
    # the min-max test vector: clip(rho, -eta, eta), and +-eta on every vertex of a bulk cell
    geom = collar_geometry(box16, sigma, 0.125)
    fld = build_conformal_field(geom, 1e-3)
    u = np.clip(geom.rho, -geom.eta, geom.eta)
    u[box16.cells[geom.region == metric.REGION_PLUS]] = geom.eta
    u[box16.cells[geom.region == metric.REGION_MINUS]] = -geom.eta
    full = assemble(box16, fld)
    Mones = full.M @ np.ones(full.n_dof)
    centered = u - (u @ Mones) / Mones.sum()
    assert eigen.minmax_bound(box16, geom, full) == pytest.approx(eigen.rayleigh_quotient(full, centered), rel=1e-12)
    # assemble over the two plateau regions only: the vector is constant on each of their cells
    pair_out = assemble(box16, fld, cell_mask=geom.region != metric.REGION_COLLAR)
    u_out = u[pair_out.dof_map]
    assert abs(u_out @ (pair_out.K @ u_out)) < 1e-10 * (u @ (full.K @ u))


def test_scaling_covariance(scene8):
    m, geom = scene8
    fld = build_conformal_field(geom, 0.1)
    pair = assemble(m, fld)
    pair4 = assemble(m, replace(fld, f=fld.f * 4.0))
    rng = np.random.default_rng(0)
    v = rng.standard_normal(pair.n_dof)
    d = 3
    assert v @ (pair4.K @ v) == pytest.approx(4.0 ** (d / 2 - 1) * (v @ (pair.K @ v)), rel=1e-12)
    assert v @ (pair4.M @ v) == pytest.approx(4.0 ** (d / 2) * (v @ (pair.M @ v)), rel=1e-12)


def test_minmax_lower_bound_random_probes(scene8):
    m, geom = scene8
    fld = build_conformal_field(geom, 0.1)
    pair = assemble(m, fld)
    res = eigen.solve_smallest(pair, 2, tol=1e-10)
    lam1 = res.values[1]
    ones = np.ones(pair.n_dof)
    Mones = pair.M @ ones
    rng = np.random.default_rng(5)
    for _ in range(5):
        v = rng.standard_normal(pair.n_dof)
        v -= (v @ Mones) / (ones @ Mones)
        assert eigen.rayleigh_quotient(pair, v) >= lam1 - 1e-9


def test_dirichlet_constant_boundary(scene8):
    m, geom = scene8
    sol = harmonic.solve_harmonic(m, geom, harmonic.PlateauConstants(3.3, 3.3, 1.0))
    assert np.abs(sol.values - 3.3).max() < 1e-10


def test_dirichlet_affine_exact_on_flat_collar(scene8):
    m, geom = scene8
    sol = harmonic.solve_harmonic(m, geom, harmonic.PlateauConstants(1.0, -1.0, 1.0))
    expected = geom.rho[sol.vertex_ids] / geom.eta
    assert np.abs(sol.values - expected).max() < 1e-10
    # interior residual of the full operator vanishes
    pair = assemble(m, cell_mask=geom.region == metric.REGION_COLLAR)
    boundary = np.concatenate(harmonic.collar_boundary_vertices(m, geom))
    interior = np.setdiff1d(np.arange(pair.n_dof), np.searchsorted(pair.dof_map, boundary))
    assert np.abs((pair.K @ sol.values)[interior]).max() < 1e-10


def test_dirichlet_warped_matches_1d_oracle():
    eta = 0.2
    warp = lambda r: 1.0 + r
    errs = []
    for n in (10, 20):
        m = build_box_grid(3, n, warp=warp, sigma_offset=0.5)
        geom = collar_geometry(m, PlaneSigma(0.5), eta)
        consts = harmonic.compute_plateaus(
            geom.vol_plus, geom.vol_minus,
            metric.kappa_zero(geom.vol_collar, geom.vol_complement, 3), 3)
        sol = harmonic.solve_harmonic(m, geom, consts)
        oracle_h = harmonic.warped_harmonic_1d(warp, eta, consts, 3)
        errs.append(np.abs(sol.values - oracle_h(geom.rho[sol.vertex_ids])).max())
    assert errs[1] < 0.01
    assert errs[0] / errs[1] > 2.5  # second-order convergence


def test_subdomain_neumann_slab_spectrum(scene16):
    # slab (0.625, 1) x (0, 1)^2: the lowest nontrivial mode is the unit
    # cross-section cosine, min(pi^2 / 0.375^2, pi^2) = pi^2
    m, geom = scene16
    pair = subdomain_neumann(m, geom, "plus")
    res = eigen.solve_smallest(pair, 2, tol=1e-9)
    assert res.values[0] == pytest.approx(0.0, abs=1e-8)
    assert abs(res.values[1] - np.pi**2) / np.pi**2 < 0.02


def test_subdomain_mirror_symmetry(scene16):
    m, geom = scene16
    mus = []
    for side in ("plus", "minus"):
        pair = subdomain_neumann(m, geom, side)
        res = eigen.solve_smallest(pair, 2, tol=1e-10)
        mus.append(res.values[1])
    assert mus[0] == pytest.approx(mus[1], rel=1e-8)


def test_subdomain_rejects_unknown_side(scene8):
    m, geom = scene8
    with pytest.raises(ValueError, match="side"):
        subdomain_neumann(m, geom, "left")
