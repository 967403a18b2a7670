import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from dumbbell import harmonic
from dumbbell.assembly import assemble
from dumbbell.harmonic import (
    PlateauConstants,
    collar_fourier_solve,
    compute_plateaus,
    hbar,
    hbar_root,
    solve_harmonic,
    warped_harmonic_1d,
)
from dumbbell.mesh import build_box_grid, load_mesh, save_mesh
from dumbbell.metric import (
    REGION_COLLAR,
    REGION_MINUS,
    REGION_PLUS,
    PlaneSigma,
    collar_geometry,
    kappa_zero,
    sphere_level,
    torus_level,
)


def warped_scene(n=20, eta=0.2, slope=1.0):
    warp = lambda r: 1.0 + slope * r
    m = build_box_grid(3, n, warp=warp, sigma_offset=0.5)
    geom = collar_geometry(m, PlaneSigma(0.5), eta)
    consts = compute_plateaus(
        geom.vol_plus, geom.vol_minus,
        kappa_zero(geom.vol_collar, geom.vol_complement, 3), 3)
    return m, geom, consts, warp


def test_plateau_symmetric_case():
    v = 0.375
    c = compute_plateaus(v, v, 1.3, 3)
    assert c.c_plus == pytest.approx(1.3 ** -0.75 / np.sqrt(2 * v))
    assert c.c_minus == pytest.approx(-c.c_plus)


def test_plateau_two_to_one_volumes():
    # algebra: vol+ = 2V, vol- = V gives c- = -2 c+ and c+ = k0^{-3/4}/sqrt(6V)
    V = 0.31
    c = compute_plateaus(2 * V, V, 1.0, 3)
    assert c.c_minus == pytest.approx(-2 * c.c_plus)
    assert c.c_plus == pytest.approx(1.0 / np.sqrt(6 * V))


@pytest.mark.parametrize("seed", range(4))
def test_plateau_defining_identities(seed):
    rng = np.random.default_rng(seed)
    vp, vm = rng.uniform(0.05, 2.0, size=2)
    k0 = rng.uniform(1.0, 2.0)
    c = compute_plateaus(vp, vm, k0, 3)
    assert c.c_plus * vp + c.c_minus * vm == pytest.approx(0.0, abs=1e-14)
    assert c.c_plus**2 * vp + c.c_minus**2 * vm == pytest.approx(k0**-1.5, abs=1e-12)
    assert c.c_plus > 0 > c.c_minus


def test_plateau_rejects_zero_volume():
    with pytest.raises(ValueError):
        compute_plateaus(0.0, 1.0, 1.0, 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("slot", ["vol_plus", "vol_minus", "kappa0"])
def test_plateau_rejects_non_finite_input(slot, bad):
    args = {"vol_plus": 0.4, "vol_minus": 0.5, "kappa0": 1.2, slot: bad}
    with pytest.raises(ValueError, match="positive and finite"):
        compute_plateaus(**args, d=3)


def test_hbar_endpoints_midpoint_root():
    c = PlateauConstants(1.0, -0.5, 1.0)
    assert hbar(0.2, 0.2, c) == pytest.approx(1.0)
    assert hbar(-0.2, 0.2, c) == pytest.approx(-0.5)
    assert hbar(0.0, 0.2, c) == pytest.approx(0.25)
    root = hbar_root(0.2, c)
    assert hbar(root, 0.2, c) == pytest.approx(0.0, abs=1e-15)
    sym = PlateauConstants(0.7, -0.7, 1.0)
    assert hbar_root(0.2, sym) == pytest.approx(0.0)


def test_hbar_requires_positive_eta():
    with pytest.raises(ValueError):
        hbar(0.0, -1.0, PlateauConstants(1.0, -1.0, 1.0))


def test_flat_collar_harmonic_is_affine(scene16):
    m, geom = scene16
    consts = compute_plateaus(
        geom.vol_plus, geom.vol_minus,
        kappa_zero(geom.vol_collar, geom.vol_complement, 3), 3)
    sol = solve_harmonic(m, geom, consts)
    assert sol.sup_deviation <= 1e-10
    values_on_plus = sol.values[np.isin(sol.vertex_ids, sol.boundary_plus)]
    assert np.abs(values_on_plus - consts.c_plus).max() < 1e-14


def test_constant_boundary_gives_constant(scene8):
    m, geom = scene8
    consts = PlateauConstants(0.7, 0.7, 1.0)
    sol = solve_harmonic(m, geom, consts)
    assert np.abs(sol.values - 0.7).max() < 1e-10


def test_collar_thinner_than_a_cell_is_rejected():
    # at n = 6 two vertices of the sphere's collar touch both bulk regions,
    # so they would be held at c+ and at c- at once
    m = build_box_grid(3, 6)
    geom = collar_geometry(m, sphere_level((0.5,) * 3, 0.3), 0.125)
    with pytest.raises(ValueError, match="borders both bulk regions"):
        solve_harmonic(m, geom, PlateauConstants(1.0, -1.0, 1.0))


def limit_plateaus(geom):
    return compute_plateaus(
        geom.vol_plus, geom.vol_minus,
        kappa_zero(geom.vol_collar, geom.vol_complement, 3), 3)


def direct_reference(m, geom, consts):
    """The reduced collar system built here from vertex sets and solved directly."""
    pair = assemble(m, cell_mask=geom.region == REGION_COLLAR)
    verts = {r: np.unique(m.cells[geom.region == r]) for r in (REGION_COLLAR, REGION_PLUS, REGION_MINUS)}
    b_plus = np.intersect1d(verts[REGION_COLLAR], verts[REGION_PLUS])
    b_minus = np.intersect1d(verts[REGION_COLLAR], verts[REGION_MINUS])
    boundary = np.searchsorted(pair.dof_map, np.concatenate([b_plus, b_minus]))
    interior = np.setdiff1d(np.arange(pair.n_dof), boundary)
    h = np.zeros(pair.n_dof)
    h[boundary] = np.concatenate([np.full(b_plus.size, consts.c_plus), np.full(b_minus.size, consts.c_minus)])
    K = pair.K.tocsr()
    h[interior] = spsolve(K[interior][:, interior].tocsc(), -(K[interior][:, boundary] @ h[boundary]))
    return pair, b_plus, interior, h


def sphere24(tmp_path):
    m = build_box_grid(3, 24)
    return m, collar_geometry(m, sphere_level((0.5,) * 3, 0.3), 0.125)


def torus32(tmp_path):
    m = build_box_grid(3, 32)
    return m, collar_geometry(m, torus_level((0.5,) * 3, 0.25, 0.14), 1 / 16)


def warped_plane20(tmp_path):
    return warped_scene(n=20)[:2]


def file_plane8(tmp_path):
    path = tmp_path / "box8.mesh"
    save_mesh(build_box_grid(3, 8), path)
    m = load_mesh(path)
    return m, collar_geometry(m, PlaneSigma(0.5), 0.125)


@pytest.mark.parametrize("scene", [sphere24, torus32, warped_plane20, file_plane8])
def test_cg_extension_matches_a_direct_solve_on_curved_and_file_collars(tmp_path, scene):
    m, geom = scene(tmp_path)
    consts = limit_plateaus(geom)
    sol = solve_harmonic(m, geom, consts)
    pair, b_plus, interior, h_ref = direct_reference(m, geom, consts)
    assert np.array_equal(sol.vertex_ids, pair.dof_map)
    assert np.array_equal(sol.boundary_plus, b_plus)
    assert np.abs(sol.values - h_ref).max() <= 1e-11 * consts.gap
    assert np.abs((pair.K @ sol.values)[interior]).max() <= 1e-10


def test_cg_that_misses_its_tolerance_raises_with_its_residual(scene8, monkeypatch):
    m, geom = scene8
    monkeypatch.setattr(harmonic, "cg", lambda A, b, **kw: (np.zeros_like(b), 1))
    # an x = 0 return leaves the whole right-hand side: relative residual 1
    with pytest.raises(RuntimeError, match=r"relative residual 1\.000e\+00"):
        solve_harmonic(m, geom, PlateauConstants(1.0, -0.5, 1.0))


def test_discrete_maximum_principle(scene16):
    m, geom = scene16
    consts = compute_plateaus(
        geom.vol_plus, geom.vol_minus,
        kappa_zero(geom.vol_collar, geom.vol_complement, 3), 3)
    sol = solve_harmonic(m, geom, consts)
    assert sol.values.min() >= consts.c_minus - 1e-10
    assert sol.values.max() <= consts.c_plus + 1e-10


def test_warped_collar_matches_1d_reduction():
    m, geom, consts, warp = warped_scene()
    sol = solve_harmonic(m, geom, consts)
    href = warped_harmonic_1d(warp, geom.eta, consts, 3)
    err = np.abs(sol.values - href(geom.rho[sol.vertex_ids])).max()
    assert err < 4e-3  # O(h^2) at n = 20


def test_deviation_shrinks_with_eta():
    m, _, _, warp = warped_scene()
    devs = []
    for eta in (0.2, 0.1, 0.05):
        geom = collar_geometry(m, PlaneSigma(0.5), eta)
        consts = compute_plateaus(
            geom.vol_plus, geom.vol_minus,
            kappa_zero(geom.vol_collar, geom.vol_complement, 3), 3)
        sol = solve_harmonic(m, geom, consts)
        devs.append(sol.sup_deviation / consts.gap)
    assert devs[0] / devs[1] >= 1.5
    assert devs[1] / devs[2] >= 1.5


def test_warped_1d_flat_profile_is_affine():
    c = PlateauConstants(1.0, -1.0, 1.0)
    h = warped_harmonic_1d(lambda r: np.full_like(np.asarray(r, dtype=float), 1.0) if np.ndim(r) else 1.0, 0.2, c, 3)
    rr = np.linspace(-0.2, 0.2, 41)
    assert np.abs(h(rr) - hbar(rr, 0.2, c)).max() < 1e-10


def test_warped_1d_midpoint_shift_sign():
    # for w = 1 + rho and symmetric constants, (1+rho)^{-2} weights the
    # negative side more, pushing h(0) above the affine midpoint 0
    c = PlateauConstants(1.0, -1.0, 1.0)
    h = warped_harmonic_1d(lambda r: 1.0 + r, 0.2, c, 3)
    assert h(0.0) > 1e-3
    assert h(0.2) == pytest.approx(1.0)
    assert h(-0.2) == pytest.approx(-1.0)


def test_warped_1d_mirror_symmetry():
    c = PlateauConstants(1.0, -1.0, 1.0)
    h_fwd = warped_harmonic_1d(lambda r: 1.0 + r, 0.2, c, 3)
    c_swapped = PlateauConstants(-c.c_minus, -c.c_plus, c.kappa0)
    h_rev = warped_harmonic_1d(lambda r: 1.0 - r, 0.2, c_swapped, 3)
    rr = np.linspace(-0.2, 0.2, 21)
    assert np.abs(h_fwd(rr) + h_rev(-rr)).max() < 1e-10


def test_warped_1d_rejects_bad_profile():
    c = PlateauConstants(1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="non-positive"):
        warped_harmonic_1d(lambda r: r, 0.2, c, 3)(0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_warped_1d_rejects_non_finite_profile(bad):
    c = PlateauConstants(1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="non-finite warp sample"):
        warped_harmonic_1d(lambda r: np.where(r > 0.05, bad, 1.0), 0.2, c, 3)


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_warped_1d_rejects_a_warp_whose_power_leaves_the_floats(scale):
    # w^(1-d) at d = 3 overflows to inf (1e-200) or underflows to 0 (1e200)
    c = PlateauConstants(1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="non-finite warp sample"):
        warped_harmonic_1d(lambda r: np.full_like(r, scale), 0.2, c, 3)


def linear_warp_fields(consts):
    """F and G1 of the stretched-collar problem for w(rho) = 1 + rho in d = 3."""
    return (lambda r: -2.0 / (1.0 + r) * consts.gap / 2.0,
            lambda r: -2.0 / (1.0 + r) * np.pi / 2.0)


def test_fourier_zero_data_gives_zero():
    zero = np.zeros_like
    sol = collar_fourier_solve(0.2, zero, zero, n_sigma=16)
    assert np.abs(sol.evaluate_rho(np.linspace(-0.2, 0.2, 41))).max() == 0.0


@pytest.mark.parametrize("eta", [0.0, -0.1])
def test_fourier_requires_positive_eta(eta):
    with pytest.raises(ValueError, match="eta must be positive"):
        collar_fourier_solve(eta, np.zeros_like, np.zeros_like)


def test_fourier_matches_1d_closed_form():
    _, geom, consts, warp = warped_scene()
    sol = collar_fourier_solve(geom.eta, *linear_warp_fields(consts), n_sigma=64)
    href = warped_harmonic_1d(warp, geom.eta, consts, 3)
    rr = np.linspace(-geom.eta, geom.eta, 801)
    h_fourier = hbar(rr, geom.eta, consts) + sol.evaluate_rho(rr)
    h_exact = href(rr)
    rel = np.abs(h_fourier - h_exact).max() / np.abs(h_exact).max()
    assert rel < 1e-4
    # the remainder itself carries the sine-truncation tail, measured ~1.3e-4
    w_exact = h_exact - hbar(rr, geom.eta, consts)
    w_rel = np.abs(sol.evaluate_rho(rr) - w_exact).max() / np.abs(w_exact).max()
    assert w_rel < 5e-4


def test_fourier_remainder_halves_with_eta():
    c = PlateauConstants(1.0, -1.0, 1.0)
    sups = []
    for eta in (0.2, 0.1):
        sol = collar_fourier_solve(eta, *linear_warp_fields(c), n_sigma=64)
        rr = np.linspace(-eta, eta, 801)
        sups.append(np.abs(sol.evaluate_rho(rr)).max())
    assert 1.5 <= sups[0] / sups[1] <= 2.5  # halves within 25 percent


def test_fourier_fem_mutual_consistency():
    m, geom, consts, warp = warped_scene()
    sol_fem = solve_harmonic(m, geom, consts)
    sol_f = collar_fourier_solve(geom.eta, *linear_warp_fields(consts), n_sigma=64)
    rho = geom.rho[sol_fem.vertex_ids]
    h_fourier = hbar(rho, geom.eta, consts) + sol_f.evaluate_rho(rho)
    rel = np.abs(sol_fem.values - h_fourier).max() / np.abs(sol_fem.values).max()
    assert rel < 0.02


@pytest.mark.parametrize("eta, g1_mean", [(0.15, 0.3), (0.45, 60.0), (0.3, 20.0)])
def test_fourier_manufactured_solution_first_order(eta, g1_mean):
    # w* = sin(sigma) against a sigma-dependent first-order coefficient: the
    # collocation solve reproduces w* exactly, however large G1 is
    to_sigma = lambda r: (r + eta) * np.pi / (2 * eta)
    g1 = lambda r: g1_mean + 0.1 * np.cos(to_sigma(r))
    leading = lambda r: (np.pi**2 / (4 * eta**2)) * (-np.sin(to_sigma(r)))
    forcing = lambda r: eta * (leading(r) - (g1(r) / eta) * np.cos(to_sigma(r)))
    sol = collar_fourier_solve(eta, forcing, g1, n_sigma=16)
    rr = np.linspace(-eta, eta, 201)
    assert np.abs(sol.evaluate_rho(rr) - np.sin(to_sigma(rr))).max() <= 1e-12
