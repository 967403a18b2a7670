import ctypes
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

import dumbbell
from dumbbell import oracle
from dumbbell.experiments import ScenarioConfig, run_scenario
from dumbbell.oracle import (
    Profile1D,
    _dense_pencil,
    _lowest_modes,
    _simpson,
    scaling_fit,
    step_profile,
    sturm_liouville_neumann,
)

NON_FINITE = (np.nan, np.inf, -np.inf)


def flat_profile(n):
    one = lambda t: np.ones_like(np.asarray(t, dtype=float))
    return Profile1D(p=one, q=one, resolution=n)


def test_flat_interval_spectrum():
    res = sturm_liouville_neumann(flat_profile(512), 3, refine=False)
    assert res.values[0] == pytest.approx(0.0, abs=1e-8)
    assert abs(res.values[1] - np.pi**2) / np.pi**2 < 1e-3
    assert abs(res.values[2] - 4 * np.pi**2) / (4 * np.pi**2) < 1e-3


def test_step_profile_at_eps_one_is_flat():
    prof = step_profile(1.0, 0.125, 3, resolution=256)
    ref = flat_profile(256)
    a = sturm_liouville_neumann(prof, 3, refine=False)
    b = sturm_liouville_neumann(ref, 3, refine=False)
    assert np.allclose(a.values, b.values, rtol=1e-12, atol=1e-12)


def test_second_order_convergence():
    errs = []
    for n in (128, 256):
        res = sturm_liouville_neumann(flat_profile(n), 2, refine=False)
        errs.append(res.values[1] - np.pi**2)
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_richardson_refinement_improves():
    res = sturm_liouville_neumann(flat_profile(128), 2, refine=True)
    raw = abs(res.values[1] - np.pi**2)
    refined = abs(res.refined[1] - np.pi**2)
    assert refined < raw / 50


def test_resolution_floor():
    with pytest.raises(ValueError, match="64"):
        sturm_liouville_neumann(flat_profile(32), 2)


def test_nonpositive_profile_rejected():
    bad = Profile1D(p=lambda t: np.asarray(t) - 0.5, q=lambda t: np.ones_like(np.asarray(t)), resolution=128)
    with pytest.raises(ValueError, match="non-positive"):
        sturm_liouville_neumann(bad, 2)


def test_step_profile_small_eps_reference():
    # the dumbbell mode: lambda1 ~ gap^2 sqrt(eps) / (2 eta); at eps=1e-3,
    # eta=0.125 the measured reference is ~0.49, far below the flat pi^2
    prof = step_profile(1e-3, 0.125, 3, resolution=1024)
    res = sturm_liouville_neumann(prof, 2, refine=False)
    assert 0.3 < res.values[1] < 0.7


def test_outer_interval_mode_with_conformal_weight():
    # the second rho-dependent mode lives in the bulk slabs, whose metric is
    # kappa * g0, so the 1d value is pi^2 / (0.375^2 kappa)
    from dumbbell.metric import kappa

    eta = 0.125
    prof = step_profile(1e-3, eta, 3, resolution=2048)
    res = sturm_liouville_neumann(prof, 3, refine=False)
    kap = kappa(1e-3, 2 * eta, 1 - 2 * eta, 3)
    predicted = np.pi**2 / (0.5 - eta) ** 2 / kap
    assert abs(res.values[2] - predicted) / predicted < 0.02


def test_scaling_fit_exact_line():
    eps = np.array([1e-1, 1e-2, 1e-3])
    fit = scaling_fit(eps, eps)
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.max_residual < 1e-12


def test_scaling_fit_synthetic_power_law():
    eps = np.array([1e-1, 3e-2, 1e-2, 1e-3])
    fit = scaling_fit(eps, 7.0 * eps**0.5)
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(7.0), abs=1e-12)


def test_scaling_fit_validation():
    with pytest.raises(ValueError):
        scaling_fit([1e-1, 1e-2], [1.0, 2.0])
    with pytest.raises(ValueError):
        scaling_fit([1e-1, 1e-2, -1e-3], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("eps", [(1e-1, 1e-1, 1e-1), (1e-1, 1e-2, 1e-1, 1e-2), (1e-1, 1e-2)])
def test_scaling_fit_needs_three_distinct_epsilons(eps):
    # a repeated point adds no abscissa: polyfit would warn and fit a meaningless slope
    with pytest.raises(ValueError, match="need at least 3 distinct sweep points"):
        scaling_fit(eps, np.ones(len(eps)))


def test_scaling_fit_takes_repeats_among_three_distinct_epsilons():
    eps = np.array([1e-1, 1e-1, 1e-2, 1e-3])
    assert scaling_fit(eps, eps).slope == pytest.approx(1.0, abs=1e-12)


def test_oracle_sweep_slope_near_half():
    eps_list = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
    lams = []
    for eps in eps_list:
        prof = step_profile(eps, 0.125, 3, resolution=512)
        lams.append(sturm_liouville_neumann(prof, 2, refine=False).values[1])
    fit = scaling_fit(eps_list, lams)
    assert 0.4 <= fit.slope <= 0.6


def test_warped_profile_volume_kappa():
    # warped cross-section shifts the collar volume, hence kappa
    prof = step_profile(0.5, 0.2, 3, warp=lambda r: 1.0 + r, resolution=256)
    res = sturm_liouville_neumann(prof, 2, refine=False)
    assert res.values[1] > 0


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_warp_rejected(bad):
    # one bad sample beyond the collar is enough; a NaN used to reach eigh as a NaN kappa
    warp = lambda r: np.where(np.asarray(r) > 0.3, bad, 1.0 + np.asarray(r))
    with pytest.raises(ValueError, match="warp sample not positive and finite"):
        step_profile(0.5, 0.125, 3, warp=warp, resolution=128)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("which", ["p", "q"])
def test_non_finite_profile_rejected(bad, which):
    def coeff(t):
        t = np.asarray(t, dtype=float)
        return np.where(t > 0.9, bad, 1.0)

    one = lambda t: np.ones_like(np.asarray(t, dtype=float))
    prof = Profile1D(p=coeff if which == "p" else one, q=coeff if which == "q" else one,
                     resolution=128)
    with pytest.raises(ValueError, match="non-positive or non-finite profile"):
        _dense_pencil(prof, 128)
    with pytest.raises(ValueError, match="non-positive or non-finite profile"):
        sturm_liouville_neumann(prof, 2)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_scaling_fit_rejects_non_finite(bad):
    eps = [1e-1, 1e-2, 1e-3]
    with pytest.raises(ValueError, match="positive finite data"):
        scaling_fit([1e-1, bad, 1e-3], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="positive finite data"):
        scaling_fit(eps, [1.0, bad, 3.0])


@pytest.mark.parametrize("center, eta", [(0.5, 0.125), (0.4, 0.1)])
@pytest.mark.parametrize("warped", [False, True])
def test_simpson_is_scipy_simpson(center, eta, warped):
    # the three intervals of step_profile, sampled as it samples them; bit
    # equality keeps the volumes, kappa and every oracle eigenvalue unchanged
    for lo, hi in ((center - eta, center + eta), (0.0, center - eta), (center + eta, 1.0)):
        x = np.linspace(lo, hi, 2049)
        y = (1.0 + (x - center)) ** 2 if warped else np.ones_like(x)
        assert _simpson(y, x) == float(scipy.integrate.simpson(y, x=x))


@pytest.mark.parametrize("seed", range(4))
def test_simpson_is_scipy_simpson_on_irregular_samples(seed):
    # uniform smooth samples hide a reordered sum; random ones do not
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 1.0, 2049))
    y = rng.standard_normal(2049)
    assert _simpson(y, x) == float(scipy.integrate.simpson(y, x=x))


WARPS = {"none": None, "linear:1.0": lambda r: 1.0 + r}


def _eigh_on_copies(prof, n, m):
    # the reference is eigh on C-ordered copies, which it copies once more itself
    K, M = _dense_pencil(prof, n)
    assert K.flags.f_contiguous and M.flags.f_contiguous
    return scipy.linalg.eigh(np.ascontiguousarray(K), np.ascontiguousarray(M),
                             subset_by_index=(0, m - 1), eigvals_only=True)


EPSILONS = (1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)


# N = 64 (with 128) runs the whole grid; N = 1024 (with 2048) costs seconds a
# case, so it runs three cases at m = 3 and two at the far end of the range
@pytest.mark.parametrize("n, eps, m, warp", [
    *[(64, eps, m, warp) for eps in EPSILONS for m in (2, 3) for warp in WARPS],
    pytest.param(1024, 1.0, 3, "none", id="1.0"),
    pytest.param(1024, 0.1, 3, "none", id="0.1"),
    pytest.param(1024, 1e-3, 3, "none", id="0.001"),
    (1024, 1e-7, 2, "none"), (1024, 1e-7, 3, "linear:1.0"),
])
def test_in_place_solve_matches_eigh_on_copies(n, eps, m, warp):
    # the oracle hands LAPACK its Fortran-ordered pencil to overwrite
    prof = step_profile(eps, 0.125, 3, warp=WARPS[warp], resolution=n)
    res = sturm_liouville_neumann(prof, m, refine=True)
    ref = [_eigh_on_copies(prof, n, m), _eigh_on_copies(prof, 2 * n, m)]
    assert np.array_equal(res.values, ref[0])
    assert np.array_equal(res.refined, (4.0 * ref[1] - ref[0]) / 3.0)


def test_concurrent_solves_match_the_serial_ones():
    # two threads in dsygvx at once, each on its own profile and pencil
    n = 1024
    profiles = [step_profile(1e-3, 0.125, 3, resolution=n),
                step_profile(1e-6, 0.125, 3, warp=WARPS["linear:1.0"], resolution=n)]
    serial = [_lowest_modes(prof, n, 3) for prof in profiles]
    with ThreadPoolExecutor(max_workers=2) as pool:
        concurrent = list(pool.map(lambda prof: _lowest_modes(prof, n, 3), profiles))
    for got, want in zip(concurrent, serial):
        assert np.array_equal(got, want)


def test_dense_solve_binding_releases_the_gil():
    # a CFUNCTYPE foreign call drops the GIL for its run; a PYFUNCTYPE one,
    # like an f2py wrapper, holds it
    assert isinstance(oracle._DSYGVX, ctypes._CFuncPtr)
    assert not oracle._DSYGVX._flags_ & ctypes._FUNCFLAG_PYTHONAPI
    assert oracle._DSYGVX._restype_ is None and len(oracle._DSYGVX._argtypes_) == 23


INDEFINITE_ERROR = "dsygvx returned info = 71 on a pencil of order 65"


@pytest.fixture
def indefinite_mass(monkeypatch):
    """Every pencil's M gets a negative pivot at row 6, so dsygvx stops in its
    Cholesky factor of M with info = order + 6; at N = 64 that is 71."""
    real_pencil = oracle._dense_pencil

    def indefinite(profile, n):
        K, M = real_pencil(profile, n)
        M[5, 5] = -1.0
        return K, M

    monkeypatch.setattr(oracle, "_dense_pencil", indefinite)


def test_indefinite_mass_raises_linalg_error_with_info(indefinite_mass):
    with pytest.raises(np.linalg.LinAlgError, match=f"^{INDEFINITE_ERROR}$"):
        sturm_liouville_neumann(flat_profile(64), 2)


def test_indefinite_mass_is_a_scenario_failure(indefinite_mass):
    cfg = ScenarioConfig.from_mapping({"scenario": "oracle-compare", "n": 8, "oracle_resolution": 64})
    report = run_scenario(cfg)
    assert report.failures == [{"stage": "oracle-compare", "error": f"LinAlgError: {INDEFINITE_ERROR}"}]


# labbench/probe.py's set-up scene: mesh, metric, assembly, eigen and oracle
TINY_SCENE = {"scenario": "scaling", "n": 8, "epsilons": (1e-1, 1e-2, 1e-3),
              "oracle_resolution": 64}


def test_tiny_scene_imports_no_heavy_scipy():
    # scipy.integrate pulls in optimize, special, spatial and fft, about 0.3 s
    # of start-up on every run; nothing the lab runs needs them
    code = (
        "import sys\n"
        "from dumbbell import experiments\n"
        f"cfg = experiments.ScenarioConfig.from_mapping({TINY_SCENE!r})\n"
        "assert not experiments.run_scenario(cfg).failures\n"
        "print(' '.join(m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.special')"
        " if m in sys.modules))\n"
    )
    src = str(Path(dumbbell.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == ""
