"""Scenario runner: configuration, verdicts, reports, and the CLI.

Each scenario wires the modules into one verification pipeline and returns a
machine-readable report.  Every verdict carries its threshold and measured
value; reports are byte-reproducible for a fixed config and seed except for
the timing block.  Config files are flat ``key = value`` text whose keys
mirror the ScenarioConfig fields.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from . import assembly, eigen, harmonic, metric, morse, nodal, oracle
from .mesh import Mesh, build_box_grid, load_mesh, periodic_unit_grid_2d

WORKERS_ENV = "DUMBBELL_WORKERS"

SCENARIO_NAMES = (
    "scaling",
    "gap",
    "plateau",
    "collar",
    "harmonic-approx",
    "nodal",
    "mollify",
    "morse",
    "oracle-compare",
)


@dataclass
class ScenarioConfig:
    """One scenario run; thresholds default to the documented gates."""

    scenario: str
    kind: str = "box"                      # box | warped-box | file
    mesh_path: str = ""
    d: int = 3
    n: int = 16
    eta: float = 0.125
    sigma: str = "plane"                   # plane | sphere:cx,cy,cz,r | torus:R,r
    sigma_offset: float = 0.5
    warp: str = "none"                     # none | linear:<slope>
    epsilons: tuple = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
    epsilon: float = 1e-3
    modes: int = 3
    tol: float = 1e-9
    seed: int = 0
    workers: int = 1
    out: str = "out"
    oracle_resolution: int = 1024
    n_sigma: int = 64
    etas: tuple = (0.2, 0.1, 0.05)
    mollify_widths: tuple = (4, 2, 1)      # transition widths in mesh spacings
    mollify_epsilon: float = 0.95          # see README: small eps cannot meet the 1% gate at desk scale
    resolution: int = 32                   # periodic benchmark grid
    torus_radii: tuple = (0.3, 0.14)
    slope_band: tuple = (0.40, 0.60)
    oracle_slope_band: tuple = (0.45, 0.55)
    gap_rel_tol: float = 0.15
    simplicity_ratio: float = 10.0
    plateau_tol: float = 0.05
    collar_tol: float = 0.05
    glitch_tol: float = 0.05
    flat_harmonic_tol: float = 1e-8
    deviation_factor: float = 1.5
    fourier_tol: float = 1e-4
    volume_tol: float = 1e-12
    oracle_compare_tol: float = 0.02
    mollify_lambda_tol: float = 0.01
    mollify_vector_tol: float = 0.02
    min_gradient_factor: float = 0.5

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        return {k: (list(v) if isinstance(v, tuple) else v) for k, v in out.items()}

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ScenarioConfig":
        if "scenario" not in mapping:
            raise ValueError("config must set 'scenario'")
        name = str(mapping["scenario"])
        if name not in SCENARIO_NAMES:
            raise ValueError(f"unknown scenario '{name}' (choose from {', '.join(SCENARIO_NAMES)})")
        merged = dict(_SCENARIO_DEFAULTS.get(name, {}))
        merged.update(mapping)
        fields = {f.name: f for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, value in merged.items():
            if key not in fields:
                raise ValueError(f"unknown config key '{key}'")
            kwargs[key] = _coerce(value, fields[key])
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        mapping = {}
        with open(path, "r", encoding="utf-8") as fh:
            for ln, raw in enumerate(fh, start=1):
                text = raw.split("#", 1)[0].strip()
                if not text:
                    continue
                if "=" not in text:
                    raise ValueError(f"line {ln}: expected 'key = value', got '{text}'")
                key, value = (part.strip() for part in text.split("=", 1))
                mapping[key] = value
        return cls.from_mapping(mapping)


_SCENARIO_DEFAULTS = {
    "oracle-compare": {"epsilons": (1.0, 0.1)},
    "harmonic-approx": {"n": 20, "eta": 0.2, "warp": "linear:1.0"},
    "morse": {"n": 20},
}


def _coerce(value, fld: dataclasses.Field):
    if not isinstance(value, str):
        if isinstance(value, (list, tuple)):
            return tuple(value)
        return value
    kind = fld.type if isinstance(fld.type, str) else getattr(fld.type, "__name__", "str")
    if kind == "tuple":
        parts = [p for p in value.replace(",", " ").split() if p]
        base = fld.default
        caster = int if (isinstance(base, tuple) and base and isinstance(base[0], int)) else float
        return tuple(caster(p) for p in parts)
    if kind == "int":
        return int(value)
    if kind == "float":
        return float(value)
    return value


@dataclass
class Verdict:
    name: str
    passed: bool
    measured: object
    threshold: object
    comparator: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": bool(self.passed),
            "measured": _jsonable(self.measured),
            "threshold": _jsonable(self.threshold),
            "comparator": self.comparator,
        }


@dataclass
class Report:
    scenario: str
    config: dict
    seed: int
    tables: Dict[str, dict] = field(default_factory=dict)
    verdicts: List[Verdict] = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)
    failures: List[dict] = field(default_factory=list)
    timings: Dict[str, float] = field(default_factory=dict)
    versions: Dict[str, str] = field(default_factory=dict)

    def all_passed(self) -> bool:
        return not self.failures and all(v.passed for v in self.verdicts)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "config": _jsonable(self.config),
            "seed": self.seed,
            "tables": _jsonable(self.tables),
            "verdicts": [v.to_dict() for v in self.verdicts],
            "artifacts": _jsonable(self.artifacts),
            "failures": _jsonable(self.failures),
            "timings": _jsonable(self.timings),
            "versions": dict(self.versions),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _table(columns: List[str], rows: List[list]) -> dict:
    return {"columns": list(columns), "rows": [_jsonable(r) for r in rows]}


def _versions() -> Dict[str, str]:
    import scipy

    from . import __version__

    return {
        "dumbbell": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
    }


# ---------------------------------------------------------------------------
# scene plumbing


def _parse_warp(tag: str):
    if tag in ("none", "", None):
        return None, None
    if tag.startswith("linear:"):
        slope = float(tag.split(":", 1)[1])
        return (lambda r: 1.0 + slope * r), slope
    raise ValueError(f"unknown warp '{tag}'")


def _parse_sigma(cfg: ScenarioConfig):
    tag = cfg.sigma
    if tag == "plane":
        return metric.PlaneSigma(cfg.sigma_offset)
    if tag.startswith("sphere:"):
        vals = [float(x) for x in tag.split(":", 1)[1].split(",")]
        return metric.sphere_level(vals[:-1], vals[-1])
    if tag.startswith("torus:"):
        major, minor = (float(x) for x in tag.split(":", 1)[1].split(","))
        center = (0.5,) * cfg.d
        return metric.torus_level(center, major, minor)
    raise ValueError(f"unknown sigma descriptor '{tag}'")


def _build_scene(cfg: ScenarioConfig, eta: Optional[float] = None):
    if cfg.kind == "file":
        if not cfg.mesh_path:
            raise ValueError("kind=file needs mesh_path")
        mesh = load_mesh(cfg.mesh_path)
    elif cfg.kind in ("box", "warped-box"):
        warp, _ = _parse_warp(cfg.warp)
        if cfg.kind == "warped-box" and warp is None:
            raise ValueError("warped-box needs warp=linear:<slope>")
        mesh = build_box_grid(cfg.d, cfg.n, warp=warp, sigma_offset=cfg.sigma_offset)
    else:
        raise ValueError(f"unknown scene kind '{cfg.kind}'")
    sigma = _parse_sigma(cfg)
    rho = metric.signed_distance(mesh, sigma)
    snap = isinstance(sigma, metric.PlaneSigma) and mesh.grid_resolution is not None
    geom = metric.collar_geometry(mesh, rho, cfg.eta if eta is None else eta, snap=snap)
    return mesh, geom


def _plateaus(geom: metric.CollarGeometry, d: int) -> harmonic.PlateauConstants:
    k0 = metric.kappa_zero(geom.vol_collar, geom.vol_complement, d)
    return harmonic.compute_plateaus(geom.vol_plus, geom.vol_minus, k0, d)


def _solve_point(mesh, geom, cfg, eps, m=2):
    """Assemble and solve one sweep point; the ramp bound seeds the shift.

    Non-grid-aligned collars (file meshes, curved interfaces) have no exact
    ramp, so the bound comes back None and the solver starts unseeded.
    """
    fld = metric.build_conformal_field(geom, eps, cfg.d)
    pair = assembly.assemble(mesh, fld)
    bound = eigen.test_function_bound(geom, fld, pair, cfg.d) if geom.grid_aligned else None
    result = eigen.solve_smallest(pair, m, tol=cfg.tol, shift_estimate=bound, seed=cfg.seed)
    result = eigen.normalize_and_sign(result, pair, geom)
    return fld, pair, bound, result


def _map_sweep(cfg: ScenarioConfig, fn: Callable, items):
    workers = int(os.environ.get(WORKERS_ENV, cfg.workers))
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _monotone_verdict(name: str, values, glitch_tol: float) -> Verdict:
    """Nonincreasing along the sweep, with at most one small glitch."""
    worst = 0.0
    glitches = 0
    for prev, cur in zip(values, values[1:]):
        if cur > prev:
            glitches += 1
            worst = max(worst, cur / prev - 1.0)
    passed = glitches <= 1 and worst <= glitch_tol
    return Verdict(name, passed, {"glitches": glitches, "worst_excess": worst},
                   {"max_glitches": 1, "glitch_tol": glitch_tol}, "monotone")


# ---------------------------------------------------------------------------
# scenarios


def _run_scaling(cfg: ScenarioConfig):
    mesh, geom = _build_scene(cfg)
    if not geom.grid_aligned:
        raise ValueError("scaling needs a grid-aligned collar for the ramp bound")

    def point(eps):
        fld, pair, bound, result = _solve_point(mesh, geom, cfg, eps)
        vol_err = metric.verify_volume_preservation(fld, geom, cfg.d)
        return (eps, result.values[1], result.values[0], bound, fld.kappa, vol_err,
                float(result.residuals[1:].max()))

    rows = _map_sweep(cfg, point, cfg.epsilons)

    def oracle_point(eps):
        prof = oracle.step_profile(eps, geom.eta, cfg.d, center=cfg.sigma_offset,
                                   resolution=cfg.oracle_resolution)
        ev = oracle.sturm_liouville_neumann(prof, 2, refine=False)
        return float(ev.values[1])

    oracle_lams = _map_sweep(cfg, oracle_point, cfg.epsilons)

    lam1 = [r[1] for r in rows]
    bounds = [r[3] for r in rows]
    fit3d = oracle.scaling_fit(cfg.epsilons, lam1)
    fit1d = oracle.scaling_fit(cfg.epsilons, oracle_lams)

    lo, hi = cfg.slope_band
    olo, ohi = cfg.oracle_slope_band
    verdicts = [
        Verdict("eigenvalue-scaling-slope", lo <= fit3d.slope <= hi, fit3d.slope, [lo, hi], "in"),
        Verdict("oracle-scaling-slope", olo <= fit1d.slope <= ohi, fit1d.slope, [olo, ohi], "in"),
        Verdict(
            "minmax-sandwich",
            all(l <= b for l, b in zip(lam1, bounds)),
            max(l - b for l, b in zip(lam1, bounds)),
            0.0,
            "<=",
        ),
        Verdict("volume-preservation", max(r[5] for r in rows) <= cfg.volume_tol,
                max(r[5] for r in rows), cfg.volume_tol, "<="),
    ]
    tables = {
        "sweep": _table(
            ["epsilon", "lambda1", "lambda0", "bound", "kappa", "volume_error",
             "max_residual", "oracle_lambda1"],
            [list(r) + [o] for r, o in zip(rows, oracle_lams)],
        ),
        "fit": _table(
            ["path", "slope", "intercept", "max_residual"],
            [["fem3d", fit3d.slope, fit3d.intercept, fit3d.max_residual],
             ["oracle1d", fit1d.slope, fit1d.intercept, fit1d.max_residual]],
        ),
    }
    return tables, verdicts, {}


def _run_gap(cfg: ScenarioConfig):
    mesh, geom = _build_scene(cfg)
    fld, pair, bound, result = _solve_point(mesh, geom, cfg, cfg.epsilon, m=max(3, cfg.modes))
    lam1, lam2 = result.values[1], result.values[2]

    mus = {}
    for side in ("plus", "minus"):
        sub = assembly.subdomain_neumann(mesh, geom, side)
        sub_res = eigen.solve_smallest(sub, 2, tol=cfg.tol, shift_estimate=1.0, seed=cfg.seed)
        mus[side] = float(sub_res.values[1])
    mu_min = min(mus.values())
    # bulk regions carry metric kappa*g0, so their Neumann values rescale by 1/kappa
    target = mu_min / fld.kappa
    rel = abs(lam2 - target) / target
    raw_rel = abs(lam2 - mu_min) / mu_min
    verdicts = [
        Verdict("gap-neumann-match", rel <= cfg.gap_rel_tol, rel, cfg.gap_rel_tol, "<="),
        Verdict("simplicity-ratio", lam2 / lam1 >= cfg.simplicity_ratio, lam2 / lam1,
                cfg.simplicity_ratio, ">="),
    ]
    tables = {
        "gap": _table(
            ["epsilon", "lambda1", "lambda2", "mu_plus", "mu_minus", "kappa",
             "rel_to_scaled_mu", "rel_to_raw_mu"],
            [[cfg.epsilon, lam1, lam2, mus["plus"], mus["minus"], fld.kappa, rel, raw_rel]],
        )
    }
    return tables, verdicts, {}


def _plateau_sups(mesh, geom, consts, u1):
    far_plus = (geom.rho >= 2 * geom.eta - 1e-12)
    far_minus = (geom.rho <= -2 * geom.eta + 1e-12)
    sup_plus = float(np.abs(u1[far_plus] - consts.c_plus).max())
    sup_minus = float(np.abs(u1[far_minus] - consts.c_minus).max())
    return sup_plus, sup_minus


def _run_plateau(cfg: ScenarioConfig):
    mesh, geom = _build_scene(cfg)
    consts = _plateaus(geom, cfg.d)
    sweep = tuple(sorted(cfg.epsilons, reverse=True))  # monotone gate reads large -> small

    def point(eps):
        _, _, _, result = _solve_point(mesh, geom, cfg, eps)
        sp, sm = _plateau_sups(mesh, geom, consts, result.vectors[:, 1])
        return eps, result.values[1], sp, sm, max(sp, sm) / consts.gap

    rows = _map_sweep(cfg, point, sweep)
    sups = [r[4] for r in rows]
    verdicts = [
        Verdict("plateau-final", sups[-1] <= cfg.plateau_tol, sups[-1], cfg.plateau_tol, "<="),
        _monotone_verdict("plateau-monotone", sups, cfg.glitch_tol),
    ]
    tables = {
        "plateau": _table(
            ["epsilon", "lambda1", "sup_plus", "sup_minus", "sup_over_gap"],
            [list(r) for r in rows],
        ),
        "constants": _table(
            ["c_plus", "c_minus", "kappa0", "gap"],
            [[consts.c_plus, consts.c_minus, consts.kappa0, consts.gap]],
        ),
    }
    return tables, verdicts, {}


def _center_fiber(mesh: Mesh):
    n = mesh.grid_resolution
    mid = tuple(k // 2 for k in n[1:])
    shape = tuple(k + 1 for k in n)
    return np.ravel_multi_index(
        (np.arange(shape[0]),) + tuple(np.full(shape[0], m) for m in mid), shape
    )


def _run_collar(cfg: ScenarioConfig):
    mesh, geom = _build_scene(cfg)
    consts = _plateaus(geom, cfg.d)
    hsol = harmonic.solve_harmonic(mesh, geom, consts)
    h_full = hsol.scatter(mesh.num_vertices)
    on_collar = ~np.isnan(h_full)

    sweep = tuple(sorted(cfg.epsilons, reverse=True))

    def point(eps):
        _, _, _, result = _solve_point(mesh, geom, cfg, eps)
        u1 = result.vectors[:, 1]
        sup = float(np.abs(u1[on_collar] - h_full[on_collar]).max()) / consts.gap
        return eps, result.values[1], sup, u1

    rows = _map_sweep(cfg, point, sweep)
    sups = [r[2] for r in rows]
    verdicts = [
        Verdict("collar-final", sups[-1] <= cfg.collar_tol, sups[-1], cfg.collar_tol, "<="),
        _monotone_verdict("collar-monotone", sups, cfg.glitch_tol),
    ]

    # center-fiber profile at the smallest epsilon, for plotting
    fiber = _center_fiber(mesh)
    u_last = rows[-1][3]
    rho_f = geom.rho[fiber]
    h_ext = h_full[fiber]
    h_ext = np.where(np.isnan(h_ext), np.where(rho_f > 0, consts.c_plus, consts.c_minus), h_ext)
    hbar_f = harmonic.hbar(np.clip(rho_f, -geom.eta, geom.eta), geom.eta, consts)
    profile_rows = [
        [float(rho_f[i]), float(u_last[fiber[i]]), float(h_ext[i]), float(hbar_f[i])]
        for i in range(fiber.size)
    ]
    tables = {
        "collar": _table(["epsilon", "lambda1", "sup_over_gap"], [list(r[:3]) for r in rows]),
        "profile": _table(["rho", "u", "h", "hbar"], profile_rows),
    }
    return tables, verdicts, {}


def _warped_fourier_inputs(consts, eta, slope, d, n_sigma, grid_factor=2):
    """F, G1 fields of the stretched-collar problem for w(rho)=1+slope rho."""
    n_grid = max(grid_factor * n_sigma, 8)
    sig = np.arange(1, n_grid + 1) * np.pi / (n_grid + 1)
    rho_g = 2.0 * eta * sig / np.pi - eta
    wp_over_w = slope / (1.0 + slope * rho_g)
    forcing = -(d - 1) * wp_over_w * consts.gap / 2.0
    g1 = -(d - 1) * wp_over_w * (np.pi / 2.0)
    return forcing, g1


def _run_harmonic_approx(cfg: ScenarioConfig):
    warp_fn, slope = _parse_warp(cfg.warp)
    if warp_fn is None:
        raise ValueError("harmonic-approx needs a warped scene (warp=linear:<slope>)")

    # flat benchmark: the affine model is discrete-harmonic, so h matches it
    flat_cfg = dataclasses.replace(cfg, warp="none", kind="box")
    mesh_flat, geom_flat = _build_scene(flat_cfg)
    consts_flat = _plateaus(geom_flat, cfg.d)
    flat = harmonic.solve_harmonic(mesh_flat, geom_flat, consts_flat)

    mesh, _ = _build_scene(dataclasses.replace(cfg, kind="warped-box"))
    rho = metric.signed_distance(mesh, metric.PlaneSigma(cfg.sigma_offset))

    rows = []
    devs = []
    for eta in cfg.etas:
        geom = metric.collar_geometry(mesh, rho, eta)
        consts = _plateaus(geom, cfg.d)
        sol = harmonic.solve_harmonic(mesh, geom, consts)
        dev = sol.sup_deviation / consts.gap
        devs.append(dev)
        rows.append([geom.eta, dev, consts.gap])
    ratios = [devs[i] / devs[i + 1] for i in range(len(devs) - 1)]

    # spectral collar solve against the 1d closed form, at the widest eta
    eta0 = cfg.etas[0]
    geom0 = metric.collar_geometry(mesh, rho, eta0)
    consts0 = _plateaus(geom0, cfg.d)
    forcing, g1 = _warped_fourier_inputs(consts0, geom0.eta, slope, cfg.d, cfg.n_sigma)
    fsol = harmonic.collar_fourier_solve(geom0.eta, forcing, g1=g1, n_sigma=cfg.n_sigma)
    h1d = harmonic.warped_harmonic_1d(warp_fn, geom0.eta, consts0, cfg.d)
    rr = np.linspace(-geom0.eta, geom0.eta, 801)
    h_fourier = harmonic.hbar(rr, geom0.eta, consts0) + fsol.evaluate_rho(rr)
    h_exact = h1d(rr)
    fourier_rel = float(np.abs(h_fourier - h_exact).max() / np.abs(h_exact).max())

    # FEM consistency on the same collar (reported, asserted in unit tests)
    sol0 = harmonic.solve_harmonic(mesh, geom0, consts0)
    fem_vs_fourier = float(
        np.abs(
            sol0.values
            - (harmonic.hbar(geom0.rho[sol0.vertex_ids], geom0.eta, consts0)
               + fsol.evaluate_rho(geom0.rho[sol0.vertex_ids]))
        ).max()
        / consts0.gap
    )

    verdicts = [
        Verdict("flat-harmonic-exact", flat.sup_deviation <= cfg.flat_harmonic_tol,
                flat.sup_deviation, cfg.flat_harmonic_tol, "<="),
        Verdict("deviation-halving", all(r >= cfg.deviation_factor for r in ratios),
                min(ratios), cfg.deviation_factor, ">="),
        Verdict("fourier-vs-closed-form", fourier_rel <= cfg.fourier_tol,
                fourier_rel, cfg.fourier_tol, "<="),
    ]
    tables = {
        "deviation": _table(["eta", "sup_dev_over_gap", "gap"], rows),
        "fourier": _table(
            ["eta", "n_sigma", "iterations", "contraction_ratio", "rel_error",
             "fem_vs_fourier"],
            [[geom0.eta, cfg.n_sigma, fsol.iterations,
              fsol.contraction_ratio if fsol.contraction_ratio is not None else 0.0,
              fourier_rel, fem_vs_fourier]],
        ),
    }
    return tables, verdicts, {}


def _run_nodal(cfg: ScenarioConfig):
    mesh, geom = _build_scene(cfg)
    consts = _plateaus(geom, cfg.d)
    fld, pair, bound, result = _solve_point(mesh, geom, cfg, cfg.epsilon)
    u1 = result.vectors[:, 1]

    ns = nodal.extract_nodal_set(mesh, u1)
    report = nodal.localization_report(ns, geom)
    domains = nodal.nodal_domain_count(mesh, u1)
    single = nodal.single_crossing_check(mesh, u1, geom)
    min_grad = ns.min_gradient
    grad_floor = cfg.min_gradient_factor * consts.gap / (2.0 * geom.eta)

    verdicts = [
        Verdict("nodal-components", report.components == 1, report.components, 1, "=="),
        Verdict("nodal-contained", report.contained and report.max_abs_rho <= geom.eta,
                report.max_abs_rho, geom.eta, "<="),
        Verdict("single-crossing", single, single, True, "=="),
        Verdict("nodal-domains", domains == 2, domains, 2, "=="),
        Verdict("regular-gradient", min_grad >= grad_floor, min_grad, grad_floor, ">="),
    ]
    tables = {
        "nodal": _table(
            ["epsilon", "lambda1", "components", "max_abs_rho", "contained",
             "single_crossing", "domains", "min_gradient", "total_area",
             "predicted_root"],
            [[cfg.epsilon, result.values[1], report.components, report.max_abs_rho,
              report.contained, single, domains, min_grad, ns.total_area,
              harmonic.hbar_root(geom.eta, consts)]],
        )
    }
    artifacts = {
        "polygons": [frag.points.tolist() for frag in ns.fragments],
        "conformal_field": fld.to_dict(),
    }
    return tables, verdicts, artifacts


def _run_mollify(cfg: ScenarioConfig):
    mesh, geom = _build_scene(cfg)
    eps = cfg.mollify_epsilon
    fld, pair, bound, ref = _solve_point(mesh, geom, cfg, eps)
    lam_ref = float(ref.values[1])
    u_ref = ref.vectors[:, 1]
    consts = _plateaus(geom, cfg.d)

    rows = []
    diffs = []
    vec_sup = None
    for k in cfg.mollify_widths:
        if cfg.n % k:
            raise ValueError(f"mollify width {k}h needs n divisible by {k}")
        n_moll = cfg.n // k
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # width below spacing would warn
            fm = metric.build_conformal_field(geom, eps, cfg.d, profile="mollified", mollify_n=n_moll)
        gamma = metric.volume_rescale_factor(fm, geom, cfg.d)
        pm = assembly.assemble(mesh, fm)
        rm = eigen.solve_smallest(pm, 2, tol=cfg.tol, shift_estimate=lam_ref, seed=cfg.seed)
        rm = eigen.normalize_and_sign(rm, pm, geom)
        lam = float(rm.values[1]) / gamma
        diff = abs(lam - lam_ref) / lam_ref
        diffs.append(diff)
        sup = float(np.abs(rm.vectors[:, 1] - u_ref).max()) / consts.gap
        if k == cfg.mollify_widths[-1]:
            vec_sup = sup
        rows.append([k, 1.0 / n_moll, gamma, lam, diff, sup])

    decreasing = all(b < a for a, b in zip(diffs, diffs[1:]))
    verdicts = [
        Verdict("mollify-monotone", decreasing,
                max((b / a) for a, b in zip(diffs, diffs[1:])), 1.0, "<"),
        Verdict("mollify-final-difference", diffs[-1] <= cfg.mollify_lambda_tol,
                diffs[-1], cfg.mollify_lambda_tol, "<="),
        Verdict("mollify-vector", vec_sup <= cfg.mollify_vector_tol,
                vec_sup, cfg.mollify_vector_tol, "<="),
    ]
    tables = {
        "mollify": _table(
            ["width_spacings", "width", "gamma", "lambda_rescaled", "rel_difference",
             "vec_sup_over_gap"],
            rows,
        ),
        "reference": _table(["epsilon", "lambda1"], [[eps, lam_ref]]),
    }
    return tables, verdicts, {}


def _run_morse(cfg: ScenarioConfig):
    # periodic cosine-product benchmark (two periods along x, one along y)
    grid = periodic_unit_grid_2d(cfg.resolution)
    u_bench = morse.cosine_product_field(grid.vertices, periods=(2, 1))
    bench = morse.classify_critical_points(grid, u_bench)
    census = morse.cosine_product_census((2, 1))
    bench_counts = [bench.counts.get(0, 0), bench.counts.get(1, 0), bench.counts.get(2, 0)]
    census_counts = [census[0], census[1], census[2]]

    # genus-1 level set: critical counts inside the solid torus bound the
    # Betti numbers (1, 1)
    mesh3 = build_box_grid(3, cfg.n)
    major, minor = cfg.torus_radii
    torus = metric.torus_level((0.5,) * 3, major, minor)
    phi = torus.func(mesh3.vertices)
    region = np.all(phi[mesh3.cells] < 0, axis=1)
    solid = morse.classify_critical_points(mesh3, phi, region=region)
    betti_ok = morse.betti_bound_check(solid, (1, 1))

    # eigenfunction census, report-only
    mesh, geom = _build_scene(cfg)
    _, _, _, result = _solve_point(mesh, geom, cfg, cfg.epsilon)
    eig_rep = morse.classify_critical_points(mesh, result.vectors[:, 1])

    verdicts = [
        Verdict("cosine-benchmark-counts", bench_counts == census_counts,
                bench_counts, census_counts, "=="),
        Verdict("betti-bound", betti_ok,
                [solid.counts.get(0, 0), solid.counts.get(1, 0)], [1, 1], ">="),
    ]
    tables = {
        "benchmark": _table(
            ["resolution", "minima", "saddles", "maxima", "euler_sum"],
            [[cfg.resolution] + bench_counts + [bench.euler_sum()]],
        ),
        "solid_torus": _table(
            ["index", "count"],
            [[i, solid.counts.get(i, 0)] for i in range(4)],
        ),
        "eigenfunction": _table(
            ["epsilon", "index", "count"],
            [[cfg.epsilon, i, eig_rep.counts.get(i, 0)] for i in range(cfg.d + 1)],
        ),
    }
    return tables, verdicts, {}


def _run_oracle_compare(cfg: ScenarioConfig):
    mesh, geom = _build_scene(cfg)

    def point(eps):
        _, _, bound, result = _solve_point(mesh, geom, cfg, eps)
        prof = oracle.step_profile(eps, geom.eta, cfg.d, center=cfg.sigma_offset,
                                   resolution=cfg.oracle_resolution)
        ev = oracle.sturm_liouville_neumann(prof, 2)
        lam3, lam1 = float(result.values[1]), float(ev.values[1])
        return [eps, lam3, lam1, float(ev.refined[1]), abs(lam3 - lam1) / lam1]

    rows = _map_sweep(cfg, point, cfg.epsilons)
    worst = max(r[4] for r in rows)
    verdicts = [
        Verdict("oracle-equivalence", worst <= cfg.oracle_compare_tol, worst,
                cfg.oracle_compare_tol, "<="),
    ]
    tables = {
        "compare": _table(
            ["epsilon", "lambda1_fem", "lambda1_oracle", "lambda1_richardson", "rel_difference"],
            rows,
        )
    }
    return tables, verdicts, {}


_SCENARIOS = {
    "scaling": _run_scaling,
    "gap": _run_gap,
    "plateau": _run_plateau,
    "collar": _run_collar,
    "harmonic-approx": _run_harmonic_approx,
    "nodal": _run_nodal,
    "mollify": _run_mollify,
    "morse": _run_morse,
    "oracle-compare": _run_oracle_compare,
}


def run_scenario(config: ScenarioConfig) -> Report:
    """Execute one scenario; failures are captured, never swallowed silently."""
    report = Report(
        scenario=config.scenario,
        config=config.to_dict(),
        seed=config.seed,
        versions=_versions(),
    )
    start = time.perf_counter()
    stage = "config"
    try:
        runner = _SCENARIOS[config.scenario]
        stage = config.scenario
        tables, verdicts, artifacts = runner(config)
        report.tables = tables
        report.verdicts = verdicts
        report.artifacts = artifacts
    except Exception as exc:  # noqa: BLE001 - reported, not hidden
        report.failures.append({"stage": stage, "error": f"{type(exc).__name__}: {exc}"})
    report.timings["total_seconds"] = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# persistence and plotting data


def write_report(report: Report, out_dir) -> Dict[str, str]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    json_path = out / f"{report.scenario}.json"
    json_path.write_text(report.to_json(), encoding="utf-8")
    paths["json"] = str(json_path)
    for name, table in report.tables.items():
        csv_path = out / f"{report.scenario}_{name}.csv"
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(table["columns"])
            writer.writerows(table["rows"])
        paths[f"csv:{name}"] = str(csv_path)
    return paths


_EMIT_KINDS = {
    "loglog": ("sweep", ["epsilon", "lambda1"]),
    "profile": ("profile", ["rho", "u", "h", "hbar"]),
}


def _plot_lines(report_dict: dict, kind: str) -> List[str]:
    if kind == "surface":
        polygons = report_dict.get("artifacts", {}).get("polygons")
        if polygons is None:
            raise ValueError("report has no polygon data for kind=surface")
        return [f"{len(poly)} " + " ".join(repr(float(x)) for pt in poly for x in pt) for poly in polygons]
    if kind not in _EMIT_KINDS:
        raise ValueError(f"unknown emit kind '{kind}'")
    table_name, columns = _EMIT_KINDS[kind]
    table = report_dict.get("tables", {}).get(table_name)
    if table is None:
        raise ValueError(f"report has no '{table_name}' table for kind={kind}")
    index = [table["columns"].index(c) for c in columns]
    return [" ".join(columns)] + [" ".join(repr(float(row[i])) for i in index) for row in table["rows"]]


def emit_plot_data(report_dict: dict, kind: str, out_dir) -> str:
    """Write whitespace-separated plot data extracted from a report.

    The report is read in full before the output file opens: a malformed one
    raises ValueError and leaves no partial file behind.
    """
    if not isinstance(report_dict, dict):
        raise ValueError("report is not a JSON object")
    scenario = report_dict.get("scenario", "report")
    if scenario not in ("report", *_SCENARIOS):
        raise ValueError(f"report names no known scenario: {scenario!r}")
    try:
        lines = _plot_lines(report_dict, kind)
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError) as exc:
        raise ValueError(f"malformed report for kind={kind}: {exc!r}") from exc
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / (f"{scenario}_surface.txt" if kind == "surface" else f"{scenario}_{kind}.dat")
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# command line


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="dumbbell",
        description="Conformal dumbbell spectral scenarios: run configs, emit plot data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario config file")
    run_p.add_argument("config", help="flat key=value config file")
    run_p.add_argument("--out", default=None, help="output directory (default from config)")
    run_p.add_argument("--workers", type=int, default=None, help="sweep worker count")

    emit_p = sub.add_parser("emit", help="extract plot data from a report")
    emit_p.add_argument("report", help="report JSON produced by run")
    emit_p.add_argument("--kind", required=True, choices=["loglog", "profile", "surface"])
    emit_p.add_argument("--out", default="out", help="output directory")

    args = parser.parse_args(argv)

    if args.command == "run":
        try:
            config = ScenarioConfig.from_file(args.config)
        except (OSError, ValueError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        if args.workers is not None:
            config = dataclasses.replace(config, workers=args.workers)
        if args.out is not None:
            config = dataclasses.replace(config, out=args.out)
        report = run_scenario(config)
        paths = write_report(report, config.out)
        for failure in report.failures:
            print(f"ERROR in stage {failure['stage']}: {failure['error']}", file=sys.stderr)
        for verdict in report.verdicts:
            status = "PASS" if verdict.passed else "FAIL"
            print(
                f"{status} {verdict.name}: measured={_fmt(verdict.measured)} "
                f"{verdict.comparator} threshold={_fmt(verdict.threshold)}"
            )
        print(f"report: {paths['json']}")
        if report.failures:
            return 2
        return 0 if report.all_passed() else 1

    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            report_dict = json.load(fh)
        path = emit_plot_data(report_dict, args.kind, args.out)
    except (OSError, ValueError) as exc:
        print(f"emit error: {exc}", file=sys.stderr)
        return 2
    print(path)
    return 0


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)
