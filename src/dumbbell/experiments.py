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
import operator
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from . import assembly, eigen, harmonic, metric, morse, nodal, oracle
from .mesh import Mesh, build_box_grid, load_mesh


@dataclass
class ScenarioConfig:
    """One scenario run: the scene and its sweep.  Gates are not configurable;
    each scenario writes its thresholds, and the values they are read
    against, into its code."""

    scenario: str
    mesh_path: str = ""                    # a mesh file; a box grid when empty
    d: int = 3                             # the scene's dimension; a mesh file's must match
    n: int = 16
    eta: float = 0.125
    sigma: str = "plane"                   # plane | sphere:cx,cy,cz,r | torus:R,r
    sigma_offset: float = 0.5
    warp: str = "none"                     # none | linear:<slope>
    epsilons: tuple = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
    epsilon: float = 1e-3
    seed: int = 0
    workers: int = 1
    out: str = "out"
    oracle_resolution: int = 1024
    resolution: int = 32                   # torus grid of the morse benchmark, >= 3

    def __post_init__(self):
        for key in ("eta", "sigma_offset"):
            if not np.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
        if not self.epsilons:
            raise ValueError("epsilons must list at least one value")
        if self.eta <= 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        for key, values in (("epsilon", (self.epsilon,)), ("epsilons", self.epsilons)):
            if not all(0 < e <= 1 for e in values):  # nan and inf fail here too
                raise ValueError(f"{key} must lie in (0, 1], got {getattr(self, key)}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValueError(f"seed must be at least 0, got {self.seed}")
        if self.oracle_resolution < 64:
            raise ValueError(f"oracle_resolution must be at least 64, got {self.oracle_resolution}")
        if self.resolution < 3:
            raise ValueError(f"resolution must be at least 3 (a torus grid), got {self.resolution}")
        if self.scenario == "scaling" and len(set(self.epsilons)) < 3:  # a slope needs three points
            raise ValueError(f"epsilons must hold at least 3 distinct values for scaling, got {self.epsilons}")
        _parse_sigma(self)  # scene descriptors fail here, as config errors
        _parse_warp(self.warp)

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
        mapping, lines = {}, {}
        with open(path, "r", encoding="utf-8") as fh:
            for ln, raw in enumerate(fh, start=1):
                text = raw.split("#", 1)[0].strip()
                if not text:
                    continue
                if "=" not in text:
                    raise ValueError(f"line {ln}: expected 'key = value', got '{text}'")
                key, value = (part.strip() for part in text.split("=", 1))
                if key in lines:
                    raise ValueError(f"line {ln}: '{key}' is already set on line {lines[key]}")
                mapping[key], lines[key] = value, ln
        return cls.from_mapping(mapping)


_SCENARIO_DEFAULTS = {
    "oracle-compare": {"epsilons": (1.0, 0.1)},
    "harmonic-approx": {"n": 20, "eta": 0.2, "warp": "linear:1.0"},
    "morse": {"n": 20},
}


def _coerce(value, fld: dataclasses.Field):
    """Parse a config value as its text, as a config file gives it; a list or tuple is its items joined by spaces."""
    value = " ".join(map(str, value)) if isinstance(value, (list, tuple)) else str(value)
    kind = fld.type if isinstance(fld.type, str) else getattr(fld.type, "__name__", "str")
    parse, expected = {
        "tuple": (lambda v: tuple(float(p) for p in v.replace(",", " ").split()), "a list of numbers"),
        "int": (int, "an integer"),
        "float": (float, "a number"),
    }.get(kind, (str, "text"))
    try:
        return parse(value)
    except ValueError:
        raise ValueError(f"{fld.name} must be {expected}, got '{value}'") from None


_ORDER = {"<=": operator.le, "<": operator.lt, "==": operator.eq, ">=": operator.ge}


@dataclass
class Verdict:
    """A gate: PASS is ``measured comparator threshold`` and nothing else.

    Order comparators apply elementwise to lists, ``in`` reads the threshold
    as a closed band [lo, hi], and ``monotone`` holds a glitch count and the
    worst relative rise to their maxima.
    """

    name: str
    measured: object
    threshold: object
    comparator: str

    @property
    def passed(self) -> bool:
        m, t = self.measured, self.threshold
        if self.comparator == "in":
            return bool(t[0] <= m <= t[1])
        if self.comparator == "monotone":
            return bool(m["glitches"] <= t["max_glitches"] and m["worst_excess"] <= t["glitch_tol"])
        op = _ORDER[self.comparator]
        if isinstance(m, list):
            return len(m) == len(t) and all(op(a, b) for a, b in zip(m, t))
        return bool(op(m, t))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
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


def _descriptor_numbers(tag: str) -> List[float]:
    """The finite comma-separated numbers after the colon of ``kind:a,b,...``."""
    try:
        vals = [float(x) for x in tag.split(":", 1)[1].split(",")]
    except ValueError:
        raise ValueError(f"'{tag}' needs comma-separated numbers after the colon") from None
    if not all(np.isfinite(vals)):
        raise ValueError(f"'{tag}' has a non-finite number")
    return vals


def _parse_warp(tag: str):
    if tag in ("none", "", None):
        return None, None
    if tag.startswith("linear:"):
        vals = _descriptor_numbers(tag)
        if len(vals) != 1:
            raise ValueError(f"warp '{tag}' takes one slope")
        slope = vals[0]
        return (lambda r: 1.0 + slope * r), slope
    raise ValueError(f"unknown warp '{tag}'")


def _parse_sigma(cfg: ScenarioConfig):
    tag = cfg.sigma
    if tag == "plane":
        return metric.PlaneSigma(cfg.sigma_offset)
    if tag.startswith("sphere:"):
        vals = _descriptor_numbers(tag)
        if len(vals) != cfg.d + 1 or vals[-1] <= 0:
            raise ValueError(f"sigma '{tag}': a sphere takes {cfg.d} center coordinates and a radius > 0")
        r, sigma = vals[-1], metric.sphere_level(vals[:-1], vals[-1])
        wall = min(min(vals[:-1]), 1.0 - max(vals[:-1])) - r  # from the sphere to the unit box wall
    elif tag.startswith("torus:"):
        vals = _descriptor_numbers(tag)
        if cfg.d != 3:
            raise ValueError(f"sigma '{tag}': a torus needs d = 3")
        if len(vals) != 2 or not 0 < vals[1] < vals[0]:  # embedded, so torus_level is a distance
            raise ValueError(f"sigma '{tag}': a torus takes two radii R, r with 0 < r < R")
        r, sigma = vals[1], metric.torus_level((0.5,) * 3, *vals)
        wall = 0.5 - vals[0] - r
    else:
        raise ValueError(f"unknown sigma descriptor '{tag}'")
    if r <= cfg.eta:  # no inside point lies beyond the collar: the minus region is empty
        raise ValueError(f"sigma '{tag}': r = {r} must exceed eta = {cfg.eta} (no inside beyond the collar)")
    if not cfg.mesh_path and (r - cfg.eta) * cfg.n < 1:  # a core thinner than a cell falls apart on the grid
        raise ValueError(f"sigma '{tag}': its core r - eta = {r - cfg.eta:g} is thinner than one cell (n = {cfg.n})")
    if not cfg.mesh_path and wall <= cfg.eta:  # the collar would cut pockets off the outside at the wall
        raise ValueError(f"sigma '{tag}': its collar reaches the box wall ({wall:g} away, eta = {cfg.eta})")
    return sigma


def _build_scene(cfg: ScenarioConfig):
    """The scene's mesh and collar; past here the mesh, not ``cfg.d``, is the dimension."""
    if cfg.mesh_path:
        mesh = load_mesh(cfg.mesh_path)
        if mesh.dim != cfg.d:
            raise ValueError(f"mesh file '{cfg.mesh_path}' is {mesh.dim}d, but the config sets d = {cfg.d}")
    else:
        mesh = build_box_grid(cfg.d, cfg.n, warp=_parse_warp(cfg.warp)[0], sigma_offset=cfg.sigma_offset)
    return mesh, metric.collar_geometry(mesh, _parse_sigma(cfg), cfg.eta)


def _plateaus(geom: metric.CollarGeometry) -> harmonic.PlateauConstants:
    k0 = metric.kappa_zero(geom.vol_collar, geom.vol_complement, geom.dim)
    return harmonic.compute_plateaus(geom.vol_plus, geom.vol_minus, k0, geom.dim)


def _oracle_profile(cfg: ScenarioConfig, geom: metric.CollarGeometry, eps: float):
    return oracle.step_profile(eps, geom.eta, geom.dim, center=cfg.sigma_offset,
                               warp=_parse_warp(cfg.warp)[0], resolution=cfg.oracle_resolution)


def _solve_point(mesh, geom, cfg, eps, m=2, mollify_n=None):
    """Assemble and solve one sweep point from the clipped distance, its first mode signed by the plus plateau."""
    fld = metric.build_conformal_field(geom, eps, mollify_n)
    pair = assembly.assemble(mesh, fld)
    result = eigen.solve_smallest(pair, m, seed=cfg.seed, start=eigen.clipped_distance(mesh, geom, pair))
    return fld, pair, eigen.apply_sign_rule(result, pair, geom)


def _map_sweep(cfg: ScenarioConfig, fn: Callable, items):
    if cfg.workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        return list(pool.map(fn, items))


def _monotone_verdict(name: str, values) -> Verdict:
    """Nonincreasing along the sweep, with at most one rise of at most 5%."""
    worst = 0.0
    glitches = 0
    for prev, cur in zip(values, values[1:]):
        if cur > prev:
            glitches += 1
            worst = max(worst, cur / prev - 1.0)
    return Verdict(name, {"glitches": glitches, "worst_excess": worst},
                   {"max_glitches": 1, "glitch_tol": 0.05}, "monotone")


# ---------------------------------------------------------------------------
# scenarios


def _require_plane_box(cfg: ScenarioConfig):
    if cfg.sigma != "plane" or cfg.mesh_path:
        raise ValueError(f"{cfg.scenario} needs the plane scene on a box grid (sigma=plane, no mesh_path)")


def _require_box_grid(cfg: ScenarioConfig, reader: str):
    if cfg.mesh_path:
        raise ValueError(f"{cfg.scenario}'s {reader} needs a box grid (no mesh_path)")


def _run_scaling(cfg: ScenarioConfig):
    _require_plane_box(cfg)  # the 1d oracle is a plane reduction
    mesh, geom = _build_scene(cfg)

    def point(eps):
        fld, pair, result = _solve_point(mesh, geom, cfg, eps)
        bound = eigen.minmax_bound(mesh, geom, pair)
        vol_err = metric.verify_volume_preservation(fld, geom)
        return (eps, result.values[1], result.values[0], bound, fld.kappa, vol_err,
                float(result.residuals[1:].max()))

    def oracle_point(eps):
        ev = oracle.sturm_liouville_neumann(_oracle_profile(cfg, geom, eps), 2, refine=False)
        return float(ev.values[1])

    # one pool for both paths, the longer oracle solves submitted first
    tasks = [(oracle_point, eps) for eps in cfg.epsilons] + [(point, eps) for eps in cfg.epsilons]
    done = _map_sweep(cfg, lambda task: task[0](task[1]), tasks)
    oracle_lams, rows = done[:len(cfg.epsilons)], done[len(cfg.epsilons):]

    lam1 = [r[1] for r in rows]
    bounds = [r[3] for r in rows]
    fit3d = oracle.scaling_fit(cfg.epsilons, lam1)
    fit1d = oracle.scaling_fit(cfg.epsilons, oracle_lams)

    slope = geom.dim / 2 - 1  # lambda1 ~ eps^(d/2 - 1)
    verdicts = [
        Verdict("eigenvalue-scaling-slope", fit3d.slope, [slope - 0.1, slope + 0.1], "in"),
        Verdict("oracle-scaling-slope", fit1d.slope, [slope - 0.05, slope + 0.05], "in"),
        Verdict("minmax-sandwich", max(l - b for l, b in zip(lam1, bounds)), 0.0, "<="),
        Verdict("volume-preservation", max(r[5] for r in rows), 1e-12, "<="),
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
    fld, _, result = _solve_point(mesh, geom, cfg, cfg.epsilon, m=3)
    lam1, lam2 = result.values[1], result.values[2]

    mus = {}
    for side in ("plus", "minus"):
        sub = assembly.subdomain_neumann(mesh, geom, side)
        sub_res = eigen.solve_smallest(sub, 2, seed=cfg.seed)
        mus[side] = float(sub_res.values[1])
    mu_min = min(mus.values())
    # bulk regions carry metric kappa*g0, so their Neumann values rescale by 1/kappa
    target = mu_min / fld.kappa
    rel = abs(lam2 - target) / target
    raw_rel = abs(lam2 - mu_min) / mu_min
    verdicts = [
        Verdict("gap-neumann-match", rel, 0.15, "<="),
        Verdict("simplicity-ratio", lam2 / lam1, 10.0, ">="),
    ]
    tables = {
        "gap": _table(
            ["epsilon", "lambda1", "lambda2", "mu_plus", "mu_minus", "kappa",
             "rel_to_scaled_mu", "rel_to_raw_mu"],
            [[cfg.epsilon, lam1, lam2, mus["plus"], mus["minus"], fld.kappa, rel, raw_rel]],
        )
    }
    return tables, verdicts, {}


def _run_plateau(cfg: ScenarioConfig):
    mesh, geom = _build_scene(cfg)
    consts = _plateaus(geom)
    far = {"plus": geom.rho >= 2 * geom.eta - 1e-12, "minus": geom.rho <= -2 * geom.eta + 1e-12}
    for side, mask in far.items():
        if not mask.any():
            raise ValueError(f"plateau needs a far bulk: no vertex on the {side} side lies "
                             f"2 eta = {2 * geom.eta:g} or more from sigma")
    sweep = tuple(sorted(cfg.epsilons, reverse=True))  # monotone gate reads large -> small

    def point(eps):
        _, _, result = _solve_point(mesh, geom, cfg, eps)
        u1 = result.vectors[:, 1]
        sp = float(np.abs(u1[far["plus"]] - consts.c_plus).max())
        sm = float(np.abs(u1[far["minus"]] - consts.c_minus).max())
        return eps, result.values[1], sp, sm, max(sp, sm) / consts.gap

    rows = _map_sweep(cfg, point, sweep)
    sups = [r[4] for r in rows]
    verdicts = [
        Verdict("plateau-final", sups[-1], 0.05, "<="),
        _monotone_verdict("plateau-monotone", sups),
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
    _require_box_grid(cfg, "center-fiber profile")
    mesh, geom = _build_scene(cfg)
    consts = _plateaus(geom)
    hsol = harmonic.solve_harmonic(mesh, geom, consts)
    h_full = hsol.scatter(mesh.num_vertices)
    on_collar = ~np.isnan(h_full)

    sweep = tuple(sorted(cfg.epsilons, reverse=True))

    def point(eps):
        _, _, result = _solve_point(mesh, geom, cfg, eps)
        u1 = result.vectors[:, 1]
        sup = float(np.abs(u1[on_collar] - h_full[on_collar]).max()) / consts.gap
        return eps, result.values[1], sup, u1

    rows = _map_sweep(cfg, point, sweep)
    sups = [r[2] for r in rows]
    verdicts = [
        Verdict("collar-final", sups[-1], 0.05, "<="),
        _monotone_verdict("collar-monotone", sups),
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


def _run_harmonic_approx(cfg: ScenarioConfig):
    warp_fn, slope = _parse_warp(cfg.warp)
    if warp_fn is None:
        raise ValueError("harmonic-approx needs a warped scene (warp=linear:<slope>)")
    _require_plane_box(cfg)

    # flat benchmark: the affine model is discrete-harmonic, so h matches it
    flat_cfg = dataclasses.replace(cfg, warp="none")
    mesh_flat, geom_flat = _build_scene(flat_cfg)
    consts_flat = _plateaus(geom_flat)
    flat = harmonic.solve_harmonic(mesh_flat, geom_flat, consts_flat)

    mesh = build_box_grid(cfg.d, cfg.n, warp=warp_fn, sigma_offset=cfg.sigma_offset)
    sigma = metric.PlaneSigma(cfg.sigma_offset)

    rows = []
    devs = []
    for eta in (0.2, 0.1, 0.05):  # halving eta should halve the deviation
        geom = metric.collar_geometry(mesh, sigma, eta)
        consts = _plateaus(geom)
        sol = harmonic.solve_harmonic(mesh, geom, consts)
        if not rows:  # the widest eta also backs the spectral solve below
            geom0, consts0, sol0 = geom, consts, sol
        dev = sol.sup_deviation / consts.gap
        devs.append(dev)
        rows.append([geom.eta, dev, consts.gap])
    ratios = [devs[i] / devs[i + 1] for i in range(len(devs) - 1)]

    # spectral collar solve against the 1d closed form, at the widest eta
    n_sigma = 64  # the 1e-4 gate below reads the truncation at 64 modes
    d, gap = geom0.dim, consts0.gap
    wp_over_w = lambda r: slope / (1.0 + slope * r)  # w'/w of the linear warp w = 1 + slope rho
    fsol = harmonic.collar_fourier_solve(
        geom0.eta,
        lambda r: -(d - 1) * wp_over_w(r) * gap / 2.0,
        lambda r: -(d - 1) * wp_over_w(r) * (np.pi / 2.0),
        n_sigma=n_sigma,
    )
    h1d = harmonic.warped_harmonic_1d(warp_fn, geom0.eta, consts0, geom0.dim)
    rr = np.linspace(-geom0.eta, geom0.eta, 801)
    h_fourier = harmonic.hbar(rr, geom0.eta, consts0) + fsol.evaluate_rho(rr)
    h_exact = h1d(rr)
    fourier_rel = float(np.abs(h_fourier - h_exact).max() / np.abs(h_exact).max())

    # FEM consistency on the same collar (reported, asserted in unit tests)
    fem_vs_fourier = float(
        np.abs(
            sol0.values
            - (harmonic.hbar(geom0.rho[sol0.vertex_ids], geom0.eta, consts0)
               + fsol.evaluate_rho(geom0.rho[sol0.vertex_ids]))
        ).max()
        / consts0.gap
    )

    verdicts = [
        Verdict("flat-harmonic-exact", flat.sup_deviation, 1e-8, "<="),
        Verdict("deviation-halving", min(ratios), 1.5, ">="),
        Verdict("fourier-vs-closed-form", fourier_rel, 1e-4, "<="),
    ]
    tables = {
        "deviation": _table(["eta", "sup_dev_over_gap", "gap"], rows),
        "fourier": _table(
            ["eta", "n_sigma", "rel_error", "fem_vs_fourier"],
            [[geom0.eta, n_sigma, fourier_rel, fem_vs_fourier]],
        ),
    }
    return tables, verdicts, {}


def _run_nodal(cfg: ScenarioConfig):
    _require_box_grid(cfg, "single-crossing check")
    mesh, geom = _build_scene(cfg)
    consts = _plateaus(geom)
    fld, _, result = _solve_point(mesh, geom, cfg, cfg.epsilon)
    u1 = result.vectors[:, 1]

    ns = nodal.extract_nodal_set(mesh, u1)
    reach = max(abs(r) for r in ns.value_range(geom.rho))  # NaN on an empty set
    single = nodal.single_crossing_check(mesh, u1)
    grad_floor = 0.5 * consts.gap / (2.0 * geom.eta)  # half the affine model's slope

    verdicts = [
        Verdict("nodal-components", ns.n_components, 1, "=="),
        Verdict("nodal-contained", reach, geom.eta, "<"),
        Verdict("single-crossing", single, True, "=="),
        Verdict("nodal-domains", ns.domains, 2, "=="),
        Verdict("regular-gradient", ns.min_gradient, grad_floor, ">="),
    ]
    tables = {
        "nodal": _table(
            ["epsilon", "lambda1", "components", "max_abs_rho", "contained",
             "single_crossing", "domains", "min_gradient", "total_area",
             "predicted_root"],
            [[cfg.epsilon, result.values[1], ns.n_components, reach,
              reach < geom.eta, single, ns.domains, ns.min_gradient, ns.total_area,
              harmonic.hbar_root(geom.eta, consts)]],
        )
    }
    artifacts = {
        "polygons": [poly.tolist() for poly in ns.polygons()],
        "conformal_field": fld.to_dict(),
    }
    return tables, verdicts, artifacts


def _run_mollify(cfg: ScenarioConfig):
    if cfg.n % 4:
        raise ValueError("mollify widths of 4, 2 and 1 spacings need n divisible by 4")
    mesh, geom = _build_scene(cfg)
    eps = 0.95  # see README: small eps cannot meet the 1% gate at desk scale
    _, _, ref = _solve_point(mesh, geom, cfg, eps)
    lam_ref = float(ref.values[1])
    u_ref = ref.vectors[:, 1]
    consts = _plateaus(geom)

    rows = []
    diffs = []
    vec_sup = None
    for k in (4, 2, 1):  # transition widths in mesh spacings
        n_moll = cfg.n // k
        fm, _, rm = _solve_point(mesh, geom, cfg, eps, mollify_n=n_moll)
        gamma = metric.volume_rescale_factor(fm, geom)
        lam = float(rm.values[1]) / gamma
        diff = abs(lam - lam_ref) / lam_ref
        diffs.append(diff)
        sup = float(np.abs(rm.vectors[:, 1] - u_ref).max()) / consts.gap
        if k == 1:
            vec_sup = sup
        rows.append([k, 1.0 / n_moll, gamma, lam, diff, sup])

    verdicts = [
        Verdict("mollify-monotone", max((b / a) for a, b in zip(diffs, diffs[1:])), 1.0, "<"),
        Verdict("mollify-final-difference", diffs[-1], 0.01, "<="),
        Verdict("mollify-vector", vec_sup, 0.02, "<="),
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
    # cosine-product benchmark on the flat 2-torus (two periods along x, one along y)
    grid = build_box_grid(2, cfg.resolution, periodic=True)
    u_bench = morse.cosine_product_field(grid.vertices, periods=(2, 1))
    bench = morse.classify_critical_points(grid, u_bench)
    census = morse.cosine_product_census((2, 1))
    bench_counts = [bench.counts.get(0, 0), bench.counts.get(1, 0), bench.counts.get(2, 0)]
    census_counts = [census[0], census[1], census[2]]

    # eigenfunction census, report-only
    mesh, geom = _build_scene(cfg)
    _, _, result = _solve_point(mesh, geom, cfg, cfg.epsilon)
    eig_rep = morse.classify_critical_points(mesh, result.vectors[:, 1])

    # genus-1 level set: critical counts inside the solid torus bound the
    # Betti numbers (1, 1); a 3d n-grid scene is that grid (a warp is only its metric)
    mesh3 = mesh if mesh.dim == 3 and mesh.grid_resolution is not None else build_box_grid(3, cfg.n)
    torus = metric.torus_level((0.5,) * 3, 0.3, 0.14)
    phi = torus.func(mesh3.vertices)
    region = np.all(phi[mesh3.cells] < 0, axis=1)
    solid = morse.classify_critical_points(mesh3, phi, region=region)

    verdicts = [
        Verdict("cosine-benchmark-counts", bench_counts, census_counts, "=="),
        Verdict("betti-bound", [solid.counts.get(0, 0), solid.counts.get(1, 0)], [1, 1], ">="),
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
            [[cfg.epsilon, i, eig_rep.counts.get(i, 0)] for i in range(mesh.dim + 1)],
        ),
    }
    return tables, verdicts, {}


def _run_oracle_compare(cfg: ScenarioConfig):
    _require_plane_box(cfg)  # the 1d oracle is a plane reduction
    mesh, geom = _build_scene(cfg)

    def point(eps):
        _, _, result = _solve_point(mesh, geom, cfg, eps)
        ev = oracle.sturm_liouville_neumann(_oracle_profile(cfg, geom, eps), 2)
        lam3, lam1 = float(result.values[1]), float(ev.values[1])
        return [eps, lam3, lam1, float(ev.refined[1]), abs(lam3 - lam1) / lam1]

    rows = _map_sweep(cfg, point, cfg.epsilons)
    worst = max(r[4] for r in rows)
    verdicts = [
        Verdict("oracle-equivalence", worst, 0.02, "<="),
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
SCENARIO_NAMES = tuple(_SCENARIOS)


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
        overrides = {k: v for k, v in (("workers", args.workers), ("out", args.out)) if v is not None}
        try:  # overrides pass the same checks as the file's keys
            config = dataclasses.replace(ScenarioConfig.from_file(args.config), **overrides)
            Path(config.out).mkdir(parents=True, exist_ok=True)  # an unusable directory fails before any scene
        except (OSError, ValueError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
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
