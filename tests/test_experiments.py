import csv
import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import eigsh

from dumbbell import experiments, oracle
from dumbbell.experiments import (
    ScenarioConfig,
    _build_scene,
    _solve_point,
    emit_plot_data,
    main,
    run_scenario,
    write_report,
)
from dumbbell.metric import SeparationError

SMALL_SCALING = {
    "scenario": "scaling",
    "n": 8,
    "oracle_resolution": 256,
    "epsilons": (1e-1, 1e-2, 1e-3),
}


@pytest.fixture(scope="module")
def scaling_report():
    return run_scenario(ScenarioConfig.from_mapping(SMALL_SCALING))


def test_config_file_parsing(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# comment\n"
        "scenario = scaling\n"
        "n = 8\n"
        "epsilons = 1e-1, 1e-2, 1e-3\n"
        "eta=0.125\n"
        "out = results\n"
    )
    cfg = ScenarioConfig.from_file(cfg_file)
    assert cfg.scenario == "scaling"
    assert cfg.n == 8
    assert cfg.epsilons == (1e-1, 1e-2, 1e-3)
    assert cfg.out == "results"


def test_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown config key"):
        ScenarioConfig.from_mapping({"scenario": "scaling", "bogus": 1})


@pytest.mark.parametrize("key, value, error", [
    ("n", 16.7, "n must be an integer, got '16.7'"),
    ("seed", 1.5, "seed must be an integer, got '1.5'"),
    ("workers", 2.5, "workers must be an integer, got '2.5'"),
    ("eta", True, "eta must be a number, got 'True'"),
    ("n", None, "n must be an integer, got 'None'"),
    ("epsilons", ["0.1", "x"], "epsilons must be a list of numbers, got '0.1 x'"),
    ("sigma", 3, "unknown sigma descriptor '3'"),
    ("epsilons", 0.1, None),  # one number, as a config file line gives it
])
def test_mapping_values_parse_as_their_config_text(key, value, error):
    mapping = {"scenario": "gap", key: value}
    if error is None:
        assert ScenarioConfig.from_mapping(mapping) == ScenarioConfig.from_mapping({**mapping, key: str(value)})
    else:
        with pytest.raises(ValueError, match=re.escape(error)):
            ScenarioConfig.from_mapping(mapping)


# gates and solver settings that were config keys; the scenarios fix them now
REMOVED_KEYS = (
    "slope_band", "oracle_slope_band", "gap_rel_tol", "simplicity_ratio", "plateau_tol",
    "collar_tol", "glitch_tol", "flat_harmonic_tol", "deviation_factor", "fourier_tol",
    "volume_tol", "oracle_compare_tol", "mollify_lambda_tol", "mollify_vector_tol",
    "min_gradient_factor", "tol", "modes",
)


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_gate_key_is_unknown(key):
    with pytest.raises(ValueError, match="unknown config key"):
        ScenarioConfig.from_mapping({"scenario": "gap", key: "1"})


# scene knobs with one value in use, at that value; the scenarios fix them now
REMOVED_SCENE_KEYS = {
    "kind": "box", "n_sigma": "64", "etas": "0.2, 0.1, 0.05", "mollify_widths": "4, 2, 1",
    "mollify_epsilon": "0.95", "torus_radii": "0.3, 0.14",
}


@pytest.mark.parametrize("key", REMOVED_SCENE_KEYS)
def test_removed_scene_key_is_a_config_error(tmp_path, capsys, key):
    cfg_file = tmp_path / "old.cfg"
    cfg_file.write_text(f"scenario = gap\nn = 8\n{key} = {REMOVED_SCENE_KEYS[key]}\n")
    assert main(["run", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: unknown config key '{key}'")


@pytest.mark.parametrize("path", sorted((Path(__file__).parents[1] / "configs").glob("*.cfg")),
                         ids=lambda path: path.name)
def test_shipped_configs_parse(path):
    assert ScenarioConfig.from_file(path).scenario == path.stem


def test_config_rejects_unknown_scenario():
    with pytest.raises(ValueError, match="unknown scenario"):
        ScenarioConfig.from_mapping({"scenario": "does-not-exist"})


def test_report_has_thresholds_and_versions(scaling_report):
    data = scaling_report.to_dict()
    assert data["versions"]["numpy"] == np.__version__
    for verdict in data["verdicts"]:
        assert "threshold" in verdict and "measured" in verdict and "comparator" in verdict
    assert scaling_report.all_passed()


def test_reports_are_deterministic():
    a = run_scenario(ScenarioConfig.from_mapping(SMALL_SCALING)).to_dict()
    b = run_scenario(ScenarioConfig.from_mapping(SMALL_SCALING)).to_dict()
    del a["timings"], b["timings"]
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_worker_override_keeps_results():
    a = run_scenario(ScenarioConfig.from_mapping(SMALL_SCALING)).to_dict()
    b = run_scenario(ScenarioConfig.from_mapping({**SMALL_SCALING, "workers": 3})).to_dict()
    del a["timings"], b["timings"]
    del a["config"]["workers"], b["config"]["workers"]
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_failure_captured_with_stage(tmp_path):
    cfg = ScenarioConfig.from_mapping(
        {"scenario": "nodal", "mesh_path": str(tmp_path / "missing.mesh")}
    )
    report = run_scenario(cfg)
    assert report.failures
    assert report.failures[0]["stage"] == "nodal"
    assert not report.all_passed()


def test_write_report_and_csv(tmp_path, scaling_report):
    paths = write_report(scaling_report, tmp_path)
    data = json.loads((tmp_path / "scaling.json").read_text())
    assert data["scenario"] == "scaling"
    with open(paths["csv:sweep"], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "epsilon"
    assert len(rows) == 1 + len(SMALL_SCALING["epsilons"])


def test_emit_loglog(tmp_path, scaling_report):
    path = emit_plot_data(scaling_report.to_dict(), "loglog", tmp_path)
    lines = (tmp_path / "scaling_loglog.dat").read_text().strip().splitlines()
    assert lines[0] == "epsilon lambda1"
    assert len(lines) == 1 + len(SMALL_SCALING["epsilons"])
    assert path.endswith("scaling_loglog.dat")


def test_emit_profile(tmp_path):
    cfg = ScenarioConfig.from_mapping(
        {"scenario": "collar", "n": 8, "epsilons": (1e-2, 1e-3)}
    )
    report = run_scenario(cfg)
    assert report.all_passed()
    emit_plot_data(report.to_dict(), "profile", tmp_path)
    lines = (tmp_path / "collar_profile.dat").read_text().strip().splitlines()
    assert lines[0] == "rho u h hbar"
    assert len(lines) == 1 + 9  # fibre of the n=8 grid


def test_emit_surface(tmp_path):
    cfg = ScenarioConfig.from_mapping({"scenario": "nodal", "n": 8})
    report = run_scenario(cfg)
    emit_plot_data(report.to_dict(), "surface", tmp_path)
    lines = (tmp_path / "nodal_surface.txt").read_text().strip().splitlines()
    assert len(lines) == len(report.artifacts["polygons"])  # one line per fragment
    first = lines[0].split()
    assert int(first[0]) in (3, 4)
    assert len(first) == 1 + 3 * int(first[0])


def test_module_entry_point_emits_a_surface(tmp_path):
    # `python -m dumbbell` in a fresh interpreter: one output line per polygon, exit code 0
    report = run_scenario(ScenarioConfig.from_mapping({"scenario": "nodal", "n": 8}))
    path = write_report(report, tmp_path)["json"]
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-m", "dumbbell", "emit", path, "--kind", "surface",
                          "--out", str(tmp_path / "plots")], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = Path(out.stdout.strip()).read_text().splitlines()
    assert len(lines) == len(report.artifacts["polygons"]) > 0


def test_emit_missing_table(scaling_report, tmp_path):
    with pytest.raises(ValueError, match="profile"):
        emit_plot_data(scaling_report.to_dict(), "profile", tmp_path)


def test_gap_scenario_from_file_mesh(tmp_path):
    from dumbbell.mesh import build_box_grid, save_mesh

    path = tmp_path / "box.mesh"
    save_mesh(build_box_grid(3, 8), path)
    cfg = ScenarioConfig.from_mapping(
        {"scenario": "gap", "mesh_path": str(path), "n": 8}
    )
    assert _build_scene(cfg)[0].grid_resolution is None  # read from the file, not built
    report = run_scenario(cfg)
    assert not report.failures
    assert report.all_passed()


def test_file_mesh_dimension_must_match_d(tmp_path):
    from dumbbell.mesh import build_box_grid, save_mesh

    path = tmp_path / "square.mesh"
    save_mesh(build_box_grid(2, 8), path)
    report = run_scenario(ScenarioConfig.from_mapping({"scenario": "gap", "mesh_path": str(path)}))
    assert report.failures == [{"stage": "gap", "error": f"ValueError: mesh file '{path}' is 2d, "
                                "but the config sets d = 3"}]
    report = run_scenario(ScenarioConfig.from_mapping({"scenario": "gap", "mesh_path": str(path), "d": 2}))
    assert not report.failures


def test_cli_run_and_emit(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "scenario = scaling\nn = 8\noracle_resolution = 256\n"
        "epsilons = 1e-1, 1e-2, 1e-3\n"
    )
    code = main(["run", str(cfg_file), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS eigenvalue-scaling-slope" in out
    code = main(["emit", str(tmp_path / "out" / "scaling.json"), "--kind", "loglog",
                 "--out", str(tmp_path / "plots")])
    assert code == 0


def test_cli_exit_codes(tmp_path, capsys):
    # a real scene that fails a gate: at epsilon = 0.1 the collar has not
    # collapsed yet, lambda2 / lambda1 = 2.28 is below 10, so the exit code is 1
    cfg_file = tmp_path / "fail.cfg"
    cfg_file.write_text(
        "scenario = gap\nn = 8\nepsilon = 0.1\n"
    )
    code = main(["run", str(cfg_file), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "FAIL simplicity-ratio" in capsys.readouterr().out
    # config errors exit with 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("scenario = nope\n")
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("where", ["--out", "config"])
@pytest.mark.parametrize("kind", ["file", "under-a-file"])
def test_cli_unusable_output_directory_is_a_config_error(tmp_path, capsys, monkeypatch, where, kind):
    # an existing file, or a path through one, cannot hold the report: exit 2 before any scene is built
    def no_run(config):
        raise AssertionError("ran the scenario before the output directory was made")

    monkeypatch.setattr(experiments, "run_scenario", no_run)
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken if kind == "file" else taken / "out"
    cfg_file = tmp_path / "gap.cfg"
    cfg_file.write_text("scenario = gap\nn = 8\n" + (f"out = {out}\n" if where == "config" else ""))
    assert main(["run", str(cfg_file), *(["--out", str(out)] if where == "--out" else [])]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("line", [
    "sigma = sphere:0.5,0.3",            # one center coordinate at d = 3
    "sigma = sphere:0.5,0.5,0.5,-0.3",
    "sigma = sphere:",
    "sigma = sphere:0.5,0.5,0.5,nan",
    "d = 2\nsigma = torus:0.3,0.1",      # a torus needs d = 3
    "sigma = torus:0.3",
    "sigma = torus:0.3,-0.1",
    "sigma = torus:0.1,0.3",             # r > R: not embedded, hypot is no distance
    "sigma = torus:0.3,0.3",
    "sigma = torus:0.3,0.1",             # minor radius within eta = 0.125: no minus region
    "sigma = sphere:0.5,0.5,0.5,0.125",  # radius equal to eta
    "warp = linear:abc",
    "warp = linear:1,2",
    "resolution = 2",                     # the morse torus grid needs 3 cells per axis
    "torus_radii = 0.14, 0.3",            # removed keys are unknown config keys
    "torus_radii = 0.3",
    "kind = bogus",
    "kind = warped-box\nwarp = linear:1.0",
    "kind = file",
    "eta = inf",                          # non-finite floats fail here, not mid-run
    "eta = nan",
    "epsilon = nan",
    "sigma_offset = nan",
    "epsilons = 1e-1, nan, 1e-3",
    "epsilons = ",                        # an empty sweep
    "eta = 0",                            # ranges fail here, before any scene is built
    "eta = -0.1",
    "epsilon = 2",
    "epsilon = 0",
    "epsilons = 0.1, 0.01, -0.001",
    "workers = 0",
    "workers = -1",
    "seed = -1",
    "n = 16",                             # a key set twice: the template sets n = 8
])
def test_cli_rejects_malformed_scene_descriptors(tmp_path, capsys, line):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"scenario = gap\nn = 8\n{line}\n")
    assert main(["run", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("key, value", [("n", "abc"), ("seed", "1.5"), ("epsilons", "0.1 abc")])
def test_cli_names_the_key_of_a_value_that_does_not_parse(tmp_path, capsys, key, value):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"scenario = gap\n{key} = {value}\n")
    assert main(["run", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} must be ") and f"got '{value}'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_cli_worker_override_is_checked_like_the_config(tmp_path, capsys, workers):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("scenario = gap\nn = 8\n")
    assert main(["run", str(cfg_file), "--out", str(tmp_path / "out"), "--workers", workers]) == 2
    assert capsys.readouterr().err == f"config error: workers must be at least 1, got {workers}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, floor", [
    ("n", 1, 2), ("n", 0, 2), ("oracle_resolution", 63, 64), ("oracle_resolution", 0, 64), ("seed", -1, 0),
])
def test_cli_names_the_key_of_a_size_below_its_floor(tmp_path, capsys, key, value, floor):
    # named at parse time, not mid-run by the mesh or the oracle
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"scenario = scaling\n{key} = {value}\n")
    assert main(["run", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {key} must be at least {floor}, got {value}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("epsilons, parsed", [("0.1, 0.01", (0.1, 0.01)), ("0.1, 0.1, 0.1", (0.1, 0.1, 0.1))])
def test_cli_scaling_needs_three_distinct_epsilons(tmp_path, capsys, epsilons, parsed):
    # named at parse time, before any solve; a repeat would make the slope fit singular
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"scenario = scaling\nn = 8\nepsilons = {epsilons}\n")
    assert main(["run", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"config error: epsilons must hold at least 3 distinct values for scaling, got {parsed}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario", [s for s in experiments.SCENARIO_NAMES if s != "scaling"])
def test_other_scenarios_take_a_single_epsilon(scenario):
    assert ScenarioConfig.from_mapping({"scenario": scenario, "epsilons": "0.1"}).epsilons == (0.1,)


@pytest.mark.parametrize("mapping", [
    {"sigma": "sphere:0.5,0.5,0.5,0.3"},
    {"d": 2, "sigma": "sphere:0.5,0.5,0.3"},
    {"sigma": "torus:0.25,0.14", "eta": 0.0625},
    {"warp": "linear:1.0"},
])
def test_well_formed_scene_descriptors_parse(mapping):
    cfg = ScenarioConfig.from_mapping({"scenario": "gap", **mapping})
    assert {k: getattr(cfg, k) for k in mapping} == mapping


def test_sigma_thinner_than_the_collar_is_a_config_error():
    with pytest.raises(ValueError, match=r"r = 0\.1 must exceed eta = 0\.125"):
        ScenarioConfig.from_mapping({"scenario": "gap", "sigma": "torus:0.3,0.1"})
    with pytest.raises(ValueError, match=r"r = 0\.2 must exceed eta = 0\.25"):
        ScenarioConfig.from_mapping({"scenario": "gap", "sigma": "sphere:0.5,0.5,0.5,0.2", "eta": 0.25})
    # r > eta with no cell beyond the collar on the grid is a config error too
    with pytest.raises(ValueError, match=r"core r - eta = 0\.015 is thinner than one cell \(n = 16\)"):
        ScenarioConfig.from_mapping({"scenario": "gap", "sigma": "torus:0.3,0.14"})


@pytest.mark.parametrize("sigma, eta, why", [
    ("torus:0.3,0.14", 0.0625, "collar reaches the box wall"),     # R + r + eta = 0.5025
    ("torus:0.25,0.14", 0.125, "thinner than one cell"),            # core 0.015 < 1/32, wall 0.515
    ("sphere:0.5,0.5,0.5,0.4", 0.125, "collar reaches the box wall"),
    ("torus:0.2,0.14", 0.125, "thinner than one cell"),             # core 0.015 < 1/32
])
def test_closed_sigma_that_splits_a_region_is_a_config_error(tmp_path, capsys, sigma, eta, why):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"scenario = gap\nn = 32\nsigma = {sigma}\neta = {eta}\nepsilon = 1e-7\n")
    assert main(["run", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and why in err


def test_closed_sigma_rules_leave_the_discrete_failure_to_the_run():
    # (0.2, 0.16): core 0.035 against 1/32 and 0.015 to the wall, so it builds
    _build_scene(ScenarioConfig.from_mapping({"scenario": "gap", "n": 32, "sigma": "torus:0.2,0.16"}))
    # (0.21, 0.16) passes both rules with 0.005 to the wall, and its grid collar still cuts a pocket
    cfg = ScenarioConfig.from_mapping({"scenario": "gap", "n": 32, "sigma": "torus:0.21,0.16"})
    with pytest.raises(SeparationError, match="plus region is disconnected"):
        _build_scene(cfg)
    # a file scene has no box wall and no cell size to hold the collar to
    for sphere in ("sphere:0.5,0.5,0.5,0.4", "sphere:0.5,0.5,0.5,0.15"):
        ScenarioConfig.from_mapping({"scenario": "gap", "mesh_path": "box.mesh", "sigma": sphere})


def _reports_by_worker_count(mapping):
    reports = []
    for workers in (1, 2):
        cfg = ScenarioConfig.from_mapping({**mapping, "workers": workers})
        report = json.loads(run_scenario(cfg).to_json())
        assert not report["failures"]
        report.pop("timings")
        report["config"].pop("workers")
        reports.append(json.dumps(report))
    return reports


def test_worker_count_does_not_change_the_report():
    reports = _reports_by_worker_count(SMALL_SCALING)
    assert reports[0] == reports[1]


def test_worker_count_does_not_change_the_multilevel_report():
    # n = 12 halves once, so every sweep point runs the multilevel solver
    reports = _reports_by_worker_count({**SMALL_SCALING, "n": 12})
    assert reports[0] == reports[1]


def test_worker_count_does_not_change_the_oracle_compare_report():
    # each point's N and 2N dense solves run in the pool, two at a time
    reports = _reports_by_worker_count({"scenario": "oracle-compare", "n": 8, "oracle_resolution": 64})
    assert reports[0] == reports[1]


def test_scaling_sweep_runs_in_one_pool_oracle_points_first(monkeypatch):
    pools, calls = [], []

    class InOrderPool(ThreadPoolExecutor):
        """Counts the pools a run makes; its one thread runs tasks in submission order."""

        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=1)

    def logged(fn, label):
        def run(*args, **kwargs):
            calls.append(label)
            return fn(*args, **kwargs)
        return run

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", InOrderPool)
    monkeypatch.setattr(oracle, "sturm_liouville_neumann", logged(oracle.sturm_liouville_neumann, "oracle"))
    monkeypatch.setattr(experiments, "_solve_point", logged(experiments._solve_point, "fem"))
    report = run_scenario(ScenarioConfig.from_mapping({**SMALL_SCALING, "workers": 2}))
    assert not report.failures
    assert pools == [2]
    assert calls == ["oracle"] * 3 + ["fem"] * 3
    assert [row[0] for row in report.tables["sweep"]["rows"]] == list(SMALL_SCALING["epsilons"])


@pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"])
def test_cli_emit_bad_report_exits_2(tmp_path, capsys, content):
    report = tmp_path / "report.json"
    if content is not None:
        report.write_text(content)
    code = main(["emit", str(report), "--kind", "loglog", "--out", str(tmp_path / "plots")])
    assert code == 2
    assert capsys.readouterr().err.startswith("emit error: ")


@pytest.mark.parametrize("report, kind", [
    ({"tables": {"sweep": {}}}, "loglog"),
    ({"tables": {"sweep": {"columns": ["epsilon", "lambda1"], "rows": [[1, 2], [None, 1]]}}},
     "loglog"),
    ({"tables": {"sweep": {"columns": ["epsilon", "lambda1"], "rows": [[1, 2], 3]}}}, "loglog"),
    ({"tables": {"sweep": {"columns": ["epsilon", "lambda1"], "rows": [[10**400, 2]]}}}, "loglog"),
    ({"artifacts": {"polygons": [1]}}, "surface"),
    ({"tables": []}, "loglog"),
    ({"scenario": "../x", "tables": {}}, "loglog"),
])
def test_cli_emit_malformed_report_exits_2(tmp_path, capsys, report, kind):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    out = tmp_path / "plots"
    assert main(["emit", str(path), "--kind", kind, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("emit error: ")
    assert not out.exists()  # checked before any output is written


def _morse_grids(monkeypatch, mapping):
    built = []
    real = experiments.build_box_grid

    def counting(d, n, **kw):
        built.append((d, kw.get("periodic", False)))
        return real(d, n, **kw)

    monkeypatch.setattr(experiments, "build_box_grid", counting)
    report = run_scenario(ScenarioConfig.from_mapping({"scenario": "morse", **mapping}))
    assert not report.failures
    return built, report


def test_morse_classifies_the_solid_torus_on_the_scene_grid(monkeypatch):
    built, report = _morse_grids(monkeypatch, {"n": 20})
    assert built == [(2, True), (3, False)]  # the 2d torus and the scene, nothing more
    # the counts the run printed when it built a second 3d grid for the solid torus
    assert report.tables["solid_torus"]["rows"] == [[0, 14], [1, 14], [2, 0], [3, 0]]
    assert report.tables["eigenfunction"]["rows"] == [[0.001, i, 0] for i in range(4)]
    # a warp changes only the cell metric, which the classifier does not read
    built, warped = _morse_grids(monkeypatch, {"n": 20, "warp": "linear:0.5"})
    assert built == [(2, True), (3, False)]
    assert warped.tables["solid_torus"] == report.tables["solid_torus"]


def test_morse_scene_that_is_not_the_3d_grid_builds_its_own(monkeypatch, tmp_path):
    from dumbbell.mesh import build_box_grid, save_mesh

    built, _ = _morse_grids(monkeypatch, {"n": 8, "d": 2})
    assert built == [(2, True), (2, False), (3, False)]
    save_mesh(build_box_grid(3, 4), tmp_path / "box.mesh")
    built, report = _morse_grids(monkeypatch, {"n": 20, "mesh_path": str(tmp_path / "box.mesh")})
    assert built == [(2, True), (3, False)]  # the scene is read, the solid torus gets an n-grid
    assert report.tables["solid_torus"]["rows"] == [[0, 14], [1, 14], [2, 0], [3, 0]]


def test_warped_oracle_compare_reads_the_scene_warp():
    # the flat oracle read this scene 0.330 off at eps = 0.1
    report = run_scenario(ScenarioConfig.from_mapping(
        {"scenario": "oracle-compare", "warp": "linear:1.0", "epsilons": (0.1, 0.01), "oracle_resolution": 256}
    ))
    assert report.all_passed(), report.to_dict()["verdicts"]


@pytest.mark.parametrize("scenario, scene", [
    pytest.param(scenario, scene, id=scene if scenario == "harmonic-approx" else f"{scenario}-{scene}")
    for scenario in ("harmonic-approx", "scaling", "oracle-compare") for scene in ("sigma", "mesh_path")
])
def test_harmonic_approx_needs_the_plane_box_scene(tmp_path, scenario, scene):
    # each compares against a plane reduction: the 1d oracle or the 1d closed form
    from dumbbell.mesh import build_box_grid, save_mesh

    save_mesh(build_box_grid(3, 4), tmp_path / "box.mesh")
    value = {"sigma": "sphere:0.5,0.5,0.5,0.35", "mesh_path": str(tmp_path / "box.mesh")}[scene]
    report = run_scenario(ScenarioConfig.from_mapping({"scenario": scenario, "eta": 0.1, scene: value}))
    assert report.failures == [{"stage": scenario, "error": f"ValueError: {scenario} needs "
                                "the plane scene on a box grid (sigma=plane, no mesh_path)"}]


def test_scaling_runs_on_an_off_grid_plane():
    # the collar planes sit at 0.345 and 0.595, off the 1/16 grid: the bound no longer needs them on it
    report = run_scenario(ScenarioConfig.from_mapping(
        {"scenario": "scaling", "n": 16, "sigma_offset": 0.47, "eta": 0.1}))
    assert not report.failures
    assert report.all_passed(), report.to_dict()["verdicts"]
    assert [v.name for v in report.verdicts] == [
        "eigenvalue-scaling-slope", "oracle-scaling-slope", "minmax-sandwich", "volume-preservation"]


@pytest.mark.parametrize("scene, side, two_eta", [
    ({"sigma": "sphere:0.5,0.5,0.5,0.2"}, "minus", "0.25"),  # the ball reaches 0.2 in from sigma
    ({"eta": 0.3}, "plus", "0.625"),  # eta snaps to 5/16; the box reaches 0.5 from the plane
], ids=["sphere-r0.2", "plane-eta0.3"])
def test_plateau_refuses_a_scene_with_no_far_bulk_before_any_solve(monkeypatch, scene, side, two_eta):
    def no_solve(*args, **kwargs):
        raise AssertionError("plateau solved before refusing the scene")

    monkeypatch.setattr(experiments.eigen, "solve_smallest", no_solve)
    report = run_scenario(ScenarioConfig.from_mapping({"scenario": "plateau", "n": 16, **scene}))
    assert report.failures == [{"stage": "plateau", "error": "ValueError: plateau needs a far bulk: no vertex "
                                f"on the {side} side lies 2 eta = {two_eta} or more from sigma"}]


@pytest.mark.parametrize("scene, n, eps", [
    ({"sigma_offset": 0.47, "eta": 0.1}, 16, 1e-7), ({"sigma_offset": 0.44, "eta": 0.1}, 16, 1e-7),
    ({"sigma_offset": 0.53, "eta": 0.1}, 16, 1e-7), ({}, 16, 1e-7), ({"sigma": "sphere:0.5,0.5,0.5,0.3"}, 16, 1e-7),
    ({"sigma_offset": 0.44}, 24, 1e-7), ({"sigma_offset": 0.47, "eta": 0.1}, 16, 1e-9), ({}, 16, 1e-10),
], ids=["offgrid-0.47", "offgrid-0.44", "offgrid-0.53", "plane", "sphere",
        "n24-offgrid-0.44", "offgrid-0.47-eps1e-9", "plane-eps1e-10"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solve_point_step_budget(scene, n, eps, seed):
    # 11-18 steps at seeds 0-5 on these scenes.  A V-cycle shift seeded from the
    # min-max bound took 36-304 off the grid at 1e-7; the last three cases took
    # 23-115 steps, up to 445 or no convergence while every step orthonormalized
    # its whole basis [X, W, P] together
    cfg = ScenarioConfig.from_mapping({"scenario": "scaling", "n": n, "seed": seed, **scene})
    mesh, geom = _build_scene(cfg)
    _, pair, result = _solve_point(mesh, geom, cfg, eps)
    assert result.iterations <= 30
    if eps == 1e-10:  # residuals of fresh products, not of the images a solve carries
        X, lam = result.vectors[:, 1:], result.values[1:]
        MX = pair.M @ X
        assert np.all(np.linalg.norm(pair.K @ X - MX * lam, axis=0) <= 1e-9 * lam * np.linalg.norm(MX, axis=0))
        assert result.residuals.max() <= 1e-9
        ref = eigsh(pair.K, k=2, M=pair.M, sigma=-1e-3, v0=np.ones(pair.n_dof))[0].max()
        assert abs(result.values[1] - ref) / ref <= 1e-8


@pytest.mark.parametrize("scenario, reader", [
    ("collar", "center-fiber profile"),
    ("nodal", "single-crossing check"),
], ids=["collar", "nodal"])
def test_collar_refuses_a_file_mesh_before_any_solve(tmp_path, monkeypatch, scenario, reader):
    from dumbbell.mesh import build_box_grid, save_mesh

    def no_solve(*args, **kwargs):
        raise AssertionError(f"{scenario} solved before refusing the file mesh")

    monkeypatch.setattr(experiments.eigen, "solve_smallest", no_solve)
    save_mesh(build_box_grid(3, 8), tmp_path / "box.mesh")
    report = run_scenario(ScenarioConfig.from_mapping({"scenario": scenario, "mesh_path": str(tmp_path / "box.mesh")}))
    assert report.failures == [{"stage": scenario, "error": f"ValueError: {scenario}'s {reader} "
                                "needs a box grid (no mesh_path)"}]


@pytest.mark.parametrize("scene", ["plane", "sphere", "file-3d", "file-2d"])
def test_every_scenario_fails_only_by_a_named_value_error(tmp_path, scene):
    # each scenario either runs clean on the scene or names why it refuses it;
    # configs the scene rules reject at parse time are not run
    import dumbbell
    from dumbbell.mesh import build_box_grid, save_mesh

    value_errors = {name for name, obj in vars(dumbbell).items()
                    if isinstance(obj, type) and issubclass(obj, ValueError)} | {"ValueError"}
    scenes = {"plane": {}, "sphere": {"sigma": "sphere:0.5,0.5,0.5,0.3"}}
    for d in (3, 2):
        save_mesh(build_box_grid(d, 8), tmp_path / f"box{d}.mesh")
        scenes[f"file-{d}d"] = {"mesh_path": str(tmp_path / f"box{d}.mesh"), "d": d}
    for scenario in experiments.SCENARIO_NAMES:
        mapping = {"scenario": scenario, "n": 8, "resolution": 16, "oracle_resolution": 64, **scenes[scene]}
        try:
            cfg = ScenarioConfig.from_mapping(mapping)
        except ValueError:
            continue
        for failure in run_scenario(cfg).failures:
            assert failure["error"].split(":", 1)[0] in value_errors, failure


@pytest.mark.parametrize("mapping", [
    SMALL_SCALING,
    {"scenario": "gap", "n": 8},
    {"scenario": "plateau", "n": 8},
    {"scenario": "collar", "n": 8},
    {"scenario": "harmonic-approx", "n": 8},  # no eigen solve: holds at any V-cycle
    {"scenario": "nodal", "n": 8},
    {"scenario": "mollify", "n": 8},
    {"scenario": "morse", "n": 8, "resolution": 16},
    {"scenario": "oracle-compare", "n": 8, "oracle_resolution": 64},
    {**SMALL_SCALING, "workers": 2},
], ids=lambda mapping: f"{mapping['scenario']}-w{mapping.get('workers', 1)}")
def test_scenarios_leave_no_cyclic_garbage(mapping, no_cyclic_garbage):
    # every solve's preconditioner, and the mesh it ran on, go by refcount
    cfg = ScenarioConfig.from_mapping(mapping)
    with no_cyclic_garbage():
        report = run_scenario(cfg)
    assert not report.failures
