import csv
import json

import numpy as np
import pytest

from dumbbell.experiments import (
    ScenarioConfig,
    emit_plot_data,
    main,
    run_scenario,
    write_report,
)

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


def test_worker_override_keeps_results(monkeypatch):
    a = run_scenario(ScenarioConfig.from_mapping(SMALL_SCALING)).to_dict()
    monkeypatch.setenv("DUMBBELL_WORKERS", "3")
    b = run_scenario(ScenarioConfig.from_mapping(SMALL_SCALING)).to_dict()
    del a["timings"], b["timings"]
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_failure_captured_with_stage(tmp_path):
    cfg = ScenarioConfig.from_mapping(
        {"scenario": "nodal", "kind": "file", "mesh_path": str(tmp_path / "missing.mesh")}
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
    first = lines[0].split()
    assert int(first[0]) in (3, 4)
    assert len(first) == 1 + 3 * int(first[0])


def test_emit_missing_table(scaling_report, tmp_path):
    with pytest.raises(ValueError, match="profile"):
        emit_plot_data(scaling_report.to_dict(), "profile", tmp_path)


def test_gap_scenario_from_file_mesh(tmp_path):
    from dumbbell.mesh import build_box_grid, save_mesh

    path = tmp_path / "box.mesh"
    save_mesh(build_box_grid(3, 8), path)
    cfg = ScenarioConfig.from_mapping(
        {"scenario": "gap", "kind": "file", "mesh_path": str(path), "n": 8}
    )
    report = run_scenario(cfg)
    assert not report.failures
    assert report.all_passed()


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
    # unreachable threshold forces a FAIL verdict and exit code 1
    cfg_file = tmp_path / "fail.cfg"
    cfg_file.write_text(
        "scenario = gap\nn = 8\ngap_rel_tol = 1e-9\n"
    )
    code = main(["run", str(cfg_file), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "FAIL gap-neumann-match" in capsys.readouterr().out
    # config errors exit with 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("scenario = nope\n")
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2


def test_worker_count_does_not_change_the_report(monkeypatch):
    cfg = ScenarioConfig.from_mapping(SMALL_SCALING)
    reports = []
    for workers in ("1", "2"):
        monkeypatch.setenv("DUMBBELL_WORKERS", workers)
        report = json.loads(run_scenario(cfg).to_json())
        assert not report["failures"]
        report.pop("timings")
        reports.append(json.dumps(report))
    assert reports[0] == reports[1]


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
