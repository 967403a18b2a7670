"""Acceptance gate: every scenario at its reference configuration.

One test per criterion; each prints a PASS/FAIL line with the measured
values so the suite output doubles as the verification record.  The
reference configurations are the documented defaults of the CLI scenarios
(box d=3, n=16, eta=0.125 unless a criterion pins something else).
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from dumbbell.experiments import SCENARIO_NAMES, ScenarioConfig, Verdict, run_scenario

_REPORT_CACHE = {}
RESULT_LINES = []


def _record(line):
    RESULT_LINES.append(line)
    print(line)


def scenario_report(name, **overrides):
    key = (name, tuple(sorted(overrides.items())))
    if key not in _REPORT_CACHE:
        cfg = ScenarioConfig.from_mapping({"scenario": name, **overrides})
        _REPORT_CACHE[key] = run_scenario(cfg)
    return _REPORT_CACHE[key]


def verdict(report, name):
    for v in report.verdicts:
        if v.name == name:
            return v
    raise AssertionError(f"verdict '{name}' missing from {report.scenario} report")


def check(criterion, report, names):
    assert not report.failures, f"ACCEPTANCE {criterion}: scenario failed: {report.failures}"
    picked = [verdict(report, n).to_dict() for n in names]
    ok = all(v["pass"] for v in picked)
    detail = "; ".join(
        f"{v['name']}={v['measured']} {v['comparator']} {v['threshold']}" for v in picked
    )
    _record(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"ACCEPTANCE {criterion} failed: {detail}"


def test_c01_eigenvalue_scaling():
    start = time.perf_counter()
    report = scenario_report("scaling")
    check("01 eigenvalue-scaling", report,
          ["eigenvalue-scaling-slope", "oracle-scaling-slope"])
    assert time.perf_counter() - start < 300  # runtime budget


def test_c02_minmax_sandwich():
    report = scenario_report("scaling")
    check("02 minmax-sandwich", report, ["minmax-sandwich"])


def test_c03_spectral_gap():
    report = scenario_report("gap")
    check("03 spectral-gap", report, ["gap-neumann-match", "simplicity-ratio"])


def test_c04_plateaus():
    report = scenario_report("plateau")
    check("04 plateaus", report, ["plateau-final", "plateau-monotone"])


def test_c05_collar_convergence():
    report = scenario_report("collar")
    check("05 collar-convergence", report, ["collar-final", "collar-monotone"])


def test_c06_harmonic_model():
    report = scenario_report("harmonic-approx")
    check("06 harmonic-model", report,
          ["flat-harmonic-exact", "deviation-halving", "fourier-vs-closed-form"])


def test_c07_volume_preservation():
    report = scenario_report("scaling")
    check("07 volume-preservation", report, ["volume-preservation"])


def test_c08_nodal_verdicts():
    report = scenario_report("nodal")
    check("08 nodal-verdicts", report,
          ["nodal-components", "nodal-contained", "single-crossing",
           "nodal-domains", "regular-gradient"])


def test_c09_oracle_equivalence():
    report = scenario_report("oracle-compare")
    check("09 oracle-equivalence", report, ["oracle-equivalence"])


def test_c10_mollification():
    report = scenario_report("mollify")
    check("10 mollification", report,
          ["mollify-monotone", "mollify-final-difference", "mollify-vector"])


def test_c11_morse_benchmark():
    report = scenario_report("morse")
    check("11 morse-benchmark", report, ["cosine-benchmark-counts", "betti-bound"])
    # the eigenfunction census is report-only and must have completed
    assert "eigenfunction" in report.tables
    assert report.tables["eigenfunction"]["rows"]


def test_c12_determinism():
    first = scenario_report("scaling").to_dict()
    second = run_scenario(ScenarioConfig.from_mapping({"scenario": "scaling"})).to_dict()
    for d in (first, second):
        d.pop("timings")
    same = json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    _record(f"ACCEPTANCE 12: {'PASS' if same else 'FAIL'} (byte-identical modulo timings)")
    assert same


# ---------------------------------------------------------------------------
# every PASS is its printed comparison


def _elementwise(op):
    return lambda m, t: np.shape(m) == np.shape(t) and bool(np.all(op(m, t)))


# written apart from Verdict.passed, from the report's JSON form only
_RECHECK = {
    "<=": _elementwise(np.less_equal),
    "<": _elementwise(np.less),
    "==": _elementwise(np.equal),
    ">=": _elementwise(np.greater_equal),
    "in": lambda m, t: t[0] <= m <= t[1],
    "monotone": lambda m, t: (m["glitches"] <= t["max_glitches"]
                              and m["worst_excess"] <= t["glitch_tol"]),
}


def recheck(v):
    return _RECHECK[v["comparator"]](v["measured"], v["threshold"])


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_pass_is_the_printed_comparison(name):
    data = json.loads(scenario_report(name).to_json())
    assert data["verdicts"]
    for v in data["verdicts"]:
        assert v["pass"] is recheck(v), v


@pytest.mark.parametrize("measured, comparator, threshold", [
    (0.2, "<=", 0.15),
    ([0.0, 0.3], "<=", [0.1, 0.2]),
    (0.125, "<", 0.125),
    (2, "==", 1),
    ([4, 8, 4], "==", [4, 7, 4]),
    ([4, 8], "==", [4, 8, 4]),
    (9.99, ">=", 10.0),
    ([14, 0], ">=", [1, 1]),
    (0.61, "in", [0.4, 0.6]),
    (0.39, "in", [0.4, 0.6]),
    ({"glitches": 2, "worst_excess": 0.01}, "monotone", {"max_glitches": 1, "glitch_tol": 0.05}),
    ({"glitches": 1, "worst_excess": 0.06}, "monotone", {"max_glitches": 1, "glitch_tol": 0.05}),
])
def test_synthetic_fail_per_comparator(measured, comparator, threshold):
    v = Verdict("synthetic", measured, threshold, comparator)
    assert v.passed is False
    assert v.to_dict()["pass"] is False
    assert recheck(v.to_dict()) is False


# ---------------------------------------------------------------------------
# the README gate table matches the gates


def _readme_gates():
    """README gate rows: verdict -> (scenario, comparator, fixed threshold or None)."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Gates\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 5 or not cells[0].startswith("`"):
            continue
        name, scenario, _, comparator, threshold = cells
        fixed = json.loads(threshold.strip("`")) if threshold.startswith("`") else None
        rows[name.strip("`")] = (scenario.strip("`"), comparator.strip("`"), fixed)
    return rows


def test_readme_gate_table_matches_reports():
    table = _readme_gates()
    seen = set()
    for scenario in SCENARIO_NAMES:
        for v in scenario_report(scenario).to_dict()["verdicts"]:
            assert v["name"] in table, f"{v['name']} is not in the README gate table"
            doc_scenario, comparator, fixed = table[v["name"]]
            assert (doc_scenario, comparator) == (scenario, v["comparator"]), v["name"]
            if fixed is not None:  # the others are formulas in the scene
                assert fixed == v["threshold"], v["name"]
            seen.add(v["name"])
    assert seen == set(table), f"README gates with no verdict: {set(table) - seen}"
