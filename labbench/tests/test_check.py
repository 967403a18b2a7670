import copy
import json
from pathlib import Path

import pytest

import run
from check import EIGEN_RTOL, check_report

REFERENCE = json.loads((Path(run.HERE) / "reference.json").read_text(encoding="utf-8"))


def report_from(entry):
    """A report dict carrying exactly the reference's outputs, all PASS."""
    tables = {}
    for tname, cols in entry["tables"].items():
        names = list(cols)
        rows = [[cols[c][r] for c in names] for r in range(len(cols[names[0]]))]
        tables[tname] = {"columns": names, "rows": rows}
    return {"scenario": entry["scenario"], "failures": [], "tables": tables,
            "verdicts": [{"name": n, "pass": True, "measured": 0.0}
                         for n in entry["verdicts"]]}


def scaling_ref():
    return REFERENCE["workloads"]["battery"][0]


def set_lambda1(report, factor):
    table = report["tables"]["sweep"]
    idx = table["columns"].index("lambda1")
    table["rows"][0][idx] *= factor


@pytest.mark.parametrize("workload", sorted(REFERENCE["workloads"]))
def test_reference_outputs_pass(workload):
    for entry in REFERENCE["workloads"][workload]:
        assert check_report(report_from(entry), entry) == ([], 0.0)


def test_lambda1_within_tolerance_passes():
    ref = scaling_ref()
    report = report_from(ref)
    set_lambda1(report, 1.0 + 0.1 * EIGEN_RTOL)
    problems, dev = check_report(report, ref)
    assert problems == [] and 0.0 < dev < EIGEN_RTOL


def test_lambda1_off_by_1e6_is_a_failed_operation():
    ref = scaling_ref()
    doctored = report_from(ref)
    set_lambda1(doctored, 1.0 + 1e-6)
    problems, dev = check_report(doctored, ref)
    assert dev == pytest.approx(1e-6, rel=1e-3)
    assert any("sweep.lambda1[0]" in p for p in problems)
    checker = run.Checker([ref])
    checker(0, report_from(ref))
    checker(0, doctored)
    assert (checker.attempted, checker.failed) == (2, 1)
    assert checker.lambda1_max_rel_dev == dev


def test_fail_verdict_is_a_failed_operation():
    ref = scaling_ref()
    doctored = report_from(ref)
    doctored["verdicts"][1]["pass"] = False
    problems, _ = check_report(doctored, ref)
    assert problems == [f"verdict {ref['verdicts'][1]} FAIL (measured 0.0)"]
    checker = run.Checker([ref])
    checker(0, doctored)
    checker(0, report_from(ref))
    assert (checker.attempted, checker.failed) == (2, 1)


def test_failure_entry_and_missing_verdict_fail():
    ref = scaling_ref()
    doctored = report_from(ref)
    doctored["failures"].append({"stage": "scaling", "error": "EigenConvergenceError: x"})
    doctored["verdicts"].pop()
    problems, _ = check_report(doctored, ref)
    assert len(problems) == 2


def test_integer_outputs_must_match_exactly():
    ref = REFERENCE["workloads"]["census"][0]
    doctored = report_from(ref)
    table = doctored["tables"]["solid_torus"]
    table["rows"][0][table["columns"].index("count")] += 1
    problems, _ = check_report(doctored, ref)
    assert problems == ["solid_torus.count[0] = 15 != 14"]


def test_constant_mode_is_held_to_the_row_scale():
    ref = scaling_ref()
    report = report_from(ref)
    table = report["tables"]["sweep"]
    idx = table["columns"].index("lambda0")
    scale = max(ref["tables"]["sweep"][c][0] for c in ("lambda0", "lambda1", "oracle_lambda1"))
    # roundoff of the size a reordered assembly sum gives, sign flip included
    table["rows"][0][idx] = -1e-12
    assert check_report(report, ref)[0] == []
    bad = copy.deepcopy(report)
    bad["tables"]["sweep"]["rows"][0][idx] = ref["tables"]["sweep"]["lambda0"][0] + 1e-7 * scale
    assert any("sweep.lambda0[0]" in p for p in check_report(bad, ref)[0])
