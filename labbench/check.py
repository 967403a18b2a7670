"""Correctness check of scenario reports against recorded reference outputs.

An operation (one scenario run) passes when its report has no failure
entry, every verdict is PASS, the verdict names match the reference, every
eigenvalue column is within ``EIGEN_RTOL`` relative of the reference and
every integer column matches exactly.
"""

from __future__ import annotations

from typing import List, Tuple

# The eigensolver contract's tolerance (shift-invert today, any later backend).
EIGEN_RTOL = 1e-8
ZERO_FLOOR = 1e-6
# Morse counts, nodal components and nodal domains.
INT_COLUMNS = frozenset({"minima", "saddles", "maxima", "euler_sum", "count",
                         "components", "domains"})


def is_eigen_column(name: str) -> bool:
    return name.startswith("lambda") or name.startswith("mu_") or name.endswith("lambda1")


def reference_entry(report: dict) -> dict:
    """The parts of a report dict that the check compares."""
    tables = {}
    for tname, table in report["tables"].items():
        for col_idx, col in enumerate(table["columns"]):
            if is_eigen_column(col) or col in INT_COLUMNS:
                tables.setdefault(tname, {})[col] = [row[col_idx] for row in table["rows"]]
    return {
        "scenario": report["scenario"],
        "verdicts": [v["name"] for v in report["verdicts"]],
        "tables": tables,
    }


def check_report(report: dict, ref: dict) -> Tuple[List[str], float]:
    """Problems found in ``report``, and the largest relative deviation of a
    ``lambda1*`` column from the reference (0.0 when there is none).

    A reference value below ``ZERO_FLOOR`` times the row's largest
    eigenvalue, i.e. the constant mode's ``lambda0`` (zero up to roundoff),
    is held to ``EIGEN_RTOL`` times that eigenvalue instead of to itself.
    """
    problems = [f"failure in {f.get('stage')}: {f.get('error')}" for f in report["failures"]]
    if report["scenario"] != ref["scenario"]:
        problems.append(f"scenario {report['scenario']} != reference {ref['scenario']}")
        return problems, float("inf")
    problems += [f"verdict {v['name']} FAIL (measured {v['measured']})"
                 for v in report["verdicts"] if not v["pass"]]
    names = [v["name"] for v in report["verdicts"]]
    if names != ref["verdicts"]:
        problems.append(f"verdicts {names} != reference {ref['verdicts']}")

    worst_lambda1 = 0.0
    for tname, ref_cols in ref["tables"].items():
        table = report["tables"].get(tname)
        if table is None:
            problems.append(f"table {tname} missing")
            continue
        rows = table["rows"]
        eig_cols = [c for c in ref_cols if is_eigen_column(c)]
        for col, ref_vals in ref_cols.items():
            if col not in table["columns"]:
                problems.append(f"column {tname}.{col} missing")
                continue
            if len(rows) != len(ref_vals):
                problems.append(f"table {tname}: {len(rows)} rows != reference {len(ref_vals)}")
                break
            idx = table["columns"].index(col)
            for r, (row, want) in enumerate(zip(rows, ref_vals)):
                got = row[idx]
                if col in INT_COLUMNS:
                    if got != want:
                        problems.append(f"{tname}.{col}[{r}] = {got} != {want}")
                    continue
                scale = max(abs(ref_cols[c][r]) for c in eig_cols)
                near_zero = abs(want) < ZERO_FLOOR * scale
                dev = abs(got - want) / (scale if near_zero else abs(want))
                if col.startswith("lambda1"):
                    worst_lambda1 = max(worst_lambda1, dev)
                if not dev <= EIGEN_RTOL:
                    problems.append(f"{tname}.{col}[{r}] = {got!r} vs {want!r}: "
                                    f"relative deviation {dev:.3g} > {EIGEN_RTOL:g}")
    return problems, worst_lambda1
