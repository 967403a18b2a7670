#!/usr/bin/env python3
"""Record ``reference.json``: each workload's checked outputs at seed 0.

    python3 labbench/record.py

Run from the root of a checkout at the commit the references should
describe.  Refuses to record a report with a failure or a FAIL verdict.
"""

import json
import sys

import run
from check import reference_entry

SEED = 0


def main() -> int:
    run.pin_environment()
    from dumbbell import experiments

    workloads = run.load_json(run.HERE / "workloads.json")
    out = {"environment": run.environment(), "seed": SEED, "workloads": {}}
    for name, spec in workloads.items():
        entries = []
        for cfg in run.workload_configs(experiments, spec, SEED):
            report = experiments.run_scenario(cfg)
            if not report.all_passed():
                print(f"{name}/{cfg.scenario}: not all verdicts pass, not recorded",
                      file=sys.stderr)
                return 1
            entries.append(reference_entry(report.to_dict()))
        out["workloads"][name] = entries
        print(f"recorded {name}", file=sys.stderr)
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
