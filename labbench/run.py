#!/usr/bin/env python3
"""The lab's benchmark: run one workload of scenarios, check, print metrics.

    python3 labbench/run.py --workload battery --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout; the lab is imported from ``src/``.  A
workload (``workloads.json``) is a list of ``ScenarioConfig`` mappings run
closed-loop through ``experiments.run_scenario``, one scenario after
another, for whole passes until the next pass would end past ``--seconds``
(at least one pass).  ``--seed`` goes only into ``ScenarioConfig.seed``,
the solver's start vector.  Every report is checked against
``reference.json`` (see ``check.py``).

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs traced and prints the per-layer metrics.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 7
MESH_BUILDERS = ("mesh.build_box_grid", "mesh.periodic_unit_grid_2d", "mesh.load_mesh")

# Work counts taken at the layer boundary from the call's arguments.
COUNTERS = {
    "assembly.assemble": lambda a: {
        "cells": a["mesh"].num_cells if a["cell_mask"] is None
        else int(a["cell_mask"].sum())},
    "eigen.solve_smallest": lambda a: {"dofs": a["pair"].n_dof},
    # grid cells of the dense pencils: N, plus 2N with Richardson refinement
    "oracle.sturm_liouville_neumann": lambda a: {
        "nodes": a["profile"].resolution * (3 if a["refine"] else 1)},
    "morse.classify_critical_points": lambda a: {"vertices": a["mesh"].num_vertices},
}


def load_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def pin_environment() -> None:
    """One BLAS thread, workers only from the config, the lab from ``src/``.

    Must run before numpy is imported in this process.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("DUMBBELL_WORKERS", None)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": 1,
    }


def measure_setup() -> float:
    """Median seconds from process start to ``probe.py`` printing ready."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "probe.py")],
                              stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                ready = time.perf_counter()
                proc.stdout.read()
                code = proc.wait(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        times.append(ready - start)
    return statistics.median(times)


def workload_configs(experiments, spec: dict, seed: int) -> list:
    return [experiments.ScenarioConfig.from_mapping({**m, "seed": seed})
            for m in spec["scenarios"]]


def closed_loop(experiments, configs, budget: float, check):
    """Whole passes until the next one would end past ``budget`` seconds.

    A pass's time is the sum of its ``run_scenario`` calls.  Between calls,
    untimed, ``check(op_index, report)`` judges the report, which is then
    dropped, and garbage is collected, so each scenario starts from the heap
    a fresh ``dumbbell run`` would have.  Also returns the process's peak
    RSS in MB after the first pass: the heap still fragments a little over
    later passes, and their number depends on the machine's speed.
    """
    pass_times = []
    start = time.perf_counter()
    while True:
        seconds = 0.0
        for i, cfg in enumerate(configs):
            t0 = time.perf_counter()
            report = experiments.run_scenario(cfg)
            seconds += time.perf_counter() - t0
            check(i, report.to_dict())
            del report
            gc.collect()
        pass_times.append(seconds)
        if len(pass_times) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if time.perf_counter() - start + statistics.median(pass_times) > budget:
            return pass_times, peak_rss_mb


class Checker:
    """Counts operations, failed operations and the worst ``lambda1``
    deviation; ``refs[i]`` is the reference of the workload's i-th config."""

    def __init__(self, refs):
        self.refs = refs
        self.attempted = self.failed = 0
        self.lambda1_max_rel_dev = 0.0

    def __call__(self, i: int, report: dict) -> None:
        from check import check_report

        problems, dev = check_report(report, self.refs[i])
        self.attempted += 1
        self.lambda1_max_rel_dev = max(self.lambda1_max_rel_dev, dev)
        if problems:
            self.failed += 1
            print(f"FAILED op {self.attempted} ({report['scenario']}): " + "; ".join(problems),
                  file=sys.stderr)


def layer_metrics(spans, passes: int, wall: float, workers: int) -> dict:
    """Per-layer metrics per pass from the spans of ``passes`` traced passes."""
    from tracer import LAYERS, covered_seconds

    per = 1.0 / passes
    inner = [s for s in spans if s.layer != "experiments"]
    self_s = {layer: sum(s.self_s for s in spans if s.layer == layer) for layer in LAYERS}

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    def seconds(name):
        return sum(s.end - s.start for s in spans if s.name == name)

    def count(name, key):
        return sum(s.counts[key] for s in spans if s.name == name)

    meshes = sum(calls(b) for b in MESH_BUILDERS)
    experiments_self = wall - covered_seconds(inner)
    layer_self = sum(s.self_s for s in inner)
    scenario_self = sum(s.self_s for s in spans if s.name == "experiments.run_scenario")
    print(f"closure per pass: layer self {layer_self * per:.4f} s + experiments self "
          f"{experiments_self * per:.4f} s = {(layer_self + experiments_self) * per:.4f} s; "
          f"traced wall {wall * per:.4f} s; run_scenario span self "
          f"{scenario_self * per:.4f} s", file=sys.stderr)
    return {
        "mesh.self_s": self_s["mesh"] * per,
        "mesh.build_box_grid.s": seconds("mesh.build_box_grid") * per,
        "mesh.validate_mesh.s": seconds("mesh.validate_mesh") * per,
        "mesh.gradient_calls_per_mesh":
            calls("mesh.simplex_gradient_data") / meshes if meshes else 0.0,
        "assembly.self_s": self_s["assembly"] * per,
        "assembly.assemble.calls": calls("assembly.assemble") * per,
        "assembly.cells": count("assembly.assemble", "cells") * per,
        "eigen.self_s": self_s["eigen"] * per,
        "eigen.solve_smallest.s": seconds("eigen.solve_smallest") * per,
        "eigen.solves": calls("eigen.solve_smallest") * per,
        "eigen.dofs": count("eigen.solve_smallest", "dofs") * per,
        "oracle.self_s": self_s["oracle"] * per,
        "oracle.solves": calls("oracle.sturm_liouville_neumann") * per,
        "oracle.nodes": count("oracle.sturm_liouville_neumann", "nodes") * per,
        "morse.self_s": self_s["morse"] * per,
        "morse.vertices": count("morse.classify_critical_points", "vertices") * per,
        "metric.self_s": self_s["metric"] * per,
        "harmonic.self_s": self_s["harmonic"] * per,
        "harmonic.solve_harmonic.calls": calls("harmonic.solve_harmonic") * per,
        "nodal.self_s": self_s["nodal"] * per,
        "nodal.extract_nodal_set.s": seconds("nodal.extract_nodal_set") * per,
        "experiments.self_s": experiments_self * per,
        "experiments.busy_ratio": layer_self / (workers * wall),
    }


def main(argv=None) -> int:
    workloads = load_json(HERE / "workloads.json")
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dumbbell" / "__init__.py").is_file():
        print(f"labbench: no lab sources at {SRC}", file=sys.stderr)
        return 2
    bench = load_json(ROOT / "BENCHMARK.json")
    refs = load_json(HERE / "reference.json")["workloads"][args.workload]

    pin_environment()
    setup_s = measure_setup()
    import dumbbell
    from dumbbell import experiments
    from probe import warm_up

    if Path(dumbbell.__file__).resolve().parent != (SRC / "dumbbell").resolve():
        print(f"labbench: imported {dumbbell.__file__}, not the checkout's lab", file=sys.stderr)
        return 2
    print(f"environment: {json.dumps(environment())}", file=sys.stderr)
    warm_up(experiments)

    spec = workloads[args.workload]
    configs = workload_configs(experiments, spec, args.seed)
    checker = Checker(refs)
    if args.trace:
        from tracer import Tracer, wrapper_seconds

        tracer = Tracer(COUNTERS)
        with tracer:
            times, _ = closed_loop(experiments, configs, args.seconds, checker)
        values = layer_metrics(tracer.spans, len(times), sum(times),
                               max(c.workers for c in configs))
        values["eigen.lambda1_max_rel_dev"] = checker.lambda1_max_rel_dev
        counted = sum(1 for s in tracer.spans if s.name in COUNTERS)
        cost = (counted * wrapper_seconds(True)
                + (len(tracer.spans) - counted) * wrapper_seconds(False)) / len(times)
        values["trace.overhead"] = cost / (statistics.median(times) - cost)
        declared = bench["per_layer"]
    else:
        times, peak_rss_mb = closed_loop(experiments, configs, args.seconds, checker)
        values = {"wall_s": statistics.median(times), "setup_s": setup_s,
                  "peak_rss_mb": peak_rss_mb}
        declared = bench["end_to_end"]
    print(f"passes: {len(times)}, pass seconds: {[round(t, 3) for t in times]}", file=sys.stderr)

    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        raise RuntimeError(f"metrics {sorted(values)} != BENCHMARK.json {sorted(names)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
