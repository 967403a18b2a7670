"""Negative controls: the nodal and gap gates fail where the theorem does not apply.

The theorem needs d >= 3 and a collapsing collar.  At epsilon = 1 the metric
is g0 itself; in d = 2 the stiffness weight f^(d/2 - 1) is 1, so a thin
collar changes only the mass and cannot pin the nodal set.  The plane sits at
sigma_offset = 0.3, away from the symmetric nodal set x = 1/2, so a gate that
passes is held by the collar and not by symmetry.
"""

import pytest

from dumbbell.experiments import ScenarioConfig, run_scenario

PLANE = {"sigma_offset": 0.3}
OUTSIDE = {
    "d3-eps1": {"d": 3, "n": 16, "epsilon": 1.0, **PLANE},
    "d2-eps1e-3": {"d": 2, "n": 32, "epsilon": 1e-3, **PLANE},
    "d2-eps1e-7": {"d": 2, "n": 32, "epsilon": 1e-7, **PLANE},
    "d2-circle": {"d": 2, "n": 32, "epsilon": 1e-7, "sigma": "sphere:0.5,0.5,0.3"},
}


def _verdicts(scenario, scene):
    report = run_scenario(ScenarioConfig.from_mapping({"scenario": scenario, **scene}))
    assert not report.failures
    return {v.name: v for v in report.verdicts}


@pytest.mark.parametrize("name", sorted(OUTSIDE))
def test_nodal_gates_fail_outside_the_theorem(name):
    v = _verdicts("nodal", OUTSIDE[name])
    contained = v["nodal-contained"]
    assert contained.measured >= 2 * contained.threshold  # 0.70, or 0.41 on the circle, against eta
    assert not v["single-crossing"].passed
    gradient = v["regular-gradient"]
    assert gradient.measured <= gradient.threshold * 2 / 3  # at most 0.6 of the floor


@pytest.mark.parametrize("name", sorted(OUTSIDE))
def test_gap_gates_fail_outside_the_theorem(name):
    v = _verdicts("gap", OUTSIDE[name])
    assert v["simplicity-ratio"].measured <= 1.1  # lambda2 stays next to lambda1, against 10
    if OUTSIDE[name]["d"] == 2:  # at epsilon = 1 lambda2 is g0's, which matches the bulk by itself
        match = v["gap-neumann-match"]
        assert match.measured >= 1.5 * match.threshold


def test_the_same_plane_passes_every_nodal_gate_inside_the_theorem():
    v = _verdicts("nodal", {**OUTSIDE["d3-eps1"], "epsilon": 1e-3})
    assert len(v) == 5 and all(g.passed for g in v.values())
