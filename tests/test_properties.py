"""Property tests on outside text.

Loading either raises one of the named input errors or returns a mesh whose
coordinates and metric are finite, with positive volumes and SPD metrics.
Emitting plot data from any JSON object either writes the file or raises
ValueError.
"""

import copy
import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dumbbell.experiments import ScenarioConfig, emit_plot_data
from dumbbell.mesh import MeshFormatError, MeshValidationError, load_mesh

INPUT_ERRORS = (MeshFormatError, MeshValidationError, ValueError)
BOUNDED = settings(max_examples=300, deadline=2000, derandomize=True, database=None)

_VALID_TET = "dim 3 vertices 4 0 0 0 1 0 0 0 1 0 0 0 1 cells 1 0 1 2 3 metric 1 1 0 0 1 0 1".split()
_WORDS = st.sampled_from(
    ["dim", "vertices", "cells", "metric", "#", "nan", "-inf", "1e999", "0.5", "x",
     "99999999999999999999", "-1", "0", "1", "2", "3", "4"]
)


@st.composite
def _mutated_tet(draw):
    """The valid one-cell mesh with a few tokens replaced, dropped or cut off."""
    rnd = draw(st.randoms(use_true_random=False))  # uniform positions, not shrunk to 0
    tokens = list(_VALID_TET)
    for _ in range(rnd.randint(1, 3)):
        i = rnd.randrange(len(tokens))
        action = rnd.choice(["replace"] * 6 + ["drop", "truncate"])
        if action == "replace":
            tokens[i] = draw(_WORDS)
        elif action == "drop":
            del tokens[i]
        else:
            tokens = tokens[:i]
        if not tokens:
            break
    return "".join(t + rnd.choice(" \n") for t in tokens)


_token_soup = st.lists(st.tuples(_WORDS, st.sampled_from([" ", "\n"])), max_size=40).map(
    lambda pairs: "".join(t + s for t, s in pairs)
)


@BOUNDED
@given(text=st.one_of(_mutated_tet(), _token_soup, st.text(max_size=200)))
def test_load_mesh_raises_only_input_errors(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "arbitrary.mesh"
    path.write_text(text, encoding="utf-8")
    try:
        m = load_mesh(path)
    except INPUT_ERRORS:
        return
    assert np.isfinite(m.vertices).all() and (m.signed_volumes() > 0).all()
    if m.cell_metric is not None:
        assert np.isfinite(m.cell_metric).all()
        assert (np.linalg.eigvalsh(m.cell_metric).min(axis=1) > 0).all()


_KEYS = st.sampled_from([f.name for f in dataclasses.fields(ScenarioConfig)] + ["bogus", ""])
_VALUES = st.one_of(
    st.sampled_from(["scaling", "nodal", "morse", "box", "file", "1e-3", "16", "1, 2, 3", "nan", ""]),
    st.text(max_size=20),
)
_config_lines = st.lists(
    st.tuples(_KEYS, st.sampled_from(["=", " = ", " "]), _VALUES), max_size=8
).map(lambda rows: "\n".join(k + sep + v for k, sep, v in rows))


@BOUNDED
@given(text=st.one_of(st.text(max_size=200), _config_lines))
def test_config_from_file_raises_only_input_errors(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "arbitrary.cfg"
    path.write_text(text, encoding="utf-8")
    try:
        ScenarioConfig.from_file(path)
    except INPUT_ERRORS:
        pass


_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.floats(), st.integers(), st.integers(min_value=2**1024),
    st.text(max_size=8),
    st.sampled_from(["nodal", "scaling", "epsilon", "lambda1", "rho", "u", "h", "hbar"]),
)
_JSON_KEYS = st.one_of(
    st.sampled_from(["scenario", "tables", "artifacts", "polygons", "sweep", "profile",
                     "columns", "rows"]),
    st.text(max_size=4),
)
_json_values = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_KEYS, inner, max_size=4),
    max_leaves=20,
)
_VALID_REPORT = {
    "scenario": "nodal",
    "tables": {
        "sweep": {"columns": ["epsilon", "lambda1"], "rows": [[0.1, 2.0], [0.01, 1.0]]},
        "profile": {"columns": ["rho", "u", "h", "hbar"], "rows": [[0.0, 1.0, 1.0, 1.0]]},
    },
    "artifacts": {"polygons": [[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]]},
}


def _slots(node):
    """Every (container, key) pair inside a nested JSON value."""
    for key in list(node) if isinstance(node, dict) else range(len(node)):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key])


@st.composite
def _mutated_report(draw):
    """The valid report with one to three nested values replaced by any JSON value."""
    rnd = draw(st.randoms(use_true_random=False))
    report = copy.deepcopy(_VALID_REPORT)
    for _ in range(rnd.randint(1, 3)):
        node, key = rnd.choice(list(_slots(report)))
        node[key] = draw(_JSON_LEAVES | _json_values)
    return report


@BOUNDED
@given(report=st.one_of(_mutated_report(), st.dictionaries(_JSON_KEYS, _json_values, max_size=4)),
       kind=st.sampled_from(["loglog", "profile", "surface"]))
def test_emit_plot_data_raises_only_value_error(tmp_path_factory, report, kind):
    out = tmp_path_factory.getbasetemp() / "emit"
    try:
        path = emit_plot_data(report, kind, out)
    except ValueError:
        assert not out.exists() or not any(out.iterdir())  # no partial file
        return
    Path(path).unlink()


_FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    assert True
"""


def test_a_failing_property_is_reported_not_an_internal_error(tmp_path):
    # reporting a falsifying example imports libcst, whose own DeprecationWarning must not
    # become an INTERNALERROR under the suite's filterwarnings = ["error"]
    (tmp_path / "test_probe.py").write_text(_FAILING_PROPERTY)
    ini = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run([sys.executable, "-m", "pytest", "-c", str(ini), "-q", "-p", "no:cacheprovider",
                          "test_probe.py"], cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "1 failed, 1 passed" in out and "INTERNALERROR" not in out
