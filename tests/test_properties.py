"""Property tests on outside text.

Loading either raises one of the named input errors or returns a mesh whose
coordinates and metric are finite, with positive volumes and SPD metrics.
"""

import dataclasses

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dumbbell.experiments import ScenarioConfig  # noqa: E402
from dumbbell.mesh import MeshFormatError, MeshValidationError, load_mesh  # noqa: E402

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
        assert np.isfinite(m.cell_metric).all() and (np.linalg.det(m.cell_metric) > 0).all()


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
