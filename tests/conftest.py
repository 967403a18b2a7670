import gc
from contextlib import contextmanager

import pytest

from dumbbell import assembly, eigen, harmonic, mesh, metric


@pytest.fixture(scope="session")
def box8():
    return mesh.build_box_grid(3, 8)


@pytest.fixture(scope="session")
def box16():
    return mesh.build_box_grid(3, 16)


@pytest.fixture(scope="session")
def scene16(box16):
    geom = metric.collar_geometry(box16, metric.PlaneSigma(0.5), 0.125)
    return box16, geom


@pytest.fixture(scope="session")
def scene8(box8):
    geom = metric.collar_geometry(box8, metric.PlaneSigma(0.5), 0.125)
    return box8, geom


@pytest.fixture(scope="session")
def dumbbell16(scene16):
    """Solved dumbbell at epsilon 1e-3 on the n=16 box: the workhorse scene."""
    m, geom = scene16
    fld = metric.build_conformal_field(geom, 1e-3)
    pair = assembly.assemble(m, fld)
    result = eigen.apply_sign_rule(eigen.solve_smallest(pair, 3, tol=1e-9), pair, geom)
    consts = harmonic.compute_plateaus(
        geom.vol_plus, geom.vol_minus,
        metric.kappa_zero(geom.vol_collar, geom.vol_complement, 3), 3,
    )
    return {
        "mesh": m,
        "geom": geom,
        "field": fld,
        "pair": pair,
        "result": result,
        "consts": consts,
    }


@contextmanager
def _no_cyclic_garbage():
    """Fail unless the body leaves no reference cycle behind: with the cyclic
    collector off, everything the body drops must be freed by refcounting."""
    gc.collect()
    gc.disable()
    try:
        yield
        assert gc.collect() == 0, "the body left cyclic garbage"
    finally:
        gc.enable()


@pytest.fixture
def no_cyclic_garbage():
    """The `_no_cyclic_garbage` context manager, for `with no_cyclic_garbage():`."""
    return _no_cyclic_garbage


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance verdict lines even when stdout capture is on."""
    import sys

    for name, module in sys.modules.items():
        if name.rpartition(".")[2] == "test_acceptance":
            lines = getattr(module, "RESULT_LINES", [])
            if lines:
                terminalreporter.section("acceptance criteria")
                for line in lines:
                    terminalreporter.write_line(line)
            return
