import threading

import pytest

import dumbbell
from dumbbell import assembly, experiments
from dumbbell.mesh import build_box_grid
from tracer import Span, Tracer, covered_seconds, package_namespaces, wrapper_seconds


def _bindings():
    return {(ns["__name__"], key): value
            for ns in package_namespaces() for key, value in ns.items()}


def _wrappers_left():
    return [k for k, v in _bindings().items() if getattr(v, "__traced__", False)]


def test_nested_span_goes_to_the_callee_layer():
    mesh = build_box_grid(3, 4)
    tracer = Tracer()
    with tracer:
        assembly.assemble(mesh)
    by_name = {s.name: s for s in tracer.spans}
    outer = by_name["assembly.assemble"]
    inner = by_name["mesh.simplex_gradient_data"]
    assert (outer.layer, inner.layer) == ("assembly", "mesh")
    assert outer.parent is None and inner.parent == "assembly.assemble"
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert outer.self_s == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start), abs=1e-12)
    assert inner.self_s == pytest.approx(inner.end - inner.start, abs=1e-12)


def test_pool_threads_keep_their_own_stacks():
    cfg = experiments.ScenarioConfig.from_mapping(
        {"scenario": "scaling", "n": 8, "epsilons": (1e-1, 1e-2, 1e-3),
         "oracle_resolution": 64, "workers": 2})
    tracer = Tracer()
    with tracer:
        report = experiments.run_scenario(cfg)
    assert not report.failures
    main = threading.get_ident()
    solves = [s for s in tracer.spans if s.name == "eigen.solve_smallest"]
    assert len(solves) == 3
    assert all(s.thread != main and s.parent is None for s in solves)
    for span in tracer.spans:
        if span.parent is not None:
            assert any(p.name == span.parent and p.thread == span.thread
                       and p.start <= span.start and span.end <= p.end
                       for p in tracer.spans)
    # the sweep's spans in the pool do not come off the scenario's self time
    (scenario,) = [s for s in tracer.spans if s.name == "experiments.run_scenario"]
    children = [s for s in tracer.spans
                if s.thread == main and s.parent == "experiments.run_scenario"]
    assert scenario.self_s == pytest.approx(
        (scenario.end - scenario.start) - sum(s.end - s.start for s in children), abs=1e-9)
    assert covered_seconds(solves) <= sum(s.end - s.start for s in solves) + 1e-12


def test_every_binding_site_is_wrapped_then_restored():
    before = _bindings()
    with Tracer():
        assert getattr(experiments.build_box_grid, "__traced__", False)
        assert getattr(assembly.simplex_gradient_data, "__traced__", False)
        assert getattr(dumbbell.run_scenario, "__traced__", False)
    assert _wrappers_left() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_restored_when_the_run_raises():
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert _wrappers_left() == []


def test_covered_seconds_merges_overlaps():
    def span(a, b):
        return Span("x.f", "x", a, b, b - a, 0, None, {})

    assert covered_seconds([span(0, 2), span(1, 3), span(5, 6)]) == pytest.approx(4.0)


@pytest.mark.parametrize("counted", [False, True])
def test_wrapper_cost_is_measured_per_call(counted):
    cost = wrapper_seconds(counted, calls=2000, repeats=3)
    assert 0.0 < cost < 1e-3
    assert _wrappers_left() == []
