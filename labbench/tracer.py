"""Span tracer for the lab's modules, installed from outside the package.

``Tracer`` wraps every public function of each layer module and swaps the
wrapper in at every binding site: each ``dumbbell.*`` module dict (and the
package namespace) that holds the original function object gets the
wrapper, so ``from .mesh import build_box_grid`` bindings are traced too.
Leaving the ``with`` block puts every original back.

Span stacks are thread-local, so a span's parent is the innermost open span
of the thread that called it; sweep points run by a thread pool become root
spans of their worker thread.  Spans stay in memory as ``Span`` tuples.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import threading
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

PACKAGE = "dumbbell"
LAYERS = ("mesh", "metric", "assembly", "eigen", "harmonic", "nodal", "morse",
          "oracle", "experiments")


class Span(NamedTuple):
    name: str            # "<layer>.<function>"
    layer: str
    start: float
    end: float
    self_s: float        # duration minus the direct child spans of the same thread
    thread: int
    parent: Optional[str]
    counts: Dict[str, float]


# Work counter read from a traced call's arguments, given by parameter name
# with defaults applied.
CountFn = Callable[[Dict[str, object]], Dict[str, float]]


class Tracer:
    def __init__(self, counters: Optional[Dict[str, CountFn]] = None):
        self.counters = dict(counters or {})
        self.spans: List[Span] = []
        self._local = threading.local()
        self._restore: List[Tuple[dict, str, Callable]] = []

    # -- install / restore ---------------------------------------------------

    def _public_functions(self, layer: str):
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for name, obj in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                yield name, obj

    def install(self) -> "Tracer":
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            for name, fn in self._public_functions(layer):
                wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        for namespace in package_namespaces():
            for key, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((namespace, key, value))
                    namespace[key] = hit[1]
        return self

    def restore(self) -> None:
        while self._restore:
            namespace, key, original = self._restore.pop()
            namespace[key] = original

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- spans ---------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        span_name = f"{layer}.{name}"
        count = self.counters.get(span_name)
        signature = inspect.signature(fn) if count is not None else None
        local = self._local
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [span_name, 0.0]          # [name, child seconds]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                counts = {}
                if count is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counts = count(bound.arguments)
                spans.append(Span(span_name, layer, start, end, end - start - frame[1],
                                  threading.get_ident(), parent, counts))

        traced.__traced__ = True
        return traced


def _noop(a, b=None, c=None, d=0):
    return None


def _timed_calls(fn, calls: int) -> float:
    start = time.perf_counter()
    for _ in range(calls):
        fn(None, None)
    return time.perf_counter() - start


def wrapper_seconds(counted: bool, calls: int = 20000, repeats: int = 7) -> float:
    """Seconds a wrapper adds to one call: the median over ``repeats`` of a
    traced against an untraced no-op, each called ``calls`` times from
    inside an open span, with or without a work counter on its arguments."""
    tracer = Tracer({"bench.noop": lambda a: {"n": 1}} if counted else None)
    traced = tracer._wrap("bench", "noop", _noop)
    loop = tracer._wrap("bench", "loop", _timed_calls)
    costs = []
    for _ in range(repeats):
        costs.append((loop(traced, calls) - loop(_noop, calls)) / calls)
        tracer.spans.clear()
    return statistics.median(costs)


def package_namespaces() -> List[dict]:
    """The dicts of the package and of each of its imported modules."""
    return [vars(module) for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def covered_seconds(spans: List[Span]) -> float:
    """Length of the union of the spans' intervals, across all threads."""
    total = 0.0
    cur_start = cur_end = None
    for s in sorted(spans, key=lambda s: s.start):
        if cur_end is None or s.start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s.start, s.end
        else:
            cur_end = max(cur_end, s.end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
