"""Outside-in tracing: class-level wrappers around each layer's public
functions, feeding an exclusive self-time ledger.

Every wrapped call charges the time since the previous boundary to the
innermost active layer, so the layers' self times partition the root
spans (one per ``repro.api.execute`` call) exactly.  Per-object
boundaries (allocation, store, frame pop, ...) are only aggregated;
coarse boundaries — execute, per-request invoke, ``collect`` and codegen
— are also kept as spans sharing a run id and written out at the end.

The wrappers are installed on the classes (and on the modules the
interpreter imports codegen entry points from) *before* a run builds its
``Runtime``: ``Runtime``, ``Mutator`` and compiled-tier bindings cache
bound methods at construction, so a later wrapper would miss calls.
The compiled tier's inlined heap fast paths (the ``on_access`` checks
and the field writes around ``_store_ref_tail``) run inside generated
code and stay charged to ``jvm.interpreter``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Tuple


def wrap_points(workload_classes) -> List[Tuple[str, object, str, bool]]:
    """``(layer, owner, attribute, coarse)`` for every wrapped function.

    ``owner`` is a class or module; ``coarse`` boundaries are recorded as
    individual spans as well as in the ledger.
    """
    from repro import api
    from repro.core.collector import ContaminatedCollector
    from repro.core.equilive import EquiliveManager
    from repro.gc.marksweep import MarkSweepCollector
    from repro.jvm import closurecode, compiledcode
    from repro.jvm.heap import Heap
    from repro.jvm.runtime import Runtime

    points = [("api", api, "execute", True)]
    owners = []
    for cls in workload_classes:
        owner = next(c for c in cls.__mro__ if "execute" in c.__dict__)
        if owner not in owners:
            owners.append(owner)
    points += [("workloads", owner, "execute", True) for owner in owners]
    points += [("jvm.interpreter", Runtime, name, True)
               for name in ("run", "invoke")]
    points += [("jvm.codegen", closurecode, "compile_method", True),
               ("jvm.codegen", compiledcode, "compile_method_py", True),
               ("jvm.codegen", compiledcode, "cached_method_py", True)]
    points += [("jvm.runtime", Runtime, name, False)
               for name in ("allocate", "store_field", "store_element",
                            "store_static", "return_reference", "pop_frame")]
    points += [("jvm.heap", Heap, name, False)
               for name in ("allocate", "free", "retire")]
    points += [("core.collector", ContaminatedCollector, name, False)
               for name in ("on_alloc", "on_store", "on_putstatic",
                            "on_areturn", "on_frame_pop")]
    points += [("core.equilive", EquiliveManager, name, False)
               for name in ("merge", "move_to_frame", "detach")]
    points += [("gc.marksweep", MarkSweepCollector, "collect", True)]
    return points


class Ledger:
    """Exclusive self time and call counts per layer, plus coarse spans."""

    def __init__(self) -> None:
        #: Layer names; slot 0 collects time outside every root span.
        self.layers: List[str] = ["(outside)"]
        self._seconds: List[float] = [0.0]
        self._calls: List[int] = [0]
        #: ``[time of the last boundary, slot of the innermost layer]``.
        self._state = [perf_counter(), 0]
        #: Cache-served codegen: ``cached_method_py`` calls that returned
        #: a method (the generated-code cache hit).
        self.cached_adoptions = 0
        #: ``(span id, parent id, run id, name, start, end)``.
        self.spans: List[Tuple[int, int, int, str, float, float]] = []
        self._span_stack: List[int] = []
        self._next_span = [1]
        self._run = [0]

    @property
    def self_s(self) -> Dict[str, float]:
        return dict(zip(self.layers[1:], self._seconds[1:]))

    @property
    def calls(self) -> Dict[str, int]:
        return dict(zip(self.layers[1:], self._calls[1:]))

    def _slot(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
            self._seconds.append(0.0)
            self._calls.append(0)
        return self.layers.index(layer)

    def wrap(self, layer: str, fn: Callable, name: str,
             coarse: bool) -> Callable:
        """Return ``fn`` wrapped as a boundary of ``layer``.

        On entry the time since the previous boundary goes to the
        enclosing layer; on exit the time since the previous boundary
        goes to ``layer``.  The enclosing slot is kept in a local, so the
        layer stack is the Python call stack itself.
        """
        clock = perf_counter
        idx = self._slot(layer)
        seconds = self._seconds
        calls = self._calls
        state = self._state

        if not coarse:
            def fine(*args, **kwargs):
                now = clock()
                outer = state[1]
                seconds[outer] += now - state[0]
                state[0] = now
                state[1] = idx
                try:
                    return fn(*args, **kwargs)
                finally:
                    now = clock()
                    seconds[idx] += now - state[0]
                    state[0] = now
                    state[1] = outer
                    calls[idx] += 1

            return fine

        spans = self.spans
        span_stack = self._span_stack
        next_span = self._next_span
        run_cell = self._run
        cached_probe = name == "cached_method_py"

        def span(*args, **kwargs):
            now = clock()
            outer = state[1]
            seconds[outer] += now - state[0]
            state[0] = now
            state[1] = idx
            span_id = next_span[0]
            next_span[0] += 1
            if span_stack:
                parent, run = span_stack[-1], run_cell[0]
            else:
                parent = 0
                run = run_cell[0] = span_id
            span_stack.append(span_id)
            started = now
            try:
                result = fn(*args, **kwargs)
                if cached_probe and result is not None:
                    self.cached_adoptions += 1
                return result
            finally:
                now = clock()
                seconds[idx] += now - state[0]
                state[0] = now
                state[1] = outer
                calls[idx] += 1
                span_stack.pop()
                label = (args[1] if name == "invoke" and len(args) > 1
                         else name)
                spans.append((span_id, parent, run, f"{layer}:{label}",
                              started, now))

        return span

    def root_seconds(self) -> float:
        """Summed duration of the root (``api``) spans."""
        return sum(end - start for _, parent, _, _, start, end in self.spans
                   if parent == 0)

    def write_spans(self, path: str, labels: Dict) -> None:
        """One JSON object per span.  ``request`` is the enclosing
        request-handler span (the span itself for a request), or null."""
        parents = {span[0]: span[1] for span in self.spans}
        requests = {span[0] for span in self.spans
                    if span[3] == f"jvm.interpreter:{REQUEST_METHOD}"}
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, run, name, start, end in self.spans:
                request = span_id
                while request and request not in requests:
                    request = parents.get(request, 0)
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "run": run,
                    "request": request or None, "name": name,
                    "start": start, "end": end, **labels,
                }) + "\n")


@contextmanager
def installed(ledger: Ledger, workload_classes) -> Iterator[Ledger]:
    """Wrap every boundary for the duration of the block."""
    originals = []
    try:
        for layer, owner, attr, coarse in wrap_points(workload_classes):
            original = owner.__dict__[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, ledger.wrap(layer, original, attr, coarse))
        yield ledger
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


#: The server workload's per-request handler.
REQUEST_METHOD = "Srv.handle"


@contextmanager
def request_timer(samples) -> Iterator:
    """Append the wall time of every ``Runtime.invoke`` of the request
    handler to ``samples``."""
    from repro.jvm.runtime import Runtime

    original = Runtime.__dict__["invoke"]
    clock = perf_counter

    def invoke(self, qualified, args, thread=None):
        if qualified != REQUEST_METHOD:
            return original(self, qualified, args, thread)
        started = clock()
        result = original(self, qualified, args, thread)
        samples.append(clock() - started)
        return result

    Runtime.invoke = invoke
    try:
        yield samples
    finally:
        Runtime.invoke = original

