"""Per-layer spans recorded from outside the program.

The traced run replaces the public calls of each layer (the table in
:data:`LAYERS`) with thin wrappers that record one span per call: name,
start, end, the span that caused it and, for coroutines, the asyncio task
that ran it.  Spans stay in memory and are written out when the run ends.
The program's own telemetry stays off, so the artifacts it produces are the
same bytes as in an untraced run.

A layer's self time is its span's duration minus the durations of its
direct child spans (children of one synchronous call never overlap).
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import inspect
import itertools
import json
import sys
import time
from bisect import bisect_right
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Wrapped layers: span name -> public callables it times, as
#: ``(module, owner, attribute)``.  ``owner`` is a class name, the name of a
#: module-level instance, or ``None`` for a module-level function (which is
#: then rebound in every ``repro`` module that imported it by name).
LAYERS: Dict[str, Tuple[Tuple[str, Optional[str], str], ...]] = {
    "thermal.factorize": (("repro.thermal.factorization", "shared_cache", "factorize"),),
    "thermal.mesh_build": (("repro.thermal.mesh", "MeshBuilder", "build"),),
    "thermal.assemble": (
        ("repro.thermal.assembly", None, "assemble_operator"),
        ("repro.thermal.assembly", None, "boundary_rhs"),
    ),
    "thermal.sources": (("repro.thermal.sources", None, "power_density_field"),),
    "thermal.steady_solve": (("repro.thermal.solver", "SteadyStateSolver", "solve_many"),),
    "thermal.zoom": (("repro.thermal.zoom", "ZoomSolver", "solve"),),
    "thermal.transient": (("repro.thermal.transient", "TransientSolver", "solve"),),
    "devices.vcsel_operating_points": (("repro.devices.vcsel", "VcselModel", "operating_points"),),
    "oni.device_temperatures": (
        ("repro.oni.interface", "OpticalNetworkInterface", "device_temperatures_c"),
    ),
    "snr.analyze_many": (("repro.snr.analysis", "SnrAnalyzer", "analyze_many"),),
    "scenarios.spec_to_dict": (("repro.scenarios.spec", "ScenarioSpec", "to_dict"),),
    "scenarios.spec_from_dict": (("repro.scenarios.spec", "ScenarioSpec", "from_dict"),),
    "scenarios.content_hash": (("repro.scenarios.spec", "ScenarioSpec", "content_hash"),),
    "campaigns.kernel_run": (("repro.campaigns.kernel", "EvaluationKernel", "run"),),
    "campaigns.store_load": (("repro.campaigns.store", "ArtifactStore", "load"),),
    "campaigns.store_store": (("repro.campaigns.store", "ArtifactStore", "store"),),
    "campaigns.runner_self": (("repro.campaigns.runner", "CampaignRunner", "run"),),
    "campaigns.service_evaluate": (("repro.campaigns.service", "EvaluationService", "evaluate"),),
}


class Span:
    """One timed call (times in ``perf_counter_ns``)."""

    __slots__ = ("id", "parent", "name", "start", "end", "task")

    def __init__(self, id: int, parent: Optional[int], name: str, task: Optional[int]) -> None:
        self.id = id
        self.parent = parent
        self.name = name
        self.task = task
        self.start = time.perf_counter_ns()
        self.end = self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "task": self.task,
            "start_ns": self.start,
            "end_ns": self.end,
        }


class Tracer:
    """Installs the layer wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Engine counter dicts returned by every ``EvaluationKernel.run``.
        self.engine_counters: List[Dict[str, int]] = []
        self._ids = itertools.count(1)
        self._current: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._undo: List[Callable[[], None]] = []

    # Wrapping ---------------------------------------------------------------

    def _open(self, name: str, task: Optional[int] = None) -> Span:
        span = Span(next(self._ids), self._current.get(), name, task)
        self.spans.append(span)
        return span

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                span = self._open(name, id(asyncio.current_task()))
                token = self._current.set(span.id)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._current.reset(token)
                    span.end = time.perf_counter_ns()

            return traced_async

        keep_counters = name == "campaigns.kernel_run"

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = self._open(name)
            token = self._current.set(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._current.reset(token)
                span.end = time.perf_counter_ns()
            if keep_counters:
                self.engine_counters.append(result[1])
            return result

        return traced

    def _patch(self, name: str, module_name: str, owner: Optional[str], attribute: str) -> None:
        module = sys.modules[module_name]
        if owner is None:
            original = getattr(module, attribute)
            wrapper = self._wrap(name, original)
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("repro") and (
                    getattr(other, attribute, None) is original
                ):
                    setattr(other, attribute, wrapper)
                    self._undo.append(functools.partial(setattr, other, attribute, original))
            return
        target = getattr(module, owner)
        if not isinstance(target, type):
            # A module-level instance: shadow the bound method on it.
            setattr(target, attribute, self._wrap(name, getattr(target, attribute)))
            self._undo.append(functools.partial(delattr, target, attribute))
            return
        raw = target.__dict__[attribute]
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self._wrap(name, raw.__func__))
        else:
            wrapped = self._wrap(name, raw)
        setattr(target, attribute, wrapped)
        self._undo.append(functools.partial(setattr, target, attribute, raw))

    def install(self) -> None:
        """Wrap every callable of :data:`LAYERS` (``repro`` must be imported)."""
        import repro.campaigns  # noqa: F401  (loads every wrapped module)

        for name, targets in LAYERS.items():
            for module_name, owner, attribute in targets:
                self._patch(name, module_name, owner, attribute)

    def uninstall(self) -> None:
        """Restore every wrapped callable."""
        while self._undo:
            self._undo.pop()()

    # Analysis ---------------------------------------------------------------

    def within(self, windows: List[Tuple[int, int]]) -> List[Span]:
        """Spans that start inside one of the sorted, disjoint ``windows``."""
        starts = [start for start, _ in windows]
        inside = []
        for span in self.spans:
            index = bisect_right(starts, span.start) - 1
            if index >= 0 and span.start < windows[index][1]:
                inside.append(span)
        return inside

    @staticmethod
    def layer_totals(spans: List[Span]) -> Dict[str, Tuple[int, float]]:
        """``name -> (calls, self ms)`` over ``spans``."""
        child_ns: Dict[int, int] = {}
        for span in spans:
            if span.parent is not None:
                child_ns[span.parent] = child_ns.get(span.parent, 0) + span.end - span.start
        totals = {name: (0, 0.0) for name in LAYERS}
        for span in spans:
            calls, self_ms = totals[span.name]
            own = span.end - span.start - child_ns.get(span.id, 0)
            totals[span.name] = (calls + 1, self_ms + own / 1e6)
        return totals

    @staticmethod
    def root_ms(spans: List[Span]) -> float:
        """Wall time covered by the spans no other span caused (the union of
        their intervals: root spans of two connections may overlap)."""
        covered = 0
        reach = None
        for start, end in sorted((s.start, s.end) for s in spans if s.parent is None):
            if reach is None or start > reach:
                covered += end - start
                reach = end
            elif end > reach:
                covered += end - reach
                reach = end
        return covered / 1e6

    def clear(self) -> None:
        self.spans.clear()
        self.engine_counters.clear()

    def dump(self, path: Path, header: Dict[str, Any]) -> None:
        """Write the header and every span as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {**header, "spans": [span.to_dict() for span in self.spans]}
        path.write_text(json.dumps(document) + "\n", encoding="utf-8")
