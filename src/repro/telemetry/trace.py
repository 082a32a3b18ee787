"""Span tracer: nested, contextvar-scoped timing with near-free disable.

The tracer answers "where did the time go" at the granularity the campaign
layer needs: one :func:`span` per solve batch, per analysis path, per spec,
per store operation.  Design constraints, in order:

* **disabled mode is near-free** — :func:`span` behind the module switch
  returns one shared no-op object; the cost of an instrumented call site is
  a function call plus a truthiness check, gated by the telemetry bench
  (``BENCH_telemetry.json``) to stay under 5% of the warm scenario path;
* **proper nesting, thread- and asyncio-safe** — the "current span" lives
  in a :class:`contextvars.ContextVar`, so spans nest correctly per thread
  and per asyncio task without any global stack;
* **collectable across processes** — a :class:`SpanCollector` captures the
  spans finished on its context (again contextvar-scoped, so concurrent
  kernel calls on the service's threads collect independently) and
  returns them, together with a per-process metrics registry and a
  wall-clock anchor, as a plain-data payload the campaign coordinator can
  merge onto one global timeline.

Timestamps are ``time.perf_counter_ns()`` (monotonic); every payload carries
an ``anchor`` pairing one ``perf_counter_ns`` sample with the matching
``time.time_ns()`` so records from different processes land on a common
wall-clock axis (:func:`payload_spans`).
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import os
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Mapping, Optional

from .metrics import MetricsRegistry

#: Module-level switch; flip with :func:`enable` / :func:`disable`.
_enabled = False

#: Innermost live span id of the current thread/task (None at top level).
_current_var: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "repro_telemetry_current", default=None
)

#: Active span collector of the current thread/task (None → global buffer).
_sink_var: "contextvars.ContextVar[Optional[SpanCollector]]" = (
    contextvars.ContextVar("repro_telemetry_sink", default=None)
)

#: Process-unique span ids (itertools.count.__next__ is atomic under the GIL).
_span_ids = itertools.count(1)

#: Spans finished outside any collector (bounded: oldest dropped beyond cap).
_GLOBAL_SPAN_CAP = 65536
_global_spans: Deque["SpanRecord"] = deque(maxlen=_GLOBAL_SPAN_CAP)
_global_lock = threading.Lock()

#: Process-global metrics registry (the health-endpoint registry).
_global_registry = MetricsRegistry()

#: Process start anchor: (wall ns, perf ns) sampled together.
_global_anchor = (time.time_ns(), time.perf_counter_ns())


def is_enabled() -> bool:
    """Whether the tracer records anything at all."""
    return _enabled


def enable() -> None:
    """Switch telemetry on for this process."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Switch telemetry off (spans compile to the shared no-op again)."""
    global _enabled
    _enabled = False


class enabled_scope:
    """Context manager pinning the switch to ``flag`` and restoring it."""

    def __init__(self, flag: bool = True) -> None:
        self._flag = flag
        self._previous = False

    def __enter__(self) -> "enabled_scope":
        global _enabled
        self._previous = _enabled
        _enabled = self._flag
        return self

    def __exit__(self, *exc: Any) -> bool:
        global _enabled
        _enabled = self._previous
        return False


class SpanRecord:
    """One finished span: plain data, cheap to serialise."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "start_ns",
        "duration_ns",
        "attrs",
        "pid",
        "tid",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        start_ns: int,
        duration_ns: int,
        attrs: Dict[str, Any],
        pid: int,
        tid: int,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_ns = start_ns
        self.duration_ns = duration_ns
        self.attrs = attrs
        self.pid = pid
        self.tid = tid

    @property
    def duration_s(self) -> float:
        """Span duration [s]."""
        return self.duration_ns / 1.0e9

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict view (payload serialisation)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "attrs": self.attrs,
            "pid": self.pid,
            "tid": self.tid,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SpanRecord":
        """Rebuild a record from its plain-dict form."""
        return cls(
            name=str(data["name"]),
            span_id=int(data["span_id"]),
            parent_id=(
                None if data.get("parent_id") is None else int(data["parent_id"])
            ),
            start_ns=int(data["start_ns"]),
            duration_ns=int(data["duration_ns"]),
            attrs=dict(data.get("attrs", {})),
            pid=int(data.get("pid", 0)),
            tid=int(data.get("tid", 0)),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpanRecord({self.name!r}, {self.duration_s * 1e3:.3f} ms, "
            f"attrs={self.attrs})"
        )


class _NoopSpan:
    """The shared do-nothing span handed out while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self


_NOOP = _NoopSpan()


class _LiveSpan:
    """A recording span (context manager)."""

    __slots__ = ("name", "attrs", "span_id", "_parent_id", "_start_ns", "_token")

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.span_id = next(_span_ids)
        self._parent_id: Optional[int] = None
        self._start_ns = 0
        self._token: Optional[contextvars.Token] = None

    def set(self, **attrs: Any) -> "_LiveSpan":
        """Attach attributes mid-span (e.g. the solver path actually taken)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_LiveSpan":
        self._parent_id = _current_var.get()
        self._token = _current_var.set(self.span_id)
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc: Any) -> bool:
        duration_ns = time.perf_counter_ns() - self._start_ns
        if self._token is not None:
            _current_var.reset(self._token)
        record = SpanRecord(
            name=self.name,
            span_id=self.span_id,
            parent_id=self._parent_id,
            start_ns=self._start_ns,
            duration_ns=duration_ns,
            attrs=self.attrs,
            pid=os.getpid(),
            tid=threading.get_ident(),
        )
        sink = _sink_var.get()
        if sink is not None:
            sink.add(record)
        else:
            with _global_lock:
                _global_spans.append(record)
            _global_registry.observe(f"span.{self.name}", record.duration_s)
        return False


def span(name: str, **attrs: Any) -> Any:
    """A timing span context manager (the shared no-op while disabled).

    Usage::

        with telemetry.span("thermal.solve", mesh=hash8) as sp:
            ...
            sp.set(batch_size=4)
    """
    if not _enabled:
        return _NOOP
    return _LiveSpan(name, attrs)


def traced(name: str, **attrs: Any) -> Callable:
    """Decorator form of :func:`span` (late-binding: checks the switch per call)."""

    def decorate(func: Callable) -> Callable:
        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not _enabled:
                return func(*args, **kwargs)
            with span(name, **attrs):
                return func(*args, **kwargs)

        return wrapper

    return decorate


# Metric shortcuts — routed to the active collector's registry when one is
# collecting on this context, the process-global registry otherwise.  All are
# no-ops while telemetry is disabled, so hot paths stay unaffected.


def _active_registry() -> MetricsRegistry:
    sink = _sink_var.get()
    return _global_registry if sink is None else sink.registry


def count(name: str, delta: int = 1) -> None:
    """Bump counter ``name`` (no-op while disabled)."""
    if _enabled:
        _active_registry().inc(name, delta)


def observe(name: str, value_s: float) -> None:
    """Record a latency sample into histogram ``name`` (no-op while disabled)."""
    if _enabled:
        _active_registry().observe(name, value_s)


def gauge(name: str, value: float) -> None:
    """Record the current level of gauge ``name`` (no-op while disabled)."""
    if _enabled:
        _active_registry().set_gauge(name, value)


class SpanCollector:
    """Captures the spans and metrics of one unit of work (e.g. one spec).

    Entering the collector routes every span finished on this context — and
    every :func:`count`/:func:`observe`/:func:`gauge` call — into the
    collector instead of the process-global buffers; contextvar scoping
    keeps concurrent collectors (service kernel threads) independent.
    :meth:`to_payload` returns the capture together with a wall-clock
    anchor so a coordinator can merge payloads from many processes onto one
    timeline.
    """

    def __init__(self) -> None:
        self.spans: List[SpanRecord] = []
        self.registry = MetricsRegistry()
        self.anchor_wall_ns = time.time_ns()
        self.anchor_perf_ns = time.perf_counter_ns()
        self._lock = threading.Lock()
        self._token: Optional[contextvars.Token] = None

    def add(self, record: SpanRecord) -> None:
        """Deliver one finished span (called by the tracer)."""
        with self._lock:
            self.spans.append(record)
        self.registry.observe(f"span.{record.name}", record.duration_s)

    def __enter__(self) -> "SpanCollector":
        self._token = _sink_var.set(self)
        return self

    def __exit__(self, *exc: Any) -> bool:
        if self._token is not None:
            _sink_var.reset(self._token)
            self._token = None
        return False

    def to_payload(self) -> Dict[str, Any]:
        """Plain-JSON document of the capture (spans, metrics, anchor)."""
        return {
            "anchor": {
                "wall_ns": self.anchor_wall_ns,
                "perf_ns": self.anchor_perf_ns,
            },
            "pid": os.getpid(),
            "spans": [record.to_dict() for record in self.spans],
            "metrics": self.registry.to_dict(),
        }


def collect() -> SpanCollector:
    """A fresh :class:`SpanCollector` (context manager)."""
    return SpanCollector()


def payload_spans(payload: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Wall-clock-normalised span dicts of one payload document.

    Each span gains ``ts_us``/``dur_us`` (microseconds on the wall-clock
    axis, via the payload's anchor) — the common timeline the Chrome trace
    export and the profile tree are built on.
    """
    anchor = payload.get("anchor", {})
    wall_ns = int(anchor.get("wall_ns", 0))
    perf_ns = int(anchor.get("perf_ns", 0))
    normalised = []
    for data in payload.get("spans", []):
        record = dict(data)
        start_ns = int(record["start_ns"])
        record["ts_us"] = (wall_ns + (start_ns - perf_ns)) / 1.0e3
        record["dur_us"] = int(record["duration_ns"]) / 1.0e3
        normalised.append(record)
    return normalised


def absorb_payload(payload: Mapping[str, Any]) -> None:
    """Fold one serialised :class:`SpanCollector` payload into the
    process-global buffers (spans into the bounded buffer, metrics merged
    commutatively into the global registry).

    The evaluation service runs every kernel call under its own collector
    (the capture ships back with the :class:`~repro.campaigns.executors.
    ExecutionResult`); absorbing the payload makes the live
    :func:`snapshot` — the ``/stats`` endpoint — reflect per-spec spans and
    solver metrics, not just the coordinator's own store/service counters.
    """
    records = [SpanRecord.from_dict(data) for data in payload.get("spans", [])]
    with _global_lock:
        _global_spans.extend(records)
    _global_registry.merge(payload.get("metrics", {}))


def global_registry() -> MetricsRegistry:
    """The process-global metrics registry (health endpoint substrate)."""
    return _global_registry


def global_spans() -> List[SpanRecord]:
    """Spans finished outside any collector (bounded, oldest first)."""
    with _global_lock:
        return list(_global_spans)


def reset() -> None:
    """Drop every process-global span and metric (tests, process recycling)."""
    with _global_lock:
        _global_spans.clear()
    _global_registry.clear()


def snapshot() -> Dict[str, Any]:
    """Health-endpoint payload: switch state, uptime, metrics, span stats.

    This is the document the ``repro serve`` ``/stats`` endpoint returns:
    everything the process-global registry and span buffer know, aggregated
    and JSON-ready, in deterministic (sorted) order.
    """
    wall_ns, perf_ns = _global_anchor
    aggregates: Dict[str, Dict[str, Any]] = {}
    for record in global_spans():
        entry = aggregates.setdefault(
            record.name, {"count": 0, "total_s": 0.0, "max_s": 0.0}
        )
        entry["count"] += 1
        entry["total_s"] += record.duration_s
        entry["max_s"] = max(entry["max_s"], record.duration_s)
    return {
        "enabled": _enabled,
        "pid": os.getpid(),
        "uptime_s": (time.perf_counter_ns() - perf_ns) / 1.0e9,
        "started_wall_ns": wall_ns,
        "metrics": _global_registry.to_dict(),
        "spans": {name: aggregates[name] for name in sorted(aggregates)},
    }
