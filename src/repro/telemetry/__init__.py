"""Telemetry: span tracing, metrics, and cross-process trace aggregation.

The public surface the rest of the library instruments against::

    from repro import telemetry

    with telemetry.span("thermal.solve", mesh=hash8) as sp:
        ...
        sp.set(batch_size=4)

    telemetry.count("store.hits")
    telemetry.observe("engine.thermal_batch_s", elapsed)

Spans are contextvar-nested (thread- and asyncio-safe) and near-free while
disabled (the default): :func:`span` returns a shared no-op unless
:func:`enable` has flipped the module switch.  A :class:`SpanCollector`
captures one unit of work (one kernel invocation, one campaign) into a
plain-JSON payload with a wall-clock anchor; :mod:`repro.telemetry.chrome`
renders merged payloads as Chrome trace-event JSON and terminal profile
trees.  :func:`snapshot` is the live document ``repro serve`` exposes on
its ``/stats`` endpoint, and :func:`absorb_payload` is how the service
folds per-request worker captures into it.
"""

from .chrome import (
    aggregate_spans,
    chrome_document,
    chrome_json,
    profile_tree,
    trace_events,
)
from .metrics import (
    BUCKET_BASE_S,
    BUCKET_COUNT,
    Histogram,
    MetricsRegistry,
    bucket_index,
    bucket_upper_s,
)
from .trace import (
    SpanCollector,
    SpanRecord,
    absorb_payload,
    collect,
    count,
    disable,
    enable,
    enabled_scope,
    gauge,
    global_registry,
    global_spans,
    is_enabled,
    observe,
    payload_spans,
    reset,
    snapshot,
    span,
    traced,
)

__all__ = [
    "BUCKET_BASE_S",
    "BUCKET_COUNT",
    "Histogram",
    "MetricsRegistry",
    "SpanCollector",
    "SpanRecord",
    "absorb_payload",
    "aggregate_spans",
    "bucket_index",
    "bucket_upper_s",
    "chrome_document",
    "chrome_json",
    "collect",
    "count",
    "disable",
    "enable",
    "enabled_scope",
    "gauge",
    "global_registry",
    "global_spans",
    "is_enabled",
    "observe",
    "payload_spans",
    "profile_tree",
    "reset",
    "snapshot",
    "span",
    "trace_events",
    "traced",
]
