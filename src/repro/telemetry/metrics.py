"""Metrics primitives: counters, gauges and latency histograms.

A :class:`MetricsRegistry` is a named bag of three metric kinds with one
hard requirement inherited from the campaign layer: **merging registries
must be an associative, permutation-invariant fold**, because per-worker
registries come back in completion order (which differs between executors)
and may be grouped arbitrarily (one registry per spec, per worker, per
batch).  Each kind merges accordingly:

* **counters** — monotonic ints, merged by addition;
* **gauges** — last-known level samples (cache sizes, resident engines),
  merged by ``max`` (the only associative, commutative combination that
  does not invent values);
* **histograms** — log-2 bucketed latency distributions, merged bucket-wise.

Everything serialises to plain JSON (:meth:`MetricsRegistry.to_dict` /
:meth:`MetricsRegistry.from_dict`) so worker processes ship their registry
back inside the kernel's telemetry payload, and the campaign report embeds
the merged result.  The registry is thread-safe (the service records
from several threads at once) but drops its lock when pickled.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, Mapping, Optional, Union

from ..errors import ConfigurationError

#: Upper bound of the first histogram bucket [s] (1 microsecond).
BUCKET_BASE_S = 1.0e-6

#: Number of log-2 buckets: 1 us .. ~9.2e12 s, far beyond any span.
BUCKET_COUNT = 64


def bucket_index(value_s: float) -> int:
    """Index of the log-2 bucket owning ``value_s`` (clipped to the range)."""
    if value_s <= BUCKET_BASE_S:
        return 0
    index = int(math.ceil(math.log2(value_s / BUCKET_BASE_S)))
    return min(max(index, 0), BUCKET_COUNT - 1)


def bucket_upper_s(index: int) -> float:
    """Inclusive upper bound [s] of bucket ``index``."""
    return BUCKET_BASE_S * (2.0 ** index)


class Histogram:
    """Latency histogram over log-2 buckets (1 us base, 64 buckets).

    Tracks ``count`` / ``total_s`` / ``min_s`` / ``max_s`` exactly and the
    distribution at power-of-two resolution — enough to answer "how many
    solves took longer than 100 ms" without recording every sample.  Merging
    two histograms is exact for the counts and buckets and sums the totals,
    so any grouping of the same samples produces the same document (up to
    float-addition rounding of ``total_s``).
    """

    __slots__ = ("counts", "count", "total_s", "min_s", "max_s")

    def __init__(self) -> None:
        self.counts: Dict[int, int] = {}
        self.count = 0
        self.total_s = 0.0
        self.min_s: Optional[float] = None
        self.max_s: Optional[float] = None

    def observe(self, value_s: float) -> None:
        """Record one sample [s]."""
        value_s = float(value_s)
        index = bucket_index(value_s)
        self.counts[index] = self.counts.get(index, 0) + 1
        self.count += 1
        self.total_s += value_s
        self.min_s = value_s if self.min_s is None else min(self.min_s, value_s)
        self.max_s = value_s if self.max_s is None else max(self.max_s, value_s)

    @property
    def mean_s(self) -> Optional[float]:
        """Mean sample [s] (``None`` when empty)."""
        return self.total_s / self.count if self.count else None

    def quantile_s(self, q: float) -> Optional[float]:
        """Upper bound [s] of the bucket holding the ``q`` quantile."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q!r}")
        if not self.count:
            return None
        target = q * self.count
        seen = 0
        for index in sorted(self.counts):
            seen += self.counts[index]
            if seen >= target:
                return bucket_upper_s(index)
        return bucket_upper_s(max(self.counts))  # pragma: no cover - safety

    def merge(self, other: Union["Histogram", Mapping[str, Any]]) -> "Histogram":
        """Fold another histogram (or its dict form) into this one."""
        if not isinstance(other, Histogram):
            other = Histogram.from_dict(other)
        for index, count in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + count
        self.count += other.count
        self.total_s += other.total_s
        for bound in (other.min_s,):
            if bound is not None:
                self.min_s = bound if self.min_s is None else min(self.min_s, bound)
        for bound in (other.max_s,):
            if bound is not None:
                self.max_s = bound if self.max_s is None else max(self.max_s, bound)
        return self

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict view (bucket keys are stringified indices, sorted)."""
        return {
            "count": self.count,
            "total_s": self.total_s,
            "min_s": self.min_s,
            "max_s": self.max_s,
            "buckets": {
                str(index): self.counts[index] for index in sorted(self.counts)
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Histogram":
        """Rebuild a histogram from its plain-dict form."""
        histogram = cls()
        try:
            histogram.count = int(data["count"])
            histogram.total_s = float(data["total_s"])
            histogram.min_s = None if data["min_s"] is None else float(data["min_s"])
            histogram.max_s = None if data["max_s"] is None else float(data["max_s"])
            histogram.counts = {
                int(index): int(count)
                for index, count in dict(data["buckets"]).items()
            }
        except (KeyError, TypeError, ValueError) as error:
            raise ConfigurationError(
                f"malformed histogram document: {error}"
            ) from None
        return histogram

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Histogram(count={self.count}, total_s={self.total_s:.6g}, "
            f"min_s={self.min_s}, max_s={self.max_s})"
        )


class MetricsRegistry:
    """Named counters, gauges and histograms with mergeable snapshots.

    The registry is the metrics half of every telemetry payload.  All
    mutating operations take the internal lock; reads used on hot paths
    (``counter_value``) are lock-free reads of an int, which is safe under
    the GIL.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # Pickling: locks cannot cross process boundaries --------------------------

    def __getstate__(self) -> Dict[str, Any]:
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {
                name: histogram.to_dict()
                for name, histogram in self._histograms.items()
            },
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self._lock = threading.Lock()
        self._counters = dict(state["counters"])
        self._gauges = dict(state["gauges"])
        self._histograms = {
            name: Histogram.from_dict(data)
            for name, data in state["histograms"].items()
        }

    # Counters -----------------------------------------------------------------

    def inc(self, name: str, delta: int = 1) -> int:
        """Add ``delta`` to counter ``name`` (created at 0); returns it."""
        with self._lock:
            value = self._counters.get(name, 0) + int(delta)
            self._counters[name] = value
            return value

    def counter_value(self, name: str) -> int:
        """Current value of counter ``name`` (0 when never touched)."""
        return self._counters.get(name, 0)

    # Gauges -------------------------------------------------------------------

    def set_gauge(self, name: str, value: float) -> None:
        """Record the current level of gauge ``name``."""
        with self._lock:
            self._gauges[name] = float(value)

    def gauge_value(self, name: str) -> Optional[float]:
        """Last recorded level of gauge ``name`` (``None`` when unset)."""
        return self._gauges.get(name)

    # Histograms ---------------------------------------------------------------

    def observe(self, name: str, value_s: float) -> None:
        """Record one latency sample into histogram ``name``."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            histogram.observe(value_s)

    def histogram(self, name: str) -> Optional[Histogram]:
        """Histogram ``name`` (``None`` when never observed)."""
        return self._histograms.get(name)

    # Aggregation --------------------------------------------------------------

    def merge(
        self, other: Union["MetricsRegistry", Mapping[str, Any]]
    ) -> "MetricsRegistry":
        """Fold another registry (or its dict form) into this one.

        Counters add, gauges combine by ``max``, histograms merge
        bucket-wise — each an associative, commutative fold, so merged
        campaign metrics are identical whatever the executor topology
        delivered the parts in.  Returns ``self``.
        """
        document = other.to_dict() if isinstance(other, MetricsRegistry) else other
        try:
            counters = dict(document.get("counters", {}))
            gauges = dict(document.get("gauges", {}))
            histograms = dict(document.get("histograms", {}))
        except (TypeError, AttributeError):
            raise ConfigurationError(
                "a metrics document must be a mapping with counters/gauges/"
                "histograms sections"
            ) from None
        with self._lock:
            for name, value in counters.items():
                self._counters[name] = self._counters.get(name, 0) + int(value)
            for name, value in gauges.items():
                known = self._gauges.get(name)
                self._gauges[name] = (
                    float(value) if known is None else max(known, float(value))
                )
            for name, data in histograms.items():
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = self._histograms[name] = Histogram()
                histogram.merge(data)
        return self

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict snapshot, every section sorted by name."""
        with self._lock:
            return {
                "counters": {
                    name: self._counters[name] for name in sorted(self._counters)
                },
                "gauges": {
                    name: self._gauges[name] for name in sorted(self._gauges)
                },
                "histograms": {
                    name: self._histograms[name].to_dict()
                    for name in sorted(self._histograms)
                },
            }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from its plain-dict form."""
        registry = cls()
        registry.merge(data)
        return registry

    def clear(self) -> None:
        """Drop every metric (tests, process recycling)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)
