"""Telemetry subsystem contract: spans, metrics and their merge algebra.

Pins the properties the campaign layer builds on:

* spans nest through the contextvar correctly — per thread and per asyncio
  task — and the disabled switch hands back one shared no-op object;
* :class:`~repro.telemetry.Histogram` and
  :class:`~repro.telemetry.MetricsRegistry` merges are associative and
  permutation-invariant (randomized with pinned seeds), so per-worker
  payloads fold into identical campaign totals whatever the executor's
  completion order was;
* collector payloads round-trip through JSON onto the wall-clock axis and
  render as valid Chrome trace events.
"""

import asyncio
import json
import pickle
import random
import threading

import pytest

from repro import telemetry
from repro.errors import ConfigurationError
from repro.methodology import ENGINE_COUNTERS, add_engine_counters
from repro.telemetry import (
    BUCKET_COUNT,
    Histogram,
    MetricsRegistry,
    SpanRecord,
    aggregate_spans,
    bucket_index,
    bucket_upper_s,
    chrome_document,
    payload_spans,
    profile_tree,
    trace_events,
)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Every test starts and ends with the tracer off and empty."""
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


#: Latency samples that are exact in binary (multiples of 2**-10 s), so
#: histogram totals are permutation-invariant without float tolerance.
def exact_samples(rng, count):
    return [rng.randrange(1, 4096) * 2.0**-10 for _ in range(count)]


class TestSpans:
    def test_disabled_span_is_the_shared_noop(self):
        assert telemetry.span("a") is telemetry.span("b", attr=1)
        with telemetry.span("a") as sp:
            assert sp.set(x=1) is sp
        assert telemetry.global_spans() == []

    def test_enabled_scope_restores_previous_state(self):
        assert not telemetry.is_enabled()
        with telemetry.enabled_scope(True):
            assert telemetry.is_enabled()
            with telemetry.enabled_scope(False):
                assert not telemetry.is_enabled()
            assert telemetry.is_enabled()
        assert not telemetry.is_enabled()

    def test_spans_nest_by_parent_id(self):
        telemetry.enable()
        with telemetry.span("outer") as outer:
            with telemetry.span("inner") as inner:
                pass
        records = {record.name: record for record in telemetry.global_spans()}
        assert records["inner"].parent_id == outer.span_id
        assert records["outer"].parent_id is None
        assert records["inner"].duration_ns <= records["outer"].duration_ns
        assert inner.span_id != outer.span_id

    def test_sibling_threads_do_not_nest_into_each_other(self):
        telemetry.enable()
        barrier = threading.Barrier(2)

        def work(name):
            barrier.wait()
            with telemetry.span(name):
                barrier.wait()

        threads = [
            threading.Thread(target=work, args=(f"t{i}",)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for record in telemetry.global_spans():
            assert record.parent_id is None, record

    def test_asyncio_tasks_nest_independently(self):
        telemetry.enable()

        async def leaf(name):
            with telemetry.span(name):
                await asyncio.sleep(0)

        async def main():
            with telemetry.span("root"):
                await asyncio.gather(leaf("a"), leaf("b"))

        asyncio.run(main())
        records = {record.name: record for record in telemetry.global_spans()}
        root_id = records["root"].span_id
        assert records["a"].parent_id == root_id
        assert records["b"].parent_id == root_id

    def test_set_attaches_attributes_mid_span(self):
        telemetry.enable()
        with telemetry.span("solve", mesh="abc") as sp:
            sp.set(method="rom")
        (record,) = telemetry.global_spans()
        assert record.attrs == {"mesh": "abc", "method": "rom"}

    def test_traced_decorator_is_late_binding(self):
        @telemetry.traced("work")
        def work():
            return 7

        assert work() == 7
        assert telemetry.global_spans() == []
        telemetry.enable()
        assert work() == 7
        assert [record.name for record in telemetry.global_spans()] == ["work"]

    def test_metric_shortcuts_are_noops_while_disabled(self):
        telemetry.count("n")
        telemetry.observe("h", 0.5)
        telemetry.gauge("g", 2.0)
        assert len(telemetry.global_registry()) == 0
        telemetry.enable()
        telemetry.count("n", 3)
        telemetry.observe("h", 0.5)
        telemetry.gauge("g", 2.0)
        registry = telemetry.global_registry()
        assert registry.counter_value("n") == 3
        assert registry.histogram("h").count == 1
        assert registry.gauge_value("g") == 2.0

    def test_span_record_round_trips(self):
        record = SpanRecord("n", 4, 2, 100, 50, {"k": "v"}, 9, 7)
        clone = SpanRecord.from_dict(
            json.loads(json.dumps(record.to_dict()))
        )
        assert clone.to_dict() == record.to_dict()
        assert clone.duration_s == 5e-8


class TestCollector:
    def test_collector_captures_and_global_buffer_stays_clean(self):
        telemetry.enable()
        with telemetry.collect() as collector:
            with telemetry.span("inside"):
                telemetry.count("kernel.calls")
        with telemetry.span("outside"):
            pass
        assert [r.name for r in collector.spans] == ["inside"]
        assert collector.registry.counter_value("kernel.calls") == 1
        assert [r.name for r in telemetry.global_spans()] == ["outside"]
        assert telemetry.global_registry().counter_value("kernel.calls") == 0

    def test_payload_round_trip_onto_wall_clock(self):
        telemetry.enable()
        with telemetry.collect() as collector:
            with telemetry.span("a"):
                with telemetry.span("b"):
                    pass
        payload = json.loads(json.dumps(collector.to_payload()))
        spans = payload_spans(payload)
        assert {record["name"] for record in spans} == {"a", "b"}
        for record in spans:
            assert record["dur_us"] == record["duration_ns"] / 1e3
        by_name = {record["name"]: record for record in spans}
        # b starts after a on the common wall-clock axis.
        assert by_name["b"]["ts_us"] >= by_name["a"]["ts_us"]

    def test_chrome_export_is_valid_and_sorted(self):
        telemetry.enable()
        with telemetry.collect() as collector:
            for name in ("x", "y"):
                with telemetry.span(name, flavour=name):
                    pass
        spans = payload_spans(collector.to_payload())
        document = chrome_document(spans)
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert [event["ph"] for event in events] == ["X", "X"]
        assert events == sorted(
            events, key=lambda e: (e["ts"], e["pid"], e["tid"])
        )
        assert events[0]["args"] == {"flavour": events[0]["name"]}
        json.dumps(document)  # JSON-serialisable end to end

    def test_profile_tree_folds_by_parent_chain(self):
        telemetry.enable()
        with telemetry.collect() as collector:
            with telemetry.span("root"):
                for _ in range(3):
                    with telemetry.span("child"):
                        pass
        tree = profile_tree(payload_spans(collector.to_payload()))
        lines = tree.splitlines()
        assert lines[0].startswith("root")
        assert "  child" in lines[1]
        assert "3x" in lines[1]
        assert profile_tree([]) == "(no spans recorded)"

    def test_aggregate_spans_sorted_by_name(self):
        telemetry.enable()
        with telemetry.collect() as collector:
            for name in ("b", "a", "b"):
                with telemetry.span(name):
                    pass
        aggregates = aggregate_spans(payload_spans(collector.to_payload()))
        assert list(aggregates) == ["a", "b"]
        assert aggregates["b"]["count"] == 2
        assert aggregates["b"]["total_s"] >= aggregates["b"]["max_s"]

    def test_snapshot_is_deterministic_and_json_ready(self):
        telemetry.enable()
        with telemetry.span("z"):
            pass
        with telemetry.span("a"):
            pass
        snap = telemetry.snapshot()
        assert snap["enabled"] is True
        assert list(snap["spans"]) == ["a", "z"]
        assert json.loads(json.dumps(snap, sort_keys=True)) == json.loads(
            json.dumps(snap, sort_keys=True)
        )

    def test_global_span_buffer_is_bounded(self):
        from repro.telemetry import trace

        telemetry.enable()
        for index in range(70000):
            trace._global_spans.append(index)  # cheap stand-in records
        assert len(telemetry.global_spans()) == 65536


class TestHistogram:
    def test_observe_and_stats(self):
        histogram = Histogram()
        for value in (1e-6, 1e-3, 1.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.min_s == 1e-6
        assert histogram.max_s == 1.0
        assert histogram.mean_s == pytest.approx((1e-6 + 1e-3 + 1.0) / 3)
        assert Histogram().mean_s is None
        assert Histogram().quantile_s(0.5) is None

    def test_bucket_edges(self):
        assert bucket_index(0.0) == 0
        assert bucket_index(1e-6) == 0
        assert bucket_index(1e30) == BUCKET_COUNT - 1
        assert bucket_upper_s(0) == 1e-6
        assert bucket_upper_s(1) == 2e-6
        # Quantiles answer in bucket upper bounds.
        histogram = Histogram()
        histogram.observe(1.5e-6)
        assert histogram.quantile_s(0.5) == bucket_upper_s(bucket_index(1.5e-6))

    def test_merge_matches_bulk_observation(self):
        rng = random.Random(20260808)
        samples = exact_samples(rng, 200)
        bulk = Histogram()
        for value in samples:
            bulk.observe(value)
        left, right = Histogram(), Histogram()
        for index, value in enumerate(samples):
            (left if index % 2 else right).observe(value)
        assert left.merge(right) == bulk

    def test_merge_is_associative_and_permutation_invariant(self):
        rng = random.Random(7)
        parts = []
        for _ in range(6):
            histogram = Histogram()
            for value in exact_samples(rng, 30):
                histogram.observe(value)
            parts.append(histogram)

        def fold(histograms):
            total = Histogram()
            for histogram in histograms:
                total.merge(histogram.to_dict())  # dict form merges too
            return total

        reference = fold(parts)
        for _ in range(5):
            shuffled = list(parts)
            rng.shuffle(shuffled)
            assert fold(shuffled) == reference
        # Associativity: (a + b) + c == a + (b + c).
        a, b, c = parts[:3]
        left = Histogram().merge(a).merge(b)
        left.merge(c)
        right = Histogram().merge(b).merge(c)
        grouped = Histogram().merge(a)
        grouped.merge(right)
        assert grouped == left

    def test_from_dict_rejects_malformed(self):
        with pytest.raises(ConfigurationError):
            Histogram.from_dict({"count": "not-a-number"})


class TestMetricsRegistry:
    def random_registry(self, rng):
        registry = MetricsRegistry()
        for name in ("a", "b", "c"):
            registry.inc(name, rng.randrange(0, 100))
        registry.set_gauge("depth", rng.randrange(0, 50) * 1.0)
        for value in exact_samples(rng, 20):
            registry.observe("latency", value)
        return registry

    def test_merge_is_permutation_invariant(self):
        rng = random.Random(20150309)
        parts = [self.random_registry(rng) for _ in range(8)]

        def fold(registries):
            total = MetricsRegistry()
            for registry in registries:
                total.merge(registry.to_dict())
            return total.to_dict()

        reference = fold(parts)
        for _ in range(5):
            shuffled = list(parts)
            rng.shuffle(shuffled)
            assert fold(shuffled) == reference
        # Counters add, gauges keep the maximum.
        assert reference["counters"]["a"] == sum(
            part.counter_value("a") for part in parts
        )
        assert reference["gauges"]["depth"] == max(
            part.gauge_value("depth") for part in parts
        )

    def test_round_trip_and_pickle(self):
        rng = random.Random(3)
        registry = self.random_registry(rng)
        clone = MetricsRegistry.from_dict(
            json.loads(json.dumps(registry.to_dict()))
        )
        assert clone.to_dict() == registry.to_dict()
        pickled = pickle.loads(pickle.dumps(registry))
        assert pickled.to_dict() == registry.to_dict()
        pickled.inc("a")  # the recreated lock works
        assert pickled.counter_value("a") == registry.counter_value("a") + 1

    def test_to_dict_sections_sorted(self):
        registry = MetricsRegistry()
        for name in ("zeta", "alpha", "mid"):
            registry.inc(name)
            registry.observe(name, 0.5)
        document = registry.to_dict()
        assert list(document["counters"]) == ["alpha", "mid", "zeta"]
        assert list(document["histograms"]) == ["alpha", "mid", "zeta"]

    def test_merge_registry_objects_directly(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.inc("n", 2)
        right.inc("n", 5)
        assert left.merge(right) is left
        assert left.counter_value("n") == 7


class TestEngineStatsView:
    """Engine stats are a plain dict of ENGINE_COUNTERS, folded by
    ``add_engine_counters``."""

    def test_constructor_and_merge_reject_unknown(self):
        # Neither building totals from nothing nor folding into seeded
        # totals accepts a counter name outside ENGINE_COUNTERS, and a
        # refused fold leaves the totals untouched.
        with pytest.raises(ConfigurationError, match="unknown engine stats"):
            add_engine_counters({}, {"bogus": 1})
        seeded = dict.fromkeys(ENGINE_COUNTERS, 0)
        with pytest.raises(ConfigurationError, match="unknown engine stats"):
            add_engine_counters(seeded, {"cache_hits": 1, "bogus": 1})
        assert seeded == dict.fromkeys(ENGINE_COUNTERS, 0)

    def test_merge_and_equality(self):
        total = dict.fromkeys(ENGINE_COUNTERS, 0)
        add_engine_counters(total, {"thermal_solves": 1})
        add_engine_counters(total, {"thermal_solves": 2, "cache_hits": 4})
        expected = dict.fromkeys(ENGINE_COUNTERS, 0)
        expected.update(thermal_solves=3, cache_hits=4)
        assert total == expected
        assert total != dict.fromkeys(ENGINE_COUNTERS, 0)
