"""Tests for the sweep-execution engine (cache, batching).

The engine is the execution substrate of every exploration helper, so these
tests pin down its contract: results identical to the point-by-point flow,
deduplication behind the content-derived evaluation key, batch chunking, and
the optional process pool across independent meshes.
"""

import gc
import random
import weakref

import numpy as np
import pytest

from repro.activity import uniform_activity
from repro.casestudy import build_oni_ring_scenario
from repro.errors import ConfigurationError
from repro.methodology import (
    ENGINE_COUNTERS,
    SweepEngine,
    SweepPoint,
    ThermalAwareDesignFlow,
    ThermalRequest,
    add_engine_counters,
    evaluation_key,
    sweep_average_temperature,
    sweep_heater_power,
)
from repro.oni import OniPowerConfig


def request_grid(flow, vcsel_powers_mw, zoom=None):
    activity = uniform_activity(flow.architecture.floorplan, 20.0)
    return [
        ThermalRequest(
            activity=activity,
            power=OniPowerConfig(vcsel_power_w=mw * 1.0e-3),
            zoom_oni=zoom,
        )
        for mw in vcsel_powers_mw
    ]


class TestEvaluationKey:
    def test_equal_content_equal_key(self, small_flow):
        first, second = request_grid(small_flow, [2.0, 2.0])
        assert evaluation_key("default", first) == evaluation_key("default", second)

    def test_distinguishes_power_zoom_and_flow(self, small_flow):
        base = request_grid(small_flow, [2.0])[0]
        other_power = request_grid(small_flow, [3.0])[0]
        zoomed = request_grid(small_flow, [2.0], zoom="auto")[0]
        key = evaluation_key("default", base)
        assert key != evaluation_key("default", other_power)
        assert key != evaluation_key("default", zoomed)
        assert key != evaluation_key("other", base)


class TestSweepEngine:
    def test_matches_point_by_point_flow(self, small_flow):
        requests = request_grid(small_flow, [0.0, 2.0, 4.0])
        engine = SweepEngine(small_flow)
        batched = engine.evaluate(requests)
        for request, evaluation in zip(requests, batched):
            direct = small_flow.run_thermal(
                request.activity, power=request.power, zoom_oni=None
            )
            assert np.allclose(
                evaluation.thermal_map.temperatures_c,
                direct.thermal_map.temperatures_c,
                atol=1e-9,
            )

    def test_cache_hits_across_calls(self, small_flow):
        engine = SweepEngine(small_flow)
        requests = request_grid(small_flow, [1.0, 2.0])
        first = engine.evaluate(requests)
        assert engine.stats["thermal_solves"] == 2
        second = engine.evaluate(requests)
        assert engine.stats["thermal_solves"] == 2
        assert engine.stats["cache_hits"] == 2
        for a, b in zip(first, second):
            assert a is b

    def test_duplicates_within_one_call_solved_once(self, small_flow):
        engine = SweepEngine(small_flow)
        request = request_grid(small_flow, [2.0])[0]
        results = engine.evaluate([request, request, request])
        assert engine.stats["thermal_solves"] == 1
        assert results[0] is results[1] is results[2]

    def test_batch_chunking(self, small_flow):
        engine = SweepEngine(small_flow, batch_size=2)
        engine.evaluate(request_grid(small_flow, [0.0, 1.0, 2.0, 3.0, 4.0]))
        assert engine.stats["batches"] == 3
        assert engine.stats["thermal_solves"] == 5

    def test_cache_eviction_does_not_corrupt_results(self, small_flow):
        engine = SweepEngine(small_flow, max_cache_entries=1)
        requests = request_grid(small_flow, [0.0, 2.0, 4.0])
        results = engine.evaluate(requests)
        assert len(results) == 3
        assert engine.cache_size == 1

    def test_run_thermal_many_chunking_matches_single_batch(self, small_flow):
        requests = request_grid(small_flow, [0.0, 1.0, 2.0])
        chunked = small_flow.run_thermal_many(requests, batch_size=2)
        single = small_flow.run_thermal_many(requests, batch_size=None)
        for a, b in zip(chunked, single):
            assert np.array_equal(
                a.thermal_map.temperatures_c, b.thermal_map.temperatures_c
            )
        with pytest.raises(ConfigurationError):
            small_flow.run_thermal_many(requests, batch_size=0)

    def test_shared_engine_is_per_flow(self, small_flow, coarse_architecture):
        assert SweepEngine.shared(small_flow) is SweepEngine.shared(small_flow)
        other_scenario = build_oni_ring_scenario(
            coarse_architecture, ring_length_mm=18.0, oni_count=4, name="other"
        )
        other_flow = ThermalAwareDesignFlow(coarse_architecture, other_scenario)
        assert SweepEngine.shared(other_flow) is not SweepEngine.shared(small_flow)

    def test_shared_engine_lives_as_long_as_its_flow(self, coarse_architecture):
        scenario = build_oni_ring_scenario(
            coarse_architecture, ring_length_mm=18.0, oni_count=4, name="brief"
        )
        flow = ThermalAwareDesignFlow(coarse_architecture, scenario)
        sweep_average_temperature(flow, [12.5], [0.0], fast=True)
        engine = weakref.ref(SweepEngine.shared(flow))
        assert not hasattr(flow, "_sweep_engine")
        flow_ref = weakref.ref(flow)
        del flow
        gc.collect()
        assert flow_ref() is None
        assert engine() is None

    def test_validation(self, small_flow):
        with pytest.raises(ConfigurationError):
            SweepEngine({})
        with pytest.raises(ConfigurationError):
            SweepEngine(small_flow, batch_size=0)
        with pytest.raises(ConfigurationError):
            SweepEngine(small_flow, max_cache_entries=0)
        engine = SweepEngine(small_flow)
        request = request_grid(small_flow, [1.0])[0]
        with pytest.raises(ConfigurationError):
            engine.evaluate([SweepPoint(request=request, flow_key="missing")])
        with pytest.raises(ConfigurationError):
            engine.flow("missing")


class TestSnrEvaluation:
    """evaluate_snr: thermal cache + batched SNR + report cache."""

    def _drive(self):
        from repro.snr import LaserDriveConfig

        return LaserDriveConfig.from_dissipated_mw(3.6)

    def test_matches_point_by_point_run_snr(self, small_flow):
        engine = SweepEngine(small_flow)
        requests = request_grid(small_flow, [2.0, 4.0])
        reports = engine.evaluate_snr(requests, self._drive())
        evaluations = engine.evaluate(requests)
        for request, evaluation, report in zip(requests, evaluations, reports):
            direct = small_flow.run_snr(evaluation, self._drive())
            assert report.worst_case_snr_db == direct.worst_case_snr_db
            assert [l.communication.name for l in report.links] == [
                l.communication.name for l in direct.links
            ]

    def test_snr_reports_are_cached(self, small_flow):
        engine = SweepEngine(small_flow)
        requests = request_grid(small_flow, [1.0, 3.0])
        drive = self._drive()
        first = engine.evaluate_snr(requests, drive)
        assert engine.stats["snr_evaluations"] == 2
        assert engine.stats["snr_batches"] == 1
        second = engine.evaluate_snr(requests, drive)
        assert engine.stats["snr_evaluations"] == 2
        assert engine.stats["snr_cache_hits"] == 2
        for a, b in zip(first, second):
            assert a is b

    def test_drive_is_part_of_the_key(self, small_flow):
        from repro.snr import LaserDriveConfig

        engine = SweepEngine(small_flow)
        request = request_grid(small_flow, [2.0])[0]
        engine.evaluate_snr([request], LaserDriveConfig.from_dissipated_mw(3.6))
        engine.evaluate_snr([request], LaserDriveConfig.from_dissipated_mw(2.0))
        # Different drives are distinct SNR evaluations on one thermal solve.
        assert engine.stats["snr_evaluations"] == 2
        assert engine.stats["thermal_solves"] == 1

    def test_duplicates_within_one_call_evaluated_once(self, small_flow):
        engine = SweepEngine(small_flow)
        request = request_grid(small_flow, [2.0])[0]
        reports = engine.evaluate_snr([request, request], self._drive())
        assert engine.stats["snr_evaluations"] == 1
        assert reports[0] is reports[1]

    def test_unknown_flow_key_rejected(self, small_flow):
        engine = SweepEngine(small_flow)
        request = request_grid(small_flow, [2.0])[0]
        with pytest.raises(ConfigurationError):
            engine.evaluate_snr(
                [SweepPoint(request=request, flow_key="missing")], self._drive()
            )

    def test_clear_cache_drops_snr_reports(self, small_flow):
        engine = SweepEngine(small_flow)
        engine.evaluate_snr(request_grid(small_flow, [2.0]), self._drive())
        assert engine.snr_cache_size == 1
        engine.clear_cache()
        assert engine.snr_cache_size == 0


class TestHelpersRouteThroughEngine:
    def test_sweeps_share_the_flow_engine(self, small_flow, uniform_25w):
        engine = SweepEngine.shared(small_flow)
        engine.clear_cache()
        requested_before = engine.stats["points_requested"]
        sweep_average_temperature(
            small_flow, chip_powers_w=[12.5], vcsel_powers_mw=[0.0, 4.0], fast=True
        )
        assert engine.stats["points_requested"] == requested_before + 2
        solves_after_first = engine.stats["thermal_solves"]
        # Re-running the same grid is served from the evaluation cache.
        sweep_average_temperature(
            small_flow, chip_powers_w=[12.5], vcsel_powers_mw=[0.0, 4.0], fast=True
        )
        assert engine.stats["thermal_solves"] == solves_after_first

    def test_heater_sweep_dedups_repeated_points(self, small_flow, uniform_25w):
        engine = SweepEngine.shared(small_flow)
        engine.clear_cache()
        hits_before = engine.stats["cache_hits"]
        sweep_heater_power(
            small_flow, uniform_25w, vcsel_powers_mw=[4.0], heater_powers_mw=[0.0, 1.6]
        )
        sweep_heater_power(
            small_flow, uniform_25w, vcsel_powers_mw=[4.0], heater_powers_mw=[1.6, 8.0]
        )
        # The (4.0, 1.6) point of the second sweep is a cache hit.
        assert engine.stats["cache_hits"] > hits_before


class TestEngineStatsMergeIdentity:
    """Campaign stats aggregation must not depend on the execution substrate.

    Executors differ in how per-worker counter dicts come back — order
    (completion vs submission), grouping (one dict per spec vs per worker
    batch) — so ``add_engine_counters`` must be a commutative, associative
    fold: any permutation or partition of the same per-worker dicts yields
    identical totals.  Randomized with a pinned seed so failures replay.
    """

    COUNTERS = list(ENGINE_COUNTERS)

    def random_stats_dicts(self, rng, count):
        return [
            {name: rng.randrange(0, 1000) for name in self.COUNTERS}
            for _ in range(count)
        ]

    def fold(self, dicts):
        total = {}
        for counters in dicts:
            add_engine_counters(total, counters)
        return total

    def test_merge_totals_invariant_under_permutation(self):
        rng = random.Random(0xD47E)
        for _ in range(25):
            dicts = self.random_stats_dicts(rng, rng.randrange(1, 9))
            reference = self.fold(dicts)
            shuffled = list(dicts)
            rng.shuffle(shuffled)
            assert self.fold(shuffled) == reference
            assert reference == {
                name: sum(d[name] for d in dicts) for name in self.COUNTERS
            }

    def test_merge_totals_invariant_under_partition(self):
        # Group the worker dicts arbitrarily, fold each group into a
        # subtotal, then fold the subtotals: same totals as the flat fold.
        rng = random.Random(0xA6)
        for _ in range(25):
            dicts = self.random_stats_dicts(rng, rng.randrange(2, 10))
            reference = self.fold(dicts)
            groups = [[] for _ in range(rng.randrange(1, len(dicts) + 1))]
            for counters in dicts:
                rng.choice(groups).append(counters)
            total = {}
            for group in groups:
                subtotal = {}
                for counters in group:
                    add_engine_counters(subtotal, counters)
                add_engine_counters(total, subtotal)
            assert total == reference

    def test_merge_accepts_sparse_mappings_and_returns_self(self):
        stats = {}
        assert add_engine_counters(stats, {"cache_hits": 3}) is stats
        add_engine_counters(stats, {"cache_hits": 2, "thermal_solves": 1})
        assert stats == {"cache_hits": 5, "thermal_solves": 1}

    def test_merge_rejects_unknown_counters(self):
        with pytest.raises(ConfigurationError, match="unknown engine stats"):
            add_engine_counters({}, {"cache_hits": 1, "warp_drive": 9})
