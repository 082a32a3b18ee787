"""Tests for the transient flow integration, engine caching and SNR chaining."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro import (
    LaserDriveConfig,
    OniPowerConfig,
    SimulationSettings,
    SweepEngine,
    ThermalAwareDesignFlow,
    TransientRequest,
    build_oni_ring_scenario,
    build_scc_architecture,
    uniform_activity,
)
from repro.activity import ActivityTrace, SyntheticTraceGenerator
from repro.errors import ConfigurationError
from repro.methodology import transient_request_key
from repro.methodology.transient import SnrTimeSeries
from repro.thermal import BasisScope, basis_scope

#: Coarse resolutions keep the whole module in a few seconds.
FAST_SETTINGS = SimulationSettings(
    oni_cell_size_um=500.0, die_cell_size_um=3000.0, zoom_cell_size_um=25.0
)


@pytest.fixture(scope="module")
def flow():
    architecture = build_scc_architecture(settings=FAST_SETTINGS)
    scenario = build_oni_ring_scenario(architecture, ring_length_mm=18.0, oni_count=6)
    return ThermalAwareDesignFlow(architecture, scenario)


@pytest.fixture(scope="module")
def power():
    return OniPowerConfig(vcsel_power_w=3.6e-3).with_heater_ratio(0.3)


@pytest.fixture(scope="module")
def ramp_trace(flow):
    generator = SyntheticTraceGenerator(flow.architecture.floorplan)
    return generator.ramp_trace(10.0, 25.0, phases=3, phase_duration_s=1.0)


class TestBuildSchedule:
    def test_schedule_follows_phases(self, flow, ramp_trace, power):
        schedule = flow.build_schedule(ramp_trace, power)
        assert len(schedule) == len(ramp_trace)
        assert schedule.total_duration_s == pytest.approx(
            ramp_trace.total_duration_s
        )
        # Every segment carries both the chip activity and the ONI devices.
        for segment, phase in zip(schedule, ramp_trace):
            groups = {source.group for source in segment.sources}
            assert "chip" in groups and "vcsel" in groups
            chip_power = sum(
                source.power_w for source in segment.sources if source.group == "chip"
            )
            assert chip_power == pytest.approx(phase.activity.total_power_w)

    def test_empty_trace_rejected(self, flow):
        with pytest.raises(ConfigurationError, match="no phases"):
            flow.build_schedule(ActivityTrace(name="empty"))

    def test_trace_to_schedule_helper(self, flow, ramp_trace):
        z_min, z_max = flow.architecture.electrical_z_range()
        extra = flow.scenario.onis[0].heat_sources(
            flow.architecture.optical_z_range()
        )
        schedule = ramp_trace.to_schedule(
            flow.architecture.floorplan, z_min, z_max, static_sources=extra
        )
        assert len(schedule) == len(ramp_trace)
        for segment in schedule:
            names = {source.name for source in segment.sources}
            assert {source.name for source in extra} <= names


class TestRunTransient:
    def test_steady_initial_matches_thermal_step(self, flow, ramp_trace, power):
        evaluation = flow.run_transient(
            ramp_trace, power, dt_s=0.5, initial="steady"
        )
        reference = flow.run_thermal(
            ramp_trace.phases[0].activity, power=power, zoom_oni=None
        )
        for name, summary in reference.oni_summaries.items():
            state = evaluation.oni_series[name].state_at(0)
            assert state.average_temperature_c == pytest.approx(
                summary.average_c, abs=1e-9
            )
            assert state.laser_c == pytest.approx(summary.laser_c, abs=1e-9)
            assert state.microring_c == pytest.approx(
                summary.microring_c, abs=1e-9
            )

    def test_long_horizon_settles_on_final_phase_steady_state(self, flow, power):
        """Acceptance: flow-level transient converges to the steady flow."""
        activity = uniform_activity(flow.architecture.floorplan, 25.0)
        trace = ActivityTrace(name="hold")
        trace.add_phase(activity, 400.0)
        evaluation = flow.run_transient(trace, power, dt_s=10.0)
        reference = flow.run_thermal(activity, power=power, zoom_oni=None)
        for name, summary in reference.oni_summaries.items():
            final = evaluation.oni_series[name].final_average_c
            assert final == pytest.approx(summary.average_c, abs=0.05)

    def test_request_object_and_snapshots(self, flow, ramp_trace, power):
        request = TransientRequest(
            trace=ramp_trace,
            power=power,
            dt_s=0.5,
            snapshot_times_s=(0.0, ramp_trace.total_duration_s),
        )
        evaluation = flow.run_transient(request)
        assert len(evaluation.result.snapshots) == 2
        assert evaluation.times_s[0] == 0.0
        assert evaluation.times_s[-1] == pytest.approx(
            ramp_trace.total_duration_s
        )
        assert evaluation.max_oni_temperature_c > 35.0
        name = next(iter(evaluation.oni_series))
        assert evaluation.time_above_c(name, 0.0) == pytest.approx(
            ramp_trace.total_duration_s
        )

    def test_invalid_initial_rejected(self, ramp_trace):
        with pytest.raises(ConfigurationError, match="initial"):
            TransientRequest(trace=ramp_trace, initial="bogus")

    def test_snapshot_times_coerced_to_tuple(self, ramp_trace):
        # A list must not leak into the (hashable) engine cache key.
        request = TransientRequest(trace=ramp_trace, snapshot_times_s=[0.0, 1.0])
        assert request.snapshot_times_s == (0.0, 1.0)
        hash(transient_request_key(request))

    def test_factorizations_shared_across_traces(self, flow, ramp_trace, power):
        solver = flow.transient_solver()
        first = flow.run_transient(ramp_trace, power, dt_s=0.5, solver=solver)
        second = flow.run_transient(
            ramp_trace, power.with_heater_ratio(0.1), dt_s=0.5, solver=solver
        )
        assert second.result.diagnostics.factorizations_computed == 0
        # A new solver has no history: the cached stepper counts as its own.
        third = flow.run_transient(ramp_trace, power, dt_s=0.5)
        diagnostics = third.result.diagnostics
        assert diagnostics.factorizations_computed == diagnostics.distinct_steps
        assert first.result.diagnostics.steps == second.result.diagnostics.steps


class TestTransientSnr:
    def test_time_series_shapes_and_aggregates(self, flow, ramp_trace, power):
        evaluation = flow.run_transient(ramp_trace, power, dt_s=0.5, initial="steady")
        drive = LaserDriveConfig.from_dissipated_mw(3.6)
        series = flow.run_transient_snr(evaluation, drive)
        assert series.times_s.size == evaluation.times_s.size
        assert series.snr_db.shape == (series.times_s.size, len(series.link_names))
        worst = series.worst_over_time_db()
        assert set(worst) == set(series.link_names)
        column_minima = np.min(series.snr_db, axis=0)
        for name, value in zip(series.link_names, column_minima):
            assert worst[name] == pytest.approx(float(value))
        assert series.overall_worst_snr_db == pytest.approx(
            float(np.min(series.snr_db))
        )
        time_at, link, value = series.worst_sample()
        assert link in series.link_names
        assert value == pytest.approx(series.overall_worst_snr_db)
        assert 0.0 <= time_at <= evaluation.times_s[-1]

    def test_worst_sample_resolves_round_off_ties_to_the_earliest(self):
        plateau = 18.49917293494968
        snr = np.array(
            [
                [30.0, plateau + 2.2e-11],  # a real (if tiny) difference
                [30.0, np.nextafter(plateau, np.inf)],  # tied to the last ulp
                [30.0, plateau],
                [30.0, plateau],
            ]
        )
        batch = SimpleNamespace(batch_size=4, snr_db=snr, link_names=("a", "b"))
        series = SnrTimeSeries(times_s=np.arange(4) * 0.5, batch=batch)
        assert series.worst_sample() == (0.5, "b", snr[1, 1])
        snr[3, 0] = -np.inf
        assert series.worst_sample() == (1.5, "a", -np.inf)

    def test_worst_sample_tie_window_spans_solver_round_off(self):
        plateau = 18.49917293494968
        ulp = np.spacing(plateau)
        snr = np.array(
            [
                [30.0, plateau + 4096 * ulp],  # off the plateau: not a tie
                [30.0, plateau + 128 * ulp],  # plateau scatter of a solve
                [30.0, plateau + 35 * ulp],
                [30.0, plateau],
            ]
        )
        batch = SimpleNamespace(batch_size=4, snr_db=snr, link_names=("a", "b"))
        series = SnrTimeSeries(times_s=np.arange(4) * 0.5, batch=batch)
        assert series.worst_sample() == (0.5, "b", snr[1, 1])
        snr[1, 1] = snr[2, 1] = plateau + 4096 * ulp
        assert series.worst_sample() == (1.5, "b", plateau)

    def test_time_below_floor_accounting(self, flow, ramp_trace, power):
        evaluation = flow.run_transient(ramp_trace, power, dt_s=0.5, initial="steady")
        drive = LaserDriveConfig.from_dissipated_mw(3.6)
        series = flow.run_transient_snr(evaluation, drive)
        total = evaluation.times_s[-1]
        below_all = series.time_below_floor_s(float("inf"))
        assert all(value == pytest.approx(total) for value in below_all.values())
        assert series.any_time_below_floor_s(float("inf")) == pytest.approx(total)
        below_none = series.time_below_floor_s(float("-inf"))
        assert all(value == 0.0 for value in below_none.values())

    def test_stride_keeps_final_sample(self, flow, ramp_trace, power):
        evaluation = flow.run_transient(ramp_trace, power, dt_s=0.5, initial="steady")
        drive = LaserDriveConfig.from_dissipated_mw(3.6)
        series = flow.run_transient_snr(evaluation, drive, stride=4)
        assert series.times_s[-1] == pytest.approx(evaluation.times_s[-1])
        assert series.times_s.size < evaluation.times_s.size
        with pytest.raises(ConfigurationError):
            flow.run_transient_snr(evaluation, drive, stride=0)

    def test_matches_steady_snr_when_settled(self, flow, power):
        """After a long hold the time-resolved SNR equals the steady SNR."""
        activity = uniform_activity(flow.architecture.floorplan, 25.0)
        trace = ActivityTrace(name="hold")
        trace.add_phase(activity, 400.0)
        evaluation = flow.run_transient(trace, power, dt_s=10.0)
        drive = LaserDriveConfig.from_dissipated_mw(3.6)
        series = flow.run_transient_snr(evaluation, drive, stride=10_000)
        thermal = flow.run_thermal(activity, power=power, zoom_oni=None)
        steady = flow.run_snr(thermal, drive)
        final = series.batch.report(series.batch.batch_size - 1)
        for steady_link, final_link in zip(steady.links, final.links):
            assert final_link.snr_db == pytest.approx(steady_link.snr_db, abs=0.1)


class TestEngineTransientCache:
    def test_identical_requests_solved_once(self, flow, ramp_trace, power):
        engine = SweepEngine(flow)
        request = TransientRequest(trace=ramp_trace, power=power, dt_s=0.5)
        results = engine.evaluate_transient([request, request])
        assert results[0] is results[1]
        assert engine.stats["transient_points_requested"] == 2
        assert engine.stats["transient_solves"] == 1
        assert engine.stats["transient_cache_hits"] == 1
        again = engine.evaluate_transient_one(request)
        assert again is results[0]
        assert engine.stats["transient_cache_hits"] == 2
        assert engine.transient_cache_size == 1

    def test_different_settings_are_distinct_points(self, flow, ramp_trace, power):
        engine = SweepEngine(flow)
        base = TransientRequest(trace=ramp_trace, power=power, dt_s=0.5)
        finer = TransientRequest(trace=ramp_trace, power=power, dt_s=0.25)
        assert transient_request_key(base) != transient_request_key(finer)
        engine.evaluate_transient([base, finer])
        assert engine.stats["transient_solves"] == 2

    def test_clear_cache_drops_transient_entries(self, flow, ramp_trace, power):
        engine = SweepEngine(flow)
        engine.evaluate_transient(
            [TransientRequest(trace=ramp_trace, power=power, dt_s=0.5)]
        )
        assert engine.transient_cache_size == 1
        engine.clear_cache()
        assert engine.transient_cache_size == 0


class TestRomProvenance:
    def test_engine_counts_lu_and_rom_solves(self, flow, ramp_trace, power):
        engine = SweepEngine(flow)
        build = TransientRequest(trace=ramp_trace, power=power, dt_s=0.5)
        with basis_scope(BasisScope(collect=True)) as scope:
            first = engine.evaluate_transient_one(build)
            assert first.result.diagnostics.solver_method == "lu"
            assert len(scope.bases) == 1
            assert engine.stats["transient_lu_solves"] == 1
            assert engine.stats["transient_rom_solves"] == 0

            # Different instrumentation of the same physics: a distinct
            # engine cache entry, but the identical basis key.
            replay_request = dataclasses.replace(build, snapshot_times_s=(0.0,))
            replay = engine.evaluate_transient_one(replay_request)
        assert replay.result.diagnostics.solver_method == "rom"
        assert engine.stats["transient_rom_solves"] == 1
        assert engine.stats["rom_fallbacks"] == 0
        assert len(scope.bases) == 1

    def test_engine_serves_an_evaluation_only_in_its_scope(
        self, flow, ramp_trace, power
    ):
        engine = SweepEngine(flow)
        request = TransientRequest(trace=ramp_trace, power=power, dt_s=0.5)
        with basis_scope(BasisScope(collect=True)) as scope:
            SweepEngine(flow).evaluate_transient_one(request)
        lu = engine.evaluate_transient_one(request)
        with basis_scope(scope):
            replay = engine.evaluate_transient_one(request)
        assert lu.result.diagnostics.solver_method == "lu"
        assert replay.result.diagnostics.solver_method == "rom"
        assert engine.evaluate_transient_one(request) is lu
        assert engine.stats["transient_solves"] == 2
        assert engine.stats["transient_cache_hits"] == 1

    def test_run_transient_out_of_scope_runs_full_space(self, flow, ramp_trace, power):
        evaluation = flow.run_transient(ramp_trace, power, dt_s=0.5)
        assert evaluation.result.diagnostics.solver_method == "lu"
