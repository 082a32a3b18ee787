"""Tests for the design-space exploration sweeps and the optimisation helpers.

These tests exercise the same code paths as the paper's Figures 9, 10 and 12,
on a deliberately small configuration so they run quickly; the benchmarks run
the paper-scale versions.
"""

import pytest

from repro.activity import standard_activities, uniform_activity
from repro.casestudy import build_oni_ring_scenario
from repro.errors import AnalysisError, ConfigurationError
from repro.oni import OniPowerConfig
from repro.snr import LaserDriveConfig
from repro.units import w_to_mw
from repro.methodology import (
    ScenarioSnrPoint,
    SweepEngine,
    ThermalAwareDesignFlow,
    ThermalRequest,
    compare_heater_options,
    find_minimum_vcsel_power,
    find_optimal_heater_ratio,
    format_table,
    gradient_slope_c_per_mw,
    pivot,
    rows_from_dataclasses,
    snr_across_scenarios,
    sweep_average_temperature,
    sweep_heater_power,
    write_csv,
)


class TestSweeps:
    def test_average_temperature_sweep_monotone(self, small_flow):
        """Figure 9-a behaviour: temperature grows with chip power and PVCSEL."""
        points = sweep_average_temperature(
            small_flow,
            chip_powers_w=[12.5, 25.0],
            vcsel_powers_mw=[0.0, 4.0],
            fast=True,
        )
        assert len(points) == 4
        by_key = {
            (p.chip_power_w, p.vcsel_power_mw): p.average_oni_temperature_c
            for p in points
        }
        assert by_key[(25.0, 0.0)] > by_key[(12.5, 0.0)]
        assert by_key[(12.5, 4.0)] > by_key[(12.5, 0.0)]
        assert by_key[(25.0, 4.0)] > by_key[(25.0, 0.0)]

    def test_heater_sweep_shows_interior_minimum(self, small_flow, uniform_25w):
        """Figure 9-b behaviour: the gradient is minimised at an intermediate
        heater power, not at zero and not at the maximum."""
        points = sweep_heater_power(
            small_flow,
            uniform_25w,
            vcsel_powers_mw=[4.0],
            heater_powers_mw=[0.0, 1.6, 8.0],
        )
        gradients = {p.heater_power_mw: p.gradient_c for p in points}
        assert gradients[1.6] < gradients[0.0]
        assert gradients[1.6] < gradients[8.0]

    def test_compare_heater_options_matches_paper_trends(self, small_flow, uniform_25w):
        """Figure 10 behaviour: the heater cuts the gradient at a small average
        temperature cost, and the no-heater gradient grows with PVCSEL."""
        points = compare_heater_options(
            small_flow, uniform_25w, vcsel_powers_mw=[2.0, 6.0], heater_ratio=0.3
        )
        assert len(points) == 2
        for point in points:
            assert point.with_heater_gradient_c < point.without_heater_gradient_c
            assert point.with_heater_average_c >= point.without_heater_average_c - 0.1
            assert point.with_heater_average_c - point.without_heater_average_c < 3.0
        slope = gradient_slope_c_per_mw(points)
        assert slope > 0.2

    def test_sweep_argument_validation(self, small_flow, uniform_25w):
        with pytest.raises(ConfigurationError):
            sweep_average_temperature(small_flow, [], [1.0])
        with pytest.raises(ConfigurationError):
            sweep_heater_power(small_flow, uniform_25w, [], [1.0])
        with pytest.raises(ConfigurationError):
            compare_heater_options(small_flow, uniform_25w, [])
        with pytest.raises(ConfigurationError):
            gradient_slope_c_per_mw([])


class TestScenarioSnr:
    def test_snr_across_scenarios_shape(self, coarse_architecture):
        """Figure 12 behaviour: diagonal activity yields a lower SNR than
        uniform, and crosstalk grows with the activity imbalance."""
        scenarios = {
            "short": build_oni_ring_scenario(
                coarse_architecture, 18.0, oni_count=6, name="short"
            ),
            "long": build_oni_ring_scenario(
                coarse_architecture, 46.8, oni_count=6, name="long"
            ),
        }
        activities = standard_activities(coarse_architecture.floorplan, 25.0)
        points = snr_across_scenarios(
            coarse_architecture,
            scenarios,
            activities={"uniform": activities["uniform"], "diagonal": activities["diagonal"]},
        )
        assert len(points) == 4
        by_key = {(p.scenario, p.activity): p for p in points}
        for scenario_name in ("short", "long"):
            uniform_point = by_key[(scenario_name, "uniform")]
            diagonal_point = by_key[(scenario_name, "diagonal")]
            assert diagonal_point.worst_case_snr_db <= uniform_point.worst_case_snr_db
            assert (
                diagonal_point.max_crosstalk_power_mw
                >= uniform_point.max_crosstalk_power_mw
            )
        # Longer rings see more propagation loss and a larger temperature
        # spread, hence more crosstalk under the skewed activity.
        assert (
            by_key[("long", "diagonal")].max_crosstalk_power_mw
            >= by_key[("short", "diagonal")].max_crosstalk_power_mw
        )

    def test_each_point_equals_its_flow_evaluated_alone(self, coarse_architecture):
        scenarios = [
            build_oni_ring_scenario(coarse_architecture, 18.0, oni_count=6, name="a"),
            build_oni_ring_scenario(coarse_architecture, 32.4, oni_count=6, name="b"),
        ]
        activities = standard_activities(coarse_architecture.floorplan, 25.0)
        power = OniPowerConfig(vcsel_power_w=3.6e-3, heater_power_w=1.08e-3)
        drive = LaserDriveConfig(dissipated_power_w=power.vcsel_power_w)
        points = snr_across_scenarios(
            coarse_architecture, scenarios, activities=activities, zoom=True
        )
        assert len(points) == len(scenarios) * len(activities)
        points = iter(points)
        for scenario in scenarios:
            engine = SweepEngine(ThermalAwareDesignFlow(coarse_architecture, scenario))
            requests = [
                ThermalRequest(activity=activity, power=power, zoom_oni="auto")
                for activity in activities.values()
            ]
            evaluations = engine.evaluate(requests)
            reports = engine.evaluate_snr(requests, drive)
            for name, evaluation, report in zip(activities, evaluations, reports):
                averages = [s.average_c for s in evaluation.oni_summaries.values()]
                assert next(points) == ScenarioSnrPoint(
                    scenario=scenario.name,
                    ring_length_mm=scenario.ring_length_mm,
                    activity=name,
                    worst_case_snr_db=report.worst_case_snr_db,
                    average_snr_db=report.average_snr_db,
                    min_signal_power_mw=w_to_mw(report.min_signal_power_w),
                    max_crosstalk_power_mw=w_to_mw(report.max_crosstalk_power_w),
                    oni_temperature_min_c=min(averages),
                    oni_temperature_max_c=max(averages),
                    all_detected=report.all_detected,
                )

    def test_empty_scenarios_rejected(self, coarse_architecture):
        with pytest.raises(ConfigurationError):
            snr_across_scenarios(coarse_architecture, {})


class TestOptimization:
    def test_optimal_heater_ratio_is_interior(self, small_flow, uniform_25w):
        """Section V.B headline: the optimal heater power is a sizeable
        fraction of PVCSEL (the paper finds 0.3), strictly between 0 and 1."""
        result = find_optimal_heater_ratio(
            small_flow,
            uniform_25w,
            vcsel_power_mw=4.0,
            ratio_bounds=(0.0, 1.0),
            tolerance=0.05,
            max_evaluations=12,
        )
        assert 0.05 < result.optimal_ratio < 0.95
        assert result.optimal_gradient_c > 0.0
        assert result.evaluation_count >= 3
        no_heater_gradient = max(g for r, g in result.evaluations if r <= 0.06) if any(
            r <= 0.06 for r, _ in result.evaluations
        ) else None
        if no_heater_gradient is not None:
            assert result.optimal_gradient_c <= no_heater_gradient

    def test_minimum_vcsel_power_meets_target(self, small_flow, uniform_25w):
        result = find_minimum_vcsel_power(
            small_flow,
            uniform_25w,
            target_snr_db=20.0,
            power_bounds_mw=(1.0, 6.0),
            tolerance_mw=0.5,
        )
        assert 1.0 <= result.minimum_vcsel_power_mw <= 6.0
        assert result.achieved_snr_db >= 20.0

    def test_unreachable_snr_target_raises(self, small_flow, uniform_25w):
        with pytest.raises(AnalysisError):
            find_minimum_vcsel_power(
                small_flow, uniform_25w, target_snr_db=200.0, power_bounds_mw=(1.0, 2.0)
            )

    def test_invalid_optimisation_arguments(self, small_flow, uniform_25w):
        with pytest.raises(ConfigurationError):
            find_optimal_heater_ratio(small_flow, uniform_25w, vcsel_power_mw=0.0)
        with pytest.raises(ConfigurationError):
            find_optimal_heater_ratio(
                small_flow, uniform_25w, vcsel_power_mw=1.0, ratio_bounds=(0.5, 0.2)
            )
        with pytest.raises(ConfigurationError):
            find_minimum_vcsel_power(
                small_flow, uniform_25w, 10.0, power_bounds_mw=(2.0, 1.0)
            )


class TestReporting:
    def test_format_table_and_pivot(self):
        rows = [
            {"x": 1.0, "y": "a", "value": 1.5},
            {"x": 2.0, "y": "a", "value": 2.5},
            {"x": 1.0, "y": "b", "value": 3.5},
        ]
        table = format_table(rows, title="demo")
        assert "demo" in table
        assert "value" in table
        assert "1.500" in table
        pivoted = pivot(rows, index="x", column="y", value="value")
        assert "a" in pivoted and "b" in pivoted

    def test_rows_from_dataclasses_roundtrip(self, small_flow, uniform_25w):
        points = sweep_average_temperature(
            small_flow, chip_powers_w=[12.5], vcsel_powers_mw=[0.0], fast=True
        )
        rows = rows_from_dataclasses(points)
        assert rows[0]["chip_power_w"] == 12.5

    def test_write_csv(self, tmp_path):
        rows = [{"a": 1, "b": 2.0}, {"a": 3, "b": 4.0}]
        path = write_csv(rows, tmp_path / "out.csv")
        content = path.read_text().splitlines()
        assert content[0] == "a,b"
        assert len(content) == 3

    def test_empty_table_rejected(self):
        with pytest.raises(ConfigurationError):
            format_table([])
        with pytest.raises(ConfigurationError):
            write_csv([], "nowhere.csv")
        with pytest.raises(ConfigurationError):
            rows_from_dataclasses([object()])
