"""Tests for the end-to-end design flow (thermal + SNR evaluation)."""

from dataclasses import replace

import pytest

import repro.thermal.solver as solver_module
from repro.activity import diagonal_activity, uniform_activity
from repro.errors import AnalysisError, GeometryError, MeshError
from repro.methodology import ThermalAwareDesignFlow
from repro.oni import OniPowerConfig
from repro.onoc import opposite_traffic
from repro.scenarios import ScenarioRunner, default_registry
from repro.snr import LaserDriveConfig


PAPER_POWER = OniPowerConfig(vcsel_power_w=3.6e-3, heater_power_w=1.08e-3)


class TestThermalStep:
    def test_run_thermal_produces_summary_per_oni(self, small_flow, uniform_25w):
        evaluation = small_flow.run_thermal(uniform_25w, power=PAPER_POWER, zoom_oni=None)
        assert set(evaluation.oni_summaries) == {o.name for o in small_flow.scenario.onis}
        for summary in evaluation.oni_summaries.values():
            assert summary.average_c > small_flow.settings.ambient_temperature_c
            assert summary.laser_c > 0.0
            assert summary.microring_c > 0.0

    def test_zoom_provides_gradient(self, small_flow, uniform_25w):
        evaluation = small_flow.run_thermal(uniform_25w, power=PAPER_POWER, zoom_oni="auto")
        assert evaluation.zoomed_oni is not None
        assert evaluation.gradient_c > 0.0
        assert evaluation.zoom_map is not None

    def test_zoom_window_falls_back_only_on_a_missing_layer(
        self, coarse_architecture, small_scenario, monkeypatch
    ):
        def missing_layer():
            raise GeometryError("unknown layer 'die_silicon'")

        monkeypatch.setattr(coarse_architecture, "zoom_vertical_range", missing_layer)
        flow = ThermalAwareDesignFlow(coarse_architecture, small_scenario)
        assert flow._zoom() is not None  # full-stack zoom

        def broken():
            raise RuntimeError("not a geometry problem")

        monkeypatch.setattr(coarse_architecture, "zoom_vertical_range", broken)
        flow = ThermalAwareDesignFlow(coarse_architecture, small_scenario)
        with pytest.raises(RuntimeError, match="not a geometry problem"):
            flow._zoom()

    def test_gradient_requires_zoom(self, small_flow, uniform_25w):
        evaluation = small_flow.run_thermal(uniform_25w, power=PAPER_POWER, zoom_oni=None)
        with pytest.raises(AnalysisError):
            _ = evaluation.gradient_c

    def test_more_chip_power_raises_temperatures(self, small_flow, coarse_architecture):
        low = small_flow.run_thermal(
            uniform_activity(coarse_architecture.floorplan, 12.5),
            power=PAPER_POWER,
            zoom_oni=None,
        )
        high = small_flow.run_thermal(
            uniform_activity(coarse_architecture.floorplan, 31.25),
            power=PAPER_POWER,
            zoom_oni=None,
        )
        assert high.average_oni_temperature_c > low.average_oni_temperature_c + 3.0

    def test_more_vcsel_power_raises_oni_temperature(self, small_flow, uniform_25w):
        low = small_flow.run_thermal(
            uniform_25w, power=OniPowerConfig(vcsel_power_w=1.0e-3, heater_power_w=0.0), zoom_oni=None
        )
        high = small_flow.run_thermal(
            uniform_25w, power=OniPowerConfig(vcsel_power_w=6.0e-3, heater_power_w=0.0), zoom_oni=None
        )
        assert high.max_oni_temperature_c > low.max_oni_temperature_c + 1.0

    def test_diagonal_activity_spreads_oni_temperatures(self, small_flow, coarse_architecture, uniform_25w):
        uniform_eval = small_flow.run_thermal(uniform_25w, power=PAPER_POWER, zoom_oni=None)
        diagonal = diagonal_activity(coarse_architecture.floorplan).scaled_to(25.0)
        diagonal_eval = small_flow.run_thermal(diagonal, power=PAPER_POWER, zoom_oni=None)
        assert (
            diagonal_eval.oni_temperature_spread_c
            > uniform_eval.oni_temperature_spread_c
        )

    def test_heat_sources_cover_activity_and_onis(self, small_flow, uniform_25w):
        sources = small_flow.heat_sources(uniform_25w, PAPER_POWER)
        total = sum(source.power_w for source in sources)
        oni_power = sum(
            oni.with_power(PAPER_POWER).total_power_w()
            for oni in small_flow.scenario.onis
        )
        assert total == pytest.approx(25.0 + oni_power, rel=1e-9)

    def test_default_zoom_oni_is_central(self, small_flow):
        name = small_flow.default_zoom_oni()
        assert name in {o.name for o in small_flow.scenario.onis}

    def test_meets_gradient_constraint_helper(self, small_flow, uniform_25w):
        evaluation = small_flow.run_thermal(uniform_25w, power=PAPER_POWER, zoom_oni="auto")
        assert evaluation.meets_gradient_constraint(1000.0)
        assert not evaluation.meets_gradient_constraint(0.0)


class TestZoomSettings:
    """The zoom solve honours the flow's settings, as the package solve does."""

    @staticmethod
    def zoomed_run(**settings):
        """Zoomed thermal run of ``small_die_uniform`` with ``settings``
        overridden (package mesh 3,179 cells, zoom mesh 3,456)."""
        runner = ScenarioRunner(default_registry().get("small_die_uniform"))
        base = runner.flow()
        architecture = replace(
            base.architecture, settings=replace(base.settings, **settings)
        )
        flow = ThermalAwareDesignFlow(architecture, base.scenario)
        return flow.run_thermal(
            runner.activity(), power=runner.power_config(), zoom_oni="auto"
        )

    def test_direct_solver_cell_limit_reaches_the_zoom_solve(self, monkeypatch):
        calls = []
        real_cg = solver_module.cg

        def counted_cg(*args, **kwargs):
            calls.append(args)
            return real_cg(*args, **kwargs)

        monkeypatch.setattr(solver_module, "cg", counted_cg)
        evaluation = self.zoomed_run(direct_solver_cell_limit=1)
        assert evaluation.zoom_map is not None
        # The package's response basis columns and the zoom solve.
        assert {args[0].shape[0] for args in calls} == {3_179, 3_456}

    def test_max_cells_bounds_the_zoom_mesh(self):
        with pytest.raises(MeshError):
            self.zoomed_run(max_cells=3_300)

    def test_settings_are_the_architecture_settings(self, small_flow):
        assert small_flow.settings is small_flow.architecture.settings


class TestNetworkAndSnrStep:
    def test_build_network_routes_default_traffic(self, small_flow):
        network = small_flow.build_network()
        assert len(network.assigned_communications()) == len(small_flow.scenario.onis)
        assert network.waveguide_count == 4

    def test_build_network_with_explicit_traffic(self, small_flow):
        traffic = opposite_traffic(small_flow.scenario.ring)
        network = small_flow.build_network(traffic)
        assert len(network.assigned_communications()) == len(traffic)

    def test_run_snr_produces_report(self, small_flow, uniform_25w):
        evaluation = small_flow.run_thermal(uniform_25w, power=PAPER_POWER, zoom_oni=None)
        report = small_flow.run_snr(
            evaluation, LaserDriveConfig.from_dissipated_mw(3.6)
        )
        assert len(report.links) == len(small_flow.scenario.onis)
        assert report.worst_case_snr_db > 0.0
        assert report.all_detected

    def test_run_snr_many_matches_per_point_run_snr(self, small_flow, uniform_25w):
        drive = LaserDriveConfig.from_dissipated_mw(3.6)
        evaluations = [
            small_flow.run_thermal(uniform_25w, power=PAPER_POWER, zoom_oni=None),
            small_flow.run_thermal(
                diagonal_activity(small_flow.architecture.floorplan, 25.0),
                power=PAPER_POWER,
                zoom_oni=None,
            ),
        ]
        batch = small_flow.run_snr_many(evaluations, drive)
        assert batch.batch_size == 2
        for index, evaluation in enumerate(evaluations):
            report = small_flow.run_snr(evaluation, drive)
            assert batch.worst_case_snr_db[index] == report.worst_case_snr_db
            assert batch.average_snr_db[index] == report.average_snr_db

    def test_default_snr_analyzer_is_cached(self, small_flow):
        analyzer = small_flow.snr_analyzer()
        assert small_flow.snr_analyzer() is analyzer
        # Explicit traffic bypasses the cache.
        traffic = opposite_traffic(small_flow.scenario.ring)
        assert small_flow.snr_analyzer(communications=traffic) is not analyzer

    def test_evaluate_design_point_combines_both(self, small_flow, uniform_25w):
        result = small_flow.evaluate_design_point(uniform_25w, PAPER_POWER)
        assert result.worst_case_snr_db > 0.0
        assert result.gradient_c > 0.0
        assert result.average_oni_temperature_c > 35.0
        assert result.drive.dissipated_power_w == pytest.approx(3.6e-3)

    def test_states_feed_snr(self, small_flow, uniform_25w):
        evaluation = small_flow.run_thermal(uniform_25w, power=PAPER_POWER, zoom_oni=None)
        states = evaluation.states()
        assert len(states) == len(small_flow.scenario.onis)
        assert all(state.laser_c > 35.0 for state in states)
