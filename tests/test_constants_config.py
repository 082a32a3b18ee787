"""Tests for paper constants and the technology / simulation configuration."""

import pytest

from repro import constants
from repro.config import SimulationSettings, TechnologyParameters
from repro.errors import ConfigurationError


class TestConstants:
    def test_table1_values_match_paper(self):
        assert constants.DEFAULT_WAVELENGTH_NM == 1550.0
        assert constants.DEFAULT_MR_BANDWIDTH_3DB_NM == 1.55
        assert constants.DEFAULT_PHOTODETECTOR_SENSITIVITY_DBM == -20.0
        assert constants.DEFAULT_THERMAL_SENSITIVITY_NM_PER_C == 0.1
        assert constants.DEFAULT_PROPAGATION_LOSS_DB_PER_CM == 0.5

    def test_vcsel_anchors(self):
        assert constants.DEFAULT_VCSEL_LINEWIDTH_NM == 0.1
        assert constants.DEFAULT_VCSEL_MODULATION_BANDWIDTH_GHZ == 12.0
        assert constants.DEFAULT_TAPER_COUPLING_EFFICIENCY == 0.70

    def test_scc_geometry(self):
        assert constants.SCC_TILE_GRID == (6, 4)
        assert constants.SCC_DIE_WIDTH_MM * constants.SCC_DIE_HEIGHT_MM == pytest.approx(
            567.1, rel=0.01
        )

    def test_scenario_ring_lengths(self):
        assert constants.SCENARIO_RING_LENGTHS_MM == (18.0, 32.4, 46.8)

    def test_photon_energy_1550nm(self):
        energy = constants.photon_energy_j(1550.0)
        assert energy == pytest.approx(1.28e-19, rel=0.01)

    def test_photon_energy_rejects_non_positive(self):
        with pytest.raises(ValueError):
            constants.photon_energy_j(0.0)

    def test_quantum_slope_efficiency(self):
        # hc / (q * lambda) = ~0.8 W/A at 1550 nm.
        assert constants.quantum_slope_efficiency_w_per_a(1550.0) == pytest.approx(
            0.8, rel=0.01
        )


class TestTechnologyParameters:
    def test_defaults_are_table1(self):
        tech = TechnologyParameters()
        assert tech.wavelength_nm == 1550.0
        assert tech.mr_bandwidth_3db_nm == 1.55
        assert tech.photodetector_sensitivity_dbm == -20.0
        assert tech.thermal_sensitivity_nm_per_c == 0.1
        assert tech.propagation_loss_db_per_cm == 0.5

    def test_sensitivity_in_milliwatts(self):
        tech = TechnologyParameters()
        assert tech.photodetector_sensitivity_mw == pytest.approx(0.01)

    def test_detuning_temperature_mapping_roundtrip(self):
        tech = TechnologyParameters()
        assert tech.detuning_for_temperature_difference(7.7) == pytest.approx(0.77)
        assert tech.temperature_difference_for_detuning(0.77) == pytest.approx(7.7)

    def test_zero_sensitivity_rejects_inverse_mapping(self):
        tech = TechnologyParameters(thermal_sensitivity_nm_per_c=0.0)
        with pytest.raises(ConfigurationError):
            tech.temperature_difference_for_detuning(0.5)

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            TechnologyParameters(wavelength_nm=-1.0)
        with pytest.raises(ConfigurationError):
            TechnologyParameters(taper_coupling_efficiency=1.5)
        with pytest.raises(ConfigurationError):
            TechnologyParameters(channel_spacing_nm=0.0)
        with pytest.raises(ConfigurationError):
            TechnologyParameters(mr_drop_loss_db=-0.1)

    def test_to_dict_contains_all_fields(self):
        data = TechnologyParameters().to_dict()
        assert data["wavelength_nm"] == 1550.0
        assert "taper_coupling_efficiency" in data


class TestSimulationSettings:
    def test_defaults_are_positive(self):
        settings = SimulationSettings()
        assert settings.oni_cell_size_um > 0
        assert settings.zoom_cell_size_um > 0
        assert settings.max_cells > 0
        assert settings.heat_sink_coefficient_w_m2k > 0

    def test_invalid_settings_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationSettings(oni_cell_size_um=0.0)
        with pytest.raises(ConfigurationError):
            SimulationSettings(max_cells=0)
        with pytest.raises(ConfigurationError):
            SimulationSettings(solver_rtol=-1.0)
        with pytest.raises(ConfigurationError):
            SimulationSettings(direct_solver_cell_limit=0)
        with pytest.raises(ConfigurationError):
            SimulationSettings(heat_sink_coefficient_w_m2k=0.0)

    def test_to_dict_roundtrip(self):
        settings = SimulationSettings(ambient_temperature_c=40.0)
        data = settings.to_dict()
        assert data["ambient_temperature_c"] == 40.0
