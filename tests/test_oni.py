"""Tests for the ONI layout generator and the instantiated interface."""

import dataclasses

import pytest

from repro.errors import ConfigurationError, GeometryError
from repro.geometry import Layer, LayerStack, Rect
from repro.materials import OPTICAL_LAYER, SILICON
from repro.oni import (
    OniLayoutParameters,
    OniPowerConfig,
    OpticalNetworkInterface,
    generate_chessboard_layout,
    place_onis,
)
from repro.thermal import BoundaryConditions, FaceCondition, MeshBuilder, SteadyStateSolver


class TestOniLayout:
    def test_device_counts_match_paper_configuration(self):
        """4 waveguides x 4 lasers per waveguide = 16 transmitters and receivers."""
        layout = generate_chessboard_layout()
        assert layout.count_of_kind("vcsel") == 16
        assert layout.count_of_kind("microring") == 16
        assert layout.count_of_kind("photodetector") == 16
        assert layout.count_of_kind("heater") == 16
        assert layout.count_of_kind("driver") == 16

    def test_custom_layout_counts(self):
        params = OniLayoutParameters(waveguide_count=2, lasers_per_waveguide=3)
        layout = generate_chessboard_layout(params)
        assert layout.count_of_kind("vcsel") == 6
        assert layout.count_of_kind("microring") == 6

    def test_devices_fit_inside_footprint(self):
        layout = generate_chessboard_layout()
        footprint = layout.footprint
        for placement in layout.placements:
            assert footprint.contains_rect(placement.rect), placement.name

    def test_chessboard_alternation(self):
        """Along each waveguide, transmitters and receivers alternate."""
        layout = generate_chessboard_layout()
        for waveguide in range(4):
            row = [
                p
                for p in layout.placements
                if p.waveguide_index == waveguide and p.kind in ("vcsel", "microring")
            ]
            row.sort(key=lambda p: p.rect.center[0])
            kinds = [p.kind for p in row]
            for first, second in zip(kinds, kinds[1:]):
                assert first != second

    def test_adjacent_waveguides_are_shifted(self):
        """The chessboard shifts the pattern between neighbouring waveguides."""
        layout = generate_chessboard_layout()

        def first_kind(waveguide):
            row = [
                p
                for p in layout.placements
                if p.waveguide_index == waveguide and p.kind in ("vcsel", "microring")
            ]
            return min(row, key=lambda p: p.rect.center[0]).kind

        assert first_kind(0) != first_kind(1)

    def test_unique_names(self):
        layout = generate_chessboard_layout()
        names = [p.name for p in layout.placements]
        assert len(names) == len(set(names))

    def test_by_name_lookup(self):
        layout = generate_chessboard_layout()
        lookup = layout.by_name()
        assert "vcsel_w0_t0" in lookup
        assert lookup["vcsel_w0_t0"].kind == "vcsel"

    def test_invalid_parameters(self):
        with pytest.raises(GeometryError):
            OniLayoutParameters(waveguide_count=0)
        with pytest.raises(GeometryError):
            OniLayoutParameters(site_pitch_um=5.0)  # smaller than the VCSEL
        with pytest.raises(GeometryError):
            generate_chessboard_layout().devices_of_kind("transistor")

    def test_layout_is_immutable(self):
        # The compiled rect and kind arrays are cached on the layout, so it
        # must not change after they are built.
        layout = generate_chessboard_layout()
        assert isinstance(layout.placements, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            layout.placements = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            layout.parameters = OniLayoutParameters()
        assert layout.rects.shape == (len(layout.placements), 4)


class TestOniPowerConfig:
    def test_defaults_are_paper_operating_point(self):
        power = OniPowerConfig()
        assert power.vcsel_power_w == pytest.approx(3.6e-3)
        assert power.heater_power_w == pytest.approx(1.08e-3)
        # Worst case Pdriver = PVCSEL.
        assert power.effective_driver_power_w == pytest.approx(3.6e-3)

    def test_heater_ratio_helper(self):
        power = OniPowerConfig(vcsel_power_w=6.0e-3).with_heater_ratio(0.3)
        assert power.heater_power_w == pytest.approx(1.8e-3)

    def test_explicit_driver_power(self):
        power = OniPowerConfig(vcsel_power_w=2.0e-3, driver_power_w=1.0e-3)
        assert power.effective_driver_power_w == pytest.approx(1.0e-3)

    def test_invalid_values(self):
        with pytest.raises(ConfigurationError):
            OniPowerConfig(vcsel_power_w=-1.0)
        with pytest.raises(ConfigurationError):
            OniPowerConfig().with_heater_ratio(-0.5)


class TestOpticalNetworkInterface:
    def _oni(self, power=None):
        return OpticalNetworkInterface("oni_test", origin=(1.0e-3, 2.0e-3), power=power)

    def test_footprint_is_translated(self):
        oni = self._oni()
        assert oni.footprint.x_min == pytest.approx(1.0e-3)
        assert oni.footprint.y_min == pytest.approx(2.0e-3)

    def test_power_budget(self):
        oni = self._oni(OniPowerConfig(vcsel_power_w=6.0e-3, heater_power_w=1.8e-3))
        assert oni.total_optical_layer_power_w() == pytest.approx(16 * 6.0e-3 + 16 * 1.8e-3)
        assert oni.total_driver_power_w() == pytest.approx(16 * 6.0e-3)
        assert oni.total_power_w() == pytest.approx(
            oni.total_optical_layer_power_w() + oni.total_driver_power_w()
        )

    def test_heat_sources_groups_and_power(self):
        oni = self._oni(OniPowerConfig(vcsel_power_w=2.0e-3, heater_power_w=0.5e-3))
        sources = oni.heat_sources((0.0, 4.0e-6), driver_z_range=(-20e-6, -10e-6))
        groups = {source.group for source in sources}
        assert groups == {"vcsel", "heater", "driver"}
        total = sum(source.power_w for source in sources)
        assert total == pytest.approx(oni.total_power_w())

    def test_zero_heater_power_emits_no_heater_sources(self):
        oni = self._oni(OniPowerConfig(vcsel_power_w=2.0e-3, heater_power_w=0.0))
        sources = oni.heat_sources((0.0, 4.0e-6))
        assert all(source.group != "heater" for source in sources)

    def test_with_power_preserves_geometry(self):
        oni = self._oni()
        other = oni.with_power(OniPowerConfig(vcsel_power_w=1.0e-3))
        assert other.footprint == oni.footprint
        assert other.power.vcsel_power_w == pytest.approx(1.0e-3)

    def test_summary_keys(self):
        summary = self._oni().summary()
        assert summary["vcsel_count"] == 16
        assert "total_power_w" in summary

    def test_place_onis_shares_layout(self):
        onis = place_onis([("a", (0.0, 0.0)), ("b", (1.0e-3, 0.0))])
        assert onis[0].layout is onis[1].layout
        assert onis[0].name == "a"

    def test_gradient_temperature_from_thermal_map(self):
        """End-to-end: an ONI dissipating power in a small test stack shows a
        positive VCSEL-to-microring gradient that the heater reduces."""
        footprint = Rect.from_size_mm(0.0, 0.0, 3.0, 3.0)
        stack = LayerStack(footprint)
        stack.add_layer(Layer(name="bulk", thickness=300e-6, material=SILICON))
        stack.add_layer(Layer(name="optical", thickness=4e-6, material=OPTICAL_LAYER))
        stack.add_layer(Layer(name="cap", thickness=50e-6, material=SILICON))
        optical_z = stack.z_bounds("optical")

        oni = OpticalNetworkInterface(
            "oni", origin=(1.2e-3, 1.3e-3), power=OniPowerConfig(vcsel_power_w=4.0e-3, heater_power_w=0.0)
        )
        builder = MeshBuilder(stack, base_cell_size_um=150.0, vertical_target_um=50.0)
        builder.add_refinement(oni.footprint, 25.0)
        mesh = builder.build()
        boundaries = BoundaryConditions()
        boundaries.set_face("z_max", FaceCondition.convective(30.0, 3000.0))
        solver = SteadyStateSolver(mesh, boundaries)

        no_heater_map = solver.solve(oni.heat_sources(optical_z))
        no_heater_gradient = oni.gradient_temperature_c(no_heater_map, optical_z)
        assert oni.laser_temperature_c(no_heater_map, optical_z) > oni.microring_temperature_c(
            no_heater_map, optical_z
        )
        assert no_heater_gradient > 0.0

        heated = oni.with_power(OniPowerConfig(vcsel_power_w=4.0e-3).with_heater_ratio(0.3))
        heated_map = solver.solve(heated.heat_sources(optical_z))
        heated_gradient = heated.gradient_temperature_c(heated_map, optical_z)
        assert heated_gradient < no_heater_gradient
