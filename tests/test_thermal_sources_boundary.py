"""Tests for heat sources, their mesh projection, and boundary conditions."""

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.errors import GeometryError, SolverError
from repro.geometry import Box, Layer, LayerStack, Rect
from repro.materials import SILICON
from repro.thermal import (
    BoundaryConditions,
    FaceCondition,
    HeatSource,
    MeshBuilder,
    power_density_field,
)


def small_mesh():
    footprint = Rect.from_size_mm(0.0, 0.0, 2.0, 2.0)
    stack = LayerStack(footprint)
    stack.add_layer(Layer(name="bulk", thickness=200e-6, material=SILICON))
    return MeshBuilder(stack, base_cell_size_um=500.0, vertical_target_um=100.0).build()


class TestHeatSource:
    def test_from_rect(self):
        source = HeatSource.from_rect(
            "s", Rect.from_size_mm(0.0, 0.0, 1.0, 1.0), 0.0, 100e-6, 2.0
        )
        assert source.power_w == 2.0
        assert source.box.thickness == pytest.approx(100e-6)

    def test_invalid_power_and_names(self):
        rect = Rect.from_size_mm(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(GeometryError):
            HeatSource.from_rect("s", rect, 0.0, 1e-6, -1.0)
        with pytest.raises(GeometryError):
            HeatSource.from_rect("", rect, 0.0, 1e-6, 1.0)

    def test_scaling_helpers(self):
        source = HeatSource.from_rect(
            "s", Rect.from_size_mm(0.0, 0.0, 1.0, 1.0), 0.0, 1e-6, 2.0
        )
        assert source.with_power(5.0).power_w == 5.0
        assert source.scaled(0.5).power_w == 1.0
        with pytest.raises(GeometryError):
            source.scaled(-1.0)


class TestPowerDensityField:
    def test_power_is_conserved(self):
        mesh = small_mesh()
        source = HeatSource.from_rect(
            "s", Rect.from_size_mm(0.3, 0.3, 0.9, 0.7), 20e-6, 120e-6, 3.5
        )
        field = power_density_field(mesh, [source])
        assert field.sum() == pytest.approx(3.5, rel=1e-9)

    def test_source_smaller_than_cell_is_conserved(self):
        mesh = small_mesh()
        source = HeatSource.from_rect(
            "tiny", Rect.from_size_um(100.0, 100.0, 15.0, 30.0), 0.0, 4e-6, 0.006
        )
        field = power_density_field(mesh, [source])
        assert field.sum() == pytest.approx(0.006, rel=1e-9)

    def test_zero_power_sources_are_skipped(self):
        mesh = small_mesh()
        source = HeatSource.from_rect(
            "off", Rect.from_size_mm(0.0, 0.0, 1.0, 1.0), 0.0, 1e-6, 0.0
        )
        field = power_density_field(mesh, [source])
        assert field.sum() == 0.0

    def test_source_outside_mesh_raises(self):
        mesh = small_mesh()
        source = HeatSource(
            name="outside", box=Box(1.0, 1.0, 1.0, 2.0, 2.0, 2.0), power_w=1.0
        )
        with pytest.raises(SolverError, match="does not overlap"):
            power_density_field(mesh, [source])

    @given(st.floats(min_value=0.001, max_value=100.0))
    @hyp_settings(max_examples=20, deadline=None)
    def test_conservation_for_arbitrary_powers(self, power):
        mesh = small_mesh()
        source = HeatSource.from_rect(
            "s", Rect.from_size_mm(0.1, 0.5, 1.5, 1.2), 0.0, 200e-6, power
        )
        field = power_density_field(mesh, [source])
        assert field.sum() == pytest.approx(power, rel=1e-9)


class TestBoundaryConditions:
    def test_face_condition_validation(self):
        with pytest.raises(SolverError):
            FaceCondition(kind="weird")
        with pytest.raises(SolverError):
            FaceCondition.convective(25.0, 0.0)
        with pytest.raises(SolverError):
            FaceCondition(kind="dirichlet")

    def test_fixed_temperature_field(self):
        condition = FaceCondition.fixed_temperature(55.0)
        assert condition.temperature_field(0.0, 0.0, 0.0) == 55.0
        assert condition.temperature_field(1.0, 2.0, 3.0) == 55.0

    def test_default_is_adiabatic_everywhere(self):
        boundaries = BoundaryConditions()
        assert not boundaries.has_fixed_reference()

    def test_package_default(self):
        boundaries = BoundaryConditions.package_default(
            ambient_c=35.0, top_coefficient_w_m2k=2000.0, bottom_coefficient_w_m2k=10.0
        )
        assert boundaries.face("z_max").kind == "convective"
        assert boundaries.face("z_min").kind == "convective"
        assert boundaries.face("x_min").kind == "adiabatic"
        assert boundaries.has_fixed_reference()

    def test_unknown_face_rejected(self):
        boundaries = BoundaryConditions()
        with pytest.raises(SolverError):
            boundaries.set_face("top", FaceCondition.adiabatic())
        with pytest.raises(SolverError):
            boundaries.face("front")
