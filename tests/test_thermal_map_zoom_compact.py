"""Tests for thermal-map queries, the zoom (submodel) solver and the compact model."""

import numpy as np
import pytest

from repro.errors import AnalysisError, SolverError
from repro.geometry import Box, Layer, LayerStack, Rect
from repro.materials import COPPER, EPOXY, SILICON
from repro.thermal import (
    BoundaryConditions,
    CompactThermalModel,
    FaceCondition,
    HeatSource,
    MeshBuilder,
    SteadyStateSolver,
    ThermalMap,
    ZoomSolver,
    clear_factorization_cache,
    clip_sources_to_window,
    factorization_cache_stats,
)


def layered_stack(side_mm=6.0):
    footprint = Rect.from_size_mm(0.0, 0.0, side_mm, side_mm)
    stack = LayerStack(footprint)
    stack.add_layer(Layer(name="substrate", thickness=400e-6, material=EPOXY))
    stack.add_layer(Layer(name="die", thickness=200e-6, material=SILICON))
    stack.add_layer(Layer(name="lid", thickness=300e-6, material=COPPER))
    return stack


def solved_problem():
    stack = layered_stack()
    mesh = MeshBuilder(stack, base_cell_size_um=750.0, vertical_target_um=150.0).build()
    boundaries = BoundaryConditions.package_default(30.0, 2000.0)
    hotspot = HeatSource.from_rect(
        "hotspot", Rect.from_size_mm(2.5, 2.5, 1.0, 1.0), 400e-6, 450e-6, 4.0
    )
    background = HeatSource.from_rect(
        "background", Rect.from_size_mm(0.0, 0.0, 6.0, 6.0), 400e-6, 450e-6, 6.0
    )
    solver = SteadyStateSolver(mesh, boundaries)
    thermal_map = solver.solve([hotspot, background])
    return stack, boundaries, thermal_map, [hotspot, background]


class TestThermalMap:
    def test_shape_mismatch_rejected(self):
        stack = layered_stack()
        mesh = MeshBuilder(stack, base_cell_size_um=1500.0).build()
        with pytest.raises(AnalysisError):
            ThermalMap(mesh, np.zeros((2, 2, 2)))

    def test_average_between_extrema(self):
        _, _, thermal_map, _ = solved_problem()
        box = Box.from_rect(Rect.from_size_mm(2.0, 2.0, 2.0, 2.0), 0.0, 900e-6)
        low, high = thermal_map.extrema_over(box)
        average = thermal_map.average_over(box)
        assert low <= average <= high

    def test_hotspot_is_hotter_than_corner(self):
        _, _, thermal_map, _ = solved_problem()
        hot = thermal_map.temperature_at(3.0e-3, 3.0e-3, 420e-6)
        corner = thermal_map.temperature_at(0.2e-3, 0.2e-3, 420e-6)
        assert hot > corner

    def test_gradient_queries(self):
        _, _, thermal_map, _ = solved_problem()
        hot_box = Box.from_rect(Rect.from_size_mm(2.5, 2.5, 1.0, 1.0), 400e-6, 450e-6)
        cold_box = Box.from_rect(Rect.from_size_mm(0.0, 0.0, 1.0, 1.0), 400e-6, 450e-6)
        assert thermal_map.gradient_between(hot_box, cold_box) > 0.0
        whole = Box.from_rect(Rect.from_size_mm(0.0, 0.0, 6.0, 6.0), 400e-6, 450e-6)
        assert thermal_map.gradient_within(whole) >= thermal_map.gradient_between(
            hot_box, cold_box
        ) - 1e-9

    def test_query_outside_domain_raises(self):
        _, _, thermal_map, _ = solved_problem()
        outside = Box(1.0, 1.0, 1.0, 2.0, 2.0, 2.0)
        with pytest.raises(AnalysisError):
            thermal_map.average_over(outside)

    def test_hottest_point_near_hotspot(self):
        _, _, thermal_map, _ = solved_problem()
        x, y, z, temperature = thermal_map.hottest_point()
        assert 2.0e-3 <= x <= 4.0e-3
        assert 2.0e-3 <= y <= 4.0e-3
        assert temperature == pytest.approx(thermal_map.global_max())

    def test_summary_and_slices(self):
        _, _, thermal_map, _ = solved_problem()
        summary = thermal_map.summary()
        assert summary["max_c"] >= summary["mean_c"] >= summary["min_c"]
        plane = thermal_map.horizontal_slice(420e-6)
        assert plane.shape == thermal_map.temperatures_c.shape[:2]

    def test_sample_line_monotone_away_from_hotspot(self):
        _, _, thermal_map, _ = solved_problem()
        distances, values = thermal_map.sample_line(
            (3.0e-3, 3.0e-3, 420e-6), (0.2e-3, 3.0e-3, 420e-6), samples=15
        )
        assert distances[0] == 0.0
        assert values[0] >= values[-1]

    def test_average_by_boxes_and_ring_averages(self):
        _, _, thermal_map, _ = solved_problem()
        boxes = {
            "hot": Box.from_rect(Rect.from_size_mm(2.5, 2.5, 1.0, 1.0), 400e-6, 450e-6),
            "cold": Box.from_rect(Rect.from_size_mm(0.0, 0.0, 1.0, 1.0), 400e-6, 450e-6),
        }
        averages = thermal_map.average_by_boxes(boxes)
        assert averages["hot"] > averages["cold"]
        footprints = [Rect.from_size_mm(1.0 * i, 1.0, 0.5, 0.5) for i in range(4)]
        ring = thermal_map.averages_along_ring(footprints, 400e-6, 450e-6)
        assert ring.shape == (4,)


class TestZoomSolver:
    def test_zoom_agrees_with_coarse_on_averages(self):
        stack, boundaries, coarse_map, sources = solved_problem()
        zoom = ZoomSolver(stack, boundaries, cell_size_um=100.0, margin_um=500.0)
        region = Rect.from_size_mm(2.5, 2.5, 1.0, 1.0)
        result = zoom.solve(coarse_map, region, sources)
        fine_map = result.thermal_map
        box = Box.from_rect(region, 400e-6, 450e-6)
        coarse_average = coarse_map.average_over(box)
        fine_average = fine_map.average_over(box)
        # The refined solution should stay within a few degrees of the coarse
        # one (it adds local detail, it does not change the bulk picture).
        assert fine_average == pytest.approx(coarse_average, abs=3.0)

    def test_zoom_resolves_local_peak(self):
        stack, boundaries, coarse_map, sources = solved_problem()
        zoom = ZoomSolver(stack, boundaries, cell_size_um=50.0, margin_um=500.0)
        region = Rect.from_size_mm(2.5, 2.5, 1.0, 1.0)
        result = zoom.solve(coarse_map, region, sources)
        box = Box.from_rect(region, 400e-6, 450e-6)
        assert result.thermal_map.max_over(box) >= coarse_map.max_over(box) - 0.5

    def test_zoom_window_cache_reused(self):
        # A second solve around the same window rebuilds the window mesh,
        # and the shared cache serves its operator and factor.
        stack, boundaries, coarse_map, sources = solved_problem()
        zoom = ZoomSolver(stack, boundaries, cell_size_um=100.0, margin_um=400.0)
        region = Rect.from_size_mm(2.5, 2.5, 1.0, 1.0)
        clear_factorization_cache()
        zoom.solve(coarse_map, region, sources)
        first = factorization_cache_stats()
        assert first["entries"] == 1
        zoom.solve(coarse_map, region, [sources[0].scaled(0.5), sources[1]])
        second = factorization_cache_stats()
        assert second["entries"] == 1
        assert second["built"] == first["built"]
        assert second["reused"] == first["reused"] + 1

    def test_vertical_range_zoom(self):
        stack, boundaries, coarse_map, sources = solved_problem()
        zoom = ZoomSolver(
            stack,
            boundaries,
            cell_size_um=100.0,
            margin_um=400.0,
            vertical_range=(400e-6, 600e-6),
        )
        region = Rect.from_size_mm(2.5, 2.5, 1.0, 1.0)
        result = zoom.solve(coarse_map, region, sources)
        assert result.thermal_map.mesh.z_ticks[0] == pytest.approx(400e-6)
        assert result.thermal_map.mesh.z_ticks[-1] == pytest.approx(600e-6)
        box = Box.from_rect(region, 400e-6, 450e-6)
        assert result.thermal_map.average_over(box) == pytest.approx(
            coarse_map.average_over(box), abs=3.0
        )

    def test_invalid_parameters(self):
        stack, boundaries, _, _ = solved_problem()
        with pytest.raises(SolverError):
            ZoomSolver(stack, boundaries, cell_size_um=0.0)
        with pytest.raises(SolverError):
            ZoomSolver(stack, boundaries, margin_um=-1.0)
        with pytest.raises(SolverError):
            ZoomSolver(stack, boundaries, vertical_range=(1.0, 0.5))

    def test_clip_sources_to_window(self):
        window = Box(0.0, 0.0, 0.0, 1.0e-3, 1.0e-3, 1.0e-3)
        inside = HeatSource.from_rect(
            "inside", Rect.from_size_um(100.0, 100.0, 100.0, 100.0), 0.0, 1e-4, 1.0
        )
        outside = HeatSource.from_rect(
            "outside", Rect.from_size_mm(5.0, 5.0, 1.0, 1.0), 0.0, 1e-4, 1.0
        )
        straddling = HeatSource.from_rect(
            "straddling", Rect.from_size_mm(0.5, 0.0, 1.0, 1.0), 0.0, 1e-4, 1.0
        )
        clipped = clip_sources_to_window([inside, outside, straddling], window)
        names = {source.name for source in clipped}
        assert names == {"inside", "straddling"}
        straddling_clipped = next(s for s in clipped if s.name == "straddling")
        assert straddling_clipped.power_w == pytest.approx(0.5, rel=1e-6)


class TestCompactModel:
    def test_resistance_orders_and_estimate(self):
        stack = layered_stack()
        model = CompactThermalModel(stack, ambient_c=30.0, top_coefficient_w_m2k=2000.0)
        result = model.estimate(10.0, source_layer="die")
        assert result.junction_temperature_c > 30.0
        assert result.effective_resistance_k_per_w == pytest.approx(
            result.resistance_up_k_per_w
        )

    def test_bottom_path_reduces_resistance(self):
        stack = layered_stack()
        single = CompactThermalModel(stack, 30.0, 2000.0)
        dual = CompactThermalModel(stack, 30.0, 2000.0, bottom_coefficient_w_m2k=200.0)
        assert (
            dual.estimate(10.0, "die").effective_resistance_k_per_w
            < single.estimate(10.0, "die").effective_resistance_k_per_w
        )

    def test_report_contains_layers_above_source(self):
        stack = layered_stack()
        model = CompactThermalModel(stack, 30.0, 2000.0)
        report = model.resistance_report("die")
        assert set(report) == {"die", "lid", "convection"}

    def test_compact_is_close_to_fvm_for_uniform_heating(self):
        # For a laterally uniform problem the 1D ladder and the 3D FVM agree.
        stack = layered_stack()
        mesh = MeshBuilder(stack, base_cell_size_um=1500.0, vertical_target_um=150.0).build()
        boundaries = BoundaryConditions.package_default(30.0, 2000.0)
        source = HeatSource.from_rect(
            "uniform", stack.footprint, 400e-6, 450e-6, 8.0
        )
        fvm = SteadyStateSolver(mesh, boundaries).solve([source])
        fvm_temperature = fvm.average_over(
            Box.from_rect(stack.footprint, 400e-6, 450e-6)
        )
        compact = CompactThermalModel(stack, 30.0, 2000.0).estimate(8.0, "die")
        assert compact.junction_temperature_c == pytest.approx(fvm_temperature, abs=1.5)

    def test_invalid_inputs(self):
        stack = layered_stack()
        with pytest.raises(SolverError):
            CompactThermalModel(stack, 30.0, 0.0)
        model = CompactThermalModel(stack, 30.0, 2000.0)
        with pytest.raises(SolverError):
            model.estimate(-1.0, "die")
        with pytest.raises(SolverError):
            model.estimate(1.0, "missing_layer")
