"""Tests for the transient thermal engine (schedules, θ-method, probes)."""

import math

import numpy as np
import pytest

from repro.errors import MeshError, SolverError
from repro.geometry import Box, Layer, LayerStack, Rect
from repro.materials import SILICON
from repro.thermal import (
    BoundaryConditions,
    FaceCondition,
    HeatSource,
    Mesh3D,
    MeshBuilder,
    ProbeSeries,
    ScheduleSegment,
    SourceSchedule,
    SteadyStateSolver,
    ThermalMap,
    TransientSolver,
    clear_factorization_cache,
    compile_probes,
    factorization_cache_stats,
)


def slab_problem(side_mm=5.0, thickness_um=400.0, cells_um=1000.0):
    footprint = Rect.from_size_mm(0.0, 0.0, side_mm, side_mm)
    stack = LayerStack(footprint)
    stack.add_layer(Layer(name="bulk", thickness=thickness_um * 1e-6, material=SILICON))
    mesh = MeshBuilder(stack, base_cell_size_um=cells_um, vertical_target_um=100.0).build()
    boundaries = BoundaryConditions()
    boundaries.set_face("z_max", FaceCondition.convective(25.0, 1500.0))
    source = HeatSource.from_rect("sheet", footprint, 0.0, 10e-6, 5.0)
    return mesh, boundaries, source, footprint


def single_cell_problem(ambient_c=25.0, h_w_m2k=2000.0):
    """One-cell mesh: an exact lumped RC circuit for analytic comparison."""
    side = 1.0e-3
    thickness = 100.0e-6
    ticks = np.array([0.0, side])
    z_ticks = np.array([0.0, thickness])
    k = np.full((1, 1, 1), SILICON.lateral_conductivity)
    c = np.full((1, 1, 1), SILICON.volumetric_heat_capacity_j_m3k())
    mesh = Mesh3D(ticks, ticks, z_ticks, k, k.copy(), c)
    boundaries = BoundaryConditions()
    boundaries.set_face("z_max", FaceCondition.convective(ambient_c, h_w_m2k))
    source = HeatSource(
        "cell", Box(0.0, 0.0, 0.0, side, side, thickness), 0.05
    )
    area = side * side
    half_conductance = 2.0 * SILICON.vertical_conductivity * area / thickness
    convective = h_w_m2k * area
    conductance = 1.0 / (1.0 / half_conductance + 1.0 / convective)
    capacitance = area * thickness * SILICON.volumetric_heat_capacity_j_m3k()
    return mesh, boundaries, source, conductance, capacitance


class TestScheduleValidation:
    def test_segment_rejects_nonpositive_and_nan_durations(self):
        for duration in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(SolverError):
                ScheduleSegment(duration_s=duration, sources=())

    def test_segment_at_walks_boundaries(self):
        source = HeatSource("s", Box(0, 0, 0, 1e-3, 1e-3, 1e-5), 1.0)
        schedule = SourceSchedule()
        schedule.add_segment(1.0, [source], label="first")
        schedule.add_segment(2.0, [source], label="second")
        assert schedule.total_duration_s == pytest.approx(3.0)
        assert schedule.segment_at(0.0).label == "first"
        assert schedule.segment_at(0.999).label == "first"
        assert schedule.segment_at(1.0).label == "second"
        assert schedule.segment_at(3.0).label == "second"
        with pytest.raises(SolverError):
            schedule.segment_at(3.5)
        with pytest.raises(SolverError):
            schedule.segment_at(-0.1)
        with pytest.raises(SolverError, match="finite"):
            schedule.segment_at(float("nan"))

    def test_empty_schedule_rejected(self):
        mesh, boundaries, _, _ = slab_problem()
        solver = TransientSolver(mesh, boundaries)
        with pytest.raises(SolverError, match="no segments"):
            solver.solve(SourceSchedule(), dt_s=0.1)
        with pytest.raises(SolverError):
            SourceSchedule().segment_at(0.0)


class TestSolverValidation:
    def test_theta_range(self):
        mesh, boundaries, _, _ = slab_problem()
        for theta in (0.0, 0.49, 1.01):
            with pytest.raises(SolverError, match="theta"):
                TransientSolver(mesh, boundaries, theta=theta)

    def test_missing_heat_capacity_rejected(self):
        mesh, boundaries, _, _ = slab_problem()
        bare = Mesh3D(
            mesh.x_ticks, mesh.y_ticks, mesh.z_ticks, mesh.k_lateral, mesh.k_vertical
        )
        assert not bare.has_heat_capacity
        with pytest.raises(MeshError, match="heat-capacity"):
            TransientSolver(bare, boundaries)
        # An explicit scalar override makes the bare mesh usable.
        solver = TransientSolver(bare, boundaries, volumetric_heat_capacity=1.6e6)
        assert solver.mesh is bare

    def test_mesh_heat_capacity_validation(self):
        mesh, _, _, _ = slab_problem()
        with pytest.raises(MeshError):
            Mesh3D(
                mesh.x_ticks,
                mesh.y_ticks,
                mesh.z_ticks,
                mesh.k_lateral,
                mesh.k_vertical,
                np.zeros(mesh.shape),
            )
        with pytest.raises(MeshError):
            Mesh3D(
                mesh.x_ticks,
                mesh.y_ticks,
                mesh.z_ticks,
                mesh.k_lateral,
                mesh.k_vertical,
                np.ones((1, 1, 1)),
            )

    def test_builder_fills_capacitance_from_materials(self):
        mesh, _, _, _ = slab_problem()
        assert mesh.has_heat_capacity
        expected = SILICON.volumetric_heat_capacity_j_m3k()
        assert np.allclose(mesh.c_volumetric, expected)
        capacitance = mesh.capacitance_vector()
        assert capacitance.shape == (mesh.n_cells,)
        total_volume = mesh.cell_volumes().sum()
        assert capacitance.sum() == pytest.approx(expected * total_volume)

    def test_invalid_dt_rejected(self):
        mesh, boundaries, source, _ = slab_problem()
        solver = TransientSolver(mesh, boundaries)
        schedule = SourceSchedule([ScheduleSegment(1.0, (source,))])
        for dt in (0.0, -1.0, float("nan")):
            with pytest.raises(SolverError, match="dt_s"):
                solver.solve(schedule, dt_s=dt)

    def test_snapshot_times_outside_schedule_rejected(self):
        mesh, boundaries, source, _ = slab_problem()
        solver = TransientSolver(mesh, boundaries)
        schedule = SourceSchedule([ScheduleSegment(1.0, (source,))])
        with pytest.raises(SolverError, match="snapshot"):
            solver.solve(schedule, dt_s=0.1, snapshot_times_s=[2.0])

    def test_initial_field_shape_checked(self):
        mesh, boundaries, source, _ = slab_problem()
        solver = TransientSolver(mesh, boundaries)
        schedule = SourceSchedule([ScheduleSegment(1.0, (source,))])
        with pytest.raises(SolverError, match="initial temperature"):
            solver.solve(
                schedule, dt_s=0.5, initial_temperature_c=np.zeros((2, 2, 2))
            )


class TestAnalyticLumpedRc:
    def test_backward_euler_matches_exponential(self):
        mesh, boundaries, source, conductance, capacitance = single_cell_problem()
        tau = capacitance / conductance
        solver = TransientSolver(mesh, boundaries)
        schedule = SourceSchedule([ScheduleSegment(3.0 * tau, (source,))])
        probe = {"cell": mesh.bounding_box()}
        result = solver.solve(schedule, dt_s=tau / 200.0, probes=probe)
        series = result.probe("cell")
        rise = source.power_w / conductance
        expected = 25.0 + rise * (1.0 - np.exp(-series.times_s / tau))
        error = np.abs(series.temperatures_c - expected).max()
        assert error < 0.01 * rise

    def test_crank_nicolson_is_more_accurate_than_backward_euler(self):
        mesh, boundaries, source, conductance, capacitance = single_cell_problem()
        tau = capacitance / conductance
        schedule = SourceSchedule([ScheduleSegment(2.0 * tau, (source,))])
        probe = {"cell": mesh.bounding_box()}
        rise = source.power_w / conductance

        def max_error(theta):
            solver = TransientSolver(mesh, boundaries, theta=theta)
            series = solver.solve(schedule, dt_s=tau / 10.0, probes=probe).probe("cell")
            expected = 25.0 + rise * (1.0 - np.exp(-series.times_s / tau))
            return np.abs(series.temperatures_c - expected).max()

        assert max_error(0.5) < 0.2 * max_error(1.0)


class TestSteadyStateConvergence:
    def test_long_horizon_converges_to_steady_solver(self):
        """Acceptance: the transient field settles onto the steady solution."""
        mesh, boundaries, source, _ = slab_problem()
        steady = SteadyStateSolver(mesh, boundaries).solve([source])
        solver = TransientSolver(mesh, boundaries)
        schedule = SourceSchedule([ScheduleSegment(100.0, (source,))])
        result = solver.solve(schedule, dt_s=0.5)
        difference = np.abs(
            result.final_map.temperatures_c - steady.temperatures_c
        ).max()
        assert difference < 1.0e-6

    def test_steady_initial_condition_stays_put(self):
        mesh, boundaries, source, _ = slab_problem()
        steady = SteadyStateSolver(mesh, boundaries).solve([source])
        solver = TransientSolver(mesh, boundaries)
        schedule = SourceSchedule([ScheduleSegment(5.0, (source,))])
        result = solver.solve(schedule, dt_s=0.5, initial_temperature_c=steady)
        drift = np.abs(
            result.final_map.temperatures_c - steady.temperatures_c
        ).max()
        assert drift < 1.0e-8


class TestFactorizationReuse:
    def test_one_factorization_per_step_size(self):
        mesh, boundaries, source, _ = slab_problem()
        clear_factorization_cache()
        built = factorization_cache_stats()["built"]
        solver = TransientSolver(mesh, boundaries)
        schedule = SourceSchedule(
            [
                ScheduleSegment(1.0, (source,), label="a"),
                ScheduleSegment(1.0, (source.with_power(2.0),), label="b"),
            ]
        )
        first = solver.solve(schedule, dt_s=0.25)
        assert first.diagnostics.factorizations_computed == 1
        assert first.diagnostics.distinct_steps == 1
        # A second trace on the same mesh reuses the cached factorisation.
        second = solver.solve(schedule, dt_s=0.25)
        assert second.diagnostics.factorizations_computed == 0
        stats = factorization_cache_stats()
        assert stats["built"] == built + 1
        assert stats["entries"] == 2  # the operator and one stepper
        np.testing.assert_allclose(
            first.final_map.temperatures_c, second.final_map.temperatures_c
        )

    def test_stepper_cache_is_bounded(self):
        # Each cached stepper holds a full factor; sweeps varying dt must not
        # accumulate them without limit.  The shared cache holds 8 entries.
        mesh, boundaries, source, _ = slab_problem()
        clear_factorization_cache()
        solver = TransientSolver(mesh, boundaries)
        capacity = 8
        for index in range(capacity + 3):
            schedule = SourceSchedule([ScheduleSegment(1.0, (source,))])
            result = solver.solve(schedule, dt_s=1.0 / (index + 1))
            assert result.diagnostics.factorizations_computed == 1
        assert factorization_cache_stats()["entries"] == capacity

    def test_unequal_segments_get_aligned_steps(self):
        mesh, boundaries, source, _ = slab_problem()
        solver = TransientSolver(mesh, boundaries)
        schedule = SourceSchedule(
            [
                ScheduleSegment(1.0, (source,)),
                ScheduleSegment(0.7, (source,)),
            ]
        )
        result = solver.solve(schedule, dt_s=0.4)
        # 1.0 s in 3 steps, 0.7 s in 2 steps: boundaries are honoured exactly.
        assert result.diagnostics.steps == 5
        assert result.diagnostics.distinct_steps == 2
        assert result.segment_boundaries_s == pytest.approx((1.0, 1.7))
        assert np.any(np.isclose(result.times_s, 1.0))
        assert result.times_s[-1] == pytest.approx(1.7)


class TestProbesAndSnapshots:
    def test_probe_series_and_multi_box_mean(self):
        mesh, boundaries, source, footprint = slab_problem()
        solver = TransientSolver(mesh, boundaries)
        schedule = SourceSchedule([ScheduleSegment(20.0, (source,))])
        whole = mesh.bounding_box()
        half_a = Box(whole.x_min, whole.y_min, whole.z_min, 0.5 * whole.x_max, whole.y_max, whole.z_max)
        half_b = Box(0.5 * whole.x_max, whole.y_min, whole.z_min, whole.x_max, whole.y_max, whole.z_max)
        result = solver.solve(
            schedule,
            dt_s=0.5,
            probes={"whole": whole, "halves": [half_a, half_b]},
        )
        whole_series = result.probe("whole")
        halves_series = result.probe("halves")
        assert whole_series.times_s.shape == whole_series.temperatures_c.shape
        # Symmetric problem: the mean of the two halves is the whole average.
        np.testing.assert_allclose(
            halves_series.temperatures_c, whole_series.temperatures_c, rtol=1e-9
        )
        assert whole_series.temperatures_c[0] == pytest.approx(25.0)
        assert whole_series.max_c == whole_series.final_c
        with pytest.raises(SolverError, match="no probe"):
            result.probe("missing")

    def test_probe_outside_mesh_rejected(self):
        mesh, boundaries, source, _ = slab_problem()
        solver = TransientSolver(mesh, boundaries)
        schedule = SourceSchedule([ScheduleSegment(1.0, (source,))])
        outside = Box(1.0, 1.0, 1.0, 2.0, 2.0, 2.0)
        with pytest.raises(SolverError, match="does not overlap"):
            solver.solve(schedule, dt_s=0.5, probes={"outside": outside})

    def test_time_above_and_settling(self):
        times = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        series = ProbeSeries(
            name="p",
            times_s=times,
            temperatures_c=np.array([25.0, 40.0, 52.0, 58.0, 59.9]),
        )
        assert series.time_above_c(50.0) == pytest.approx(3.0)
        assert series.time_above_c(100.0) == 0.0
        # Settles within 5 degC of the final value after the 3 s sample.
        assert series.settling_time_s(5.0) == pytest.approx(3.0)
        # Never settles within 0.5 degC (the 3 s sample is still outside).
        never = ProbeSeries(
            name="p",
            times_s=times,
            temperatures_c=np.array([25.0, 40.0, 52.0, 58.0, 70.0]),
        )
        assert never.settling_time_s(0.5, reference_c=58.0) is None
        flat = ProbeSeries(
            name="p", times_s=times, temperatures_c=np.full(5, 30.0)
        )
        assert flat.settling_time_s(1.0) == 0.0
        with pytest.raises(SolverError):
            series.settling_time_s(0.0)

    def test_settling_not_confirmed_for_still_moving_trace(self):
        # Against the default (final-value) reference a steadily rising
        # trace must report None, not a time just before the end.
        times = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        rising = ProbeSeries(
            name="p",
            times_s=times,
            temperatures_c=np.array([25.0, 26.0, 27.0, 28.0, 29.0]),
        )
        assert rising.settling_time_s(0.5) is None

    def test_snapshots_snap_to_step_ends(self):
        mesh, boundaries, source, _ = slab_problem()
        solver = TransientSolver(mesh, boundaries)
        schedule = SourceSchedule([ScheduleSegment(2.0, (source,))])
        result = solver.solve(
            schedule, dt_s=0.5, snapshot_times_s=[0.0, 0.6, 2.0]
        )
        assert [snap.requested_time_s for snap in result.snapshots] == [0.0, 0.6, 2.0]
        assert [snap.time_s for snap in result.snapshots] == pytest.approx(
            [0.0, 1.0, 2.0]
        )
        for snap in result.snapshots:
            assert isinstance(snap.thermal_map, ThermalMap)
        nearest = result.snapshot_nearest(0.7)
        assert nearest.time_s == pytest.approx(1.0)
        # The final snapshot equals the final map.
        np.testing.assert_allclose(
            result.snapshots[-1].thermal_map.temperatures_c,
            result.final_map.temperatures_c,
        )

    def test_snapshot_marginally_past_end_is_still_recorded(self):
        # A target inside the validation tolerance but past the last step
        # time must yield a snapshot of the final field, not silently vanish.
        mesh, boundaries, source, _ = slab_problem()
        solver = TransientSolver(mesh, boundaries)
        schedule = SourceSchedule([ScheduleSegment(2.0, (source,))])
        result = solver.solve(
            schedule, dt_s=0.5, snapshot_times_s=[2.0 * (1.0 + 1.0e-10)]
        )
        assert len(result.snapshots) == 1
        np.testing.assert_allclose(
            result.snapshots[0].thermal_map.temperatures_c,
            result.final_map.temperatures_c,
        )

    def test_probe_functionals_compiled_once_per_spec(self):
        mesh, boundaries, source, _ = slab_problem()
        schedule = SourceSchedule([ScheduleSegment(1.0, (source,))])
        compiled = compile_probes(mesh, {"whole": mesh.bounding_box()})
        # Compiled probes serve every solve and solver on their mesh and
        # record what the specs they were compiled from record.
        reference = TransientSolver(mesh, boundaries).solve(
            schedule, dt_s=0.5, probes={"whole": mesh.bounding_box()}
        )
        for _ in range(2):
            result = TransientSolver(mesh, boundaries).solve(
                schedule, dt_s=0.5, probes=compiled
            )
            np.testing.assert_array_equal(
                result.probe("whole").temperatures_c,
                reference.probe("whole").temperatures_c,
            )
        other_mesh, other_boundaries, _, _ = slab_problem()
        with pytest.raises(SolverError, match="another mesh"):
            TransientSolver(other_mesh, other_boundaries).solve(
                schedule, dt_s=0.5, probes=compiled
            )

    def test_diagnostics_summary_names_method(self):
        mesh, boundaries, source, _ = slab_problem()
        schedule = SourceSchedule([ScheduleSegment(1.0, (source,))])
        be = TransientSolver(mesh, boundaries).solve(schedule, dt_s=0.5)
        cn = TransientSolver(mesh, boundaries, theta=0.5).solve(schedule, dt_s=0.5)
        assert be.diagnostics.method == "backward_euler"
        assert cn.diagnostics.method == "crank_nicolson"
        assert "backward_euler" in be.diagnostics.summary()
