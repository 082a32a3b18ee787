"""Tests for the finite-volume assembly, the steady-state solver and its
validation against analytic conduction problems."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.geometry import Layer, LayerStack, Rect
from repro.materials import COPPER, SILICON
from repro.thermal import (
    BoundaryConditions,
    FaceCondition,
    HeatSource,
    MeshBuilder,
    SteadyStateSolver,
    assemble_operator,
    boundary_rhs,
    boundary_signature,
    clear_factorization_cache,
    factorization_cache_stats,
    power_density_field,
)
from repro.thermal.validation import (
    fixed_temperature_gradient_case,
    two_layer_slab_case,
    uniform_slab_case,
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


class TestAssembly:
    def test_matrix_is_symmetric(self):
        mesh, boundaries, source, _ = slab_problem()
        operator = assemble_operator(mesh, boundaries)
        difference = operator.matrix - operator.matrix.T
        assert abs(difference).max() < 1e-9

    def test_all_adiabatic_rejected(self):
        mesh, _, _, _ = slab_problem()
        with pytest.raises(SolverError, match="singular"):
            assemble_operator(mesh, BoundaryConditions())

    def test_boundary_signature_distinguishes_structures(self):
        convective = BoundaryConditions.package_default(25.0, 1000.0)
        dirichlet = BoundaryConditions()
        dirichlet.set_face("z_max", FaceCondition.fixed_temperature(25.0))
        assert boundary_signature(convective) != boundary_signature(dirichlet)

    def test_boundary_rhs_requires_same_structure(self):
        mesh, boundaries, _, _ = slab_problem()
        operator = assemble_operator(mesh, boundaries)
        other = BoundaryConditions()
        other.set_face("z_max", FaceCondition.fixed_temperature(10.0))
        with pytest.raises(SolverError, match="structurally different"):
            boundary_rhs(operator, other)

    def test_boundary_rhs_scales_with_ambient(self):
        mesh, boundaries, _, _ = slab_problem()
        operator = assemble_operator(mesh, boundaries)
        hot = BoundaryConditions()
        hot.set_face("z_max", FaceCondition.convective(50.0, 1500.0))
        rhs_cold = boundary_rhs(operator, boundaries)
        rhs_hot = boundary_rhs(operator, hot)
        assert rhs_hot.sum() == pytest.approx(rhs_cold.sum() * 2.0, rel=1e-9)

    def test_assembled_system_solution_matches_solver(self):
        mesh, boundaries, source, _ = slab_problem()
        power = power_density_field(mesh, [source])
        operator = assemble_operator(mesh, boundaries)
        rhs = power.ravel() + boundary_rhs(operator, boundaries)
        from scipy.sparse.linalg import spsolve

        direct = spsolve(operator.matrix, rhs)
        solver = SteadyStateSolver(mesh, boundaries)
        thermal_map = solver.solve([source])
        assert np.allclose(direct.reshape(mesh.shape), thermal_map.temperatures_c, atol=1e-8)


class TestSteadyStateSolver:
    def test_energy_balance_through_convective_face(self):
        mesh, boundaries, source, footprint = slab_problem()
        solver = SteadyStateSolver(mesh, boundaries)
        thermal_map = solver.solve([source])
        # Heat leaving through the top face must equal the injected power.
        top = thermal_map.temperatures_c[:, :, -1]
        areas = np.outer(mesh.dx, mesh.dy)
        half_resistance = mesh.dz[-1] / (2.0 * mesh.k_vertical[:, :, -1])
        conductance = 1.0 / (half_resistance / areas + 1.0 / (1500.0 * areas))
        outflow = (conductance * (top - 25.0)).sum()
        assert outflow == pytest.approx(source.power_w, rel=1e-6)

    def test_temperatures_above_ambient_with_positive_power(self):
        mesh, boundaries, source, _ = slab_problem()
        thermal_map = SteadyStateSolver(mesh, boundaries).solve([source])
        assert thermal_map.global_min() >= 25.0 - 1e-9

    def test_zero_power_gives_ambient_everywhere(self):
        mesh, boundaries, _, _ = slab_problem()
        thermal_map = SteadyStateSolver(mesh, boundaries).solve([])
        assert thermal_map.global_max() == pytest.approx(25.0, abs=1e-6)
        assert thermal_map.global_min() == pytest.approx(25.0, abs=1e-6)

    def test_superposition_of_sources(self):
        # Steady conduction is linear: solving both sources equals the sum of
        # the individual temperature rises.
        mesh, boundaries, _, footprint = slab_problem()
        first = HeatSource.from_rect("a", Rect.from_size_mm(0.5, 0.5, 1.0, 1.0), 0.0, 50e-6, 2.0)
        second = HeatSource.from_rect("b", Rect.from_size_mm(3.0, 3.0, 1.0, 1.0), 0.0, 50e-6, 3.0)
        solver = SteadyStateSolver(mesh, boundaries)
        both = solver.solve([first, second]).temperatures_c
        only_first = solver.solve([first]).temperatures_c
        only_second = solver.solve([second]).temperatures_c
        ambient = 25.0
        assert np.allclose(
            both - ambient, (only_first - ambient) + (only_second - ambient), atol=1e-6
        )

    def test_doubling_power_doubles_rise(self):
        mesh, boundaries, source, _ = slab_problem()
        solver = SteadyStateSolver(mesh, boundaries)
        single = solver.solve([source]).temperatures_c - 25.0
        double = solver.solve([source.scaled(2.0)]).temperatures_c - 25.0
        assert np.allclose(double, 2.0 * single, rtol=1e-9, atol=1e-9)

    def test_factorization_is_reused_across_solves(self):
        mesh, boundaries, source, _ = slab_problem()
        clear_factorization_cache()
        solver = SteadyStateSolver(mesh, boundaries)
        solver.solve([source])
        assert solver.last_diagnostics.factorization_reused is False
        solver.solve([source.scaled(0.5)])
        assert solver.last_diagnostics.factorization_reused is True

    def test_same_boundary_structure_shares_factor(self):
        # Only the ambient changes: same operator, so a second solver is
        # served the first one's factor and solves for the new ambient.
        mesh, boundaries, source, _ = slab_problem()
        clear_factorization_cache()
        SteadyStateSolver(mesh, boundaries).solve([source])
        hotter = BoundaryConditions()
        hotter.set_face("z_max", FaceCondition.convective(40.0, 1500.0))
        solver = SteadyStateSolver(mesh, hotter)
        thermal_map = solver.solve([source])
        assert solver.last_diagnostics.factorization_reused is True
        assert factorization_cache_stats()["entries"] == 1
        assert thermal_map.global_min() >= 40.0 - 1e-9

    def test_new_boundary_structure_builds_new_factor(self):
        mesh, boundaries, source, _ = slab_problem()
        clear_factorization_cache()
        SteadyStateSolver(mesh, boundaries).solve([source])
        dirichlet = BoundaryConditions()
        dirichlet.set_face("z_max", FaceCondition.fixed_temperature(30.0))
        solver = SteadyStateSolver(mesh, dirichlet)
        thermal_map = solver.solve([source])
        assert solver.last_diagnostics.factorization_reused is False
        assert factorization_cache_stats()["entries"] == 2
        assert thermal_map.global_min() >= 30.0 - 1e-6

    def test_diagnostics_summary(self):
        mesh, boundaries, source, _ = slab_problem()
        solver = SteadyStateSolver(mesh, boundaries)
        solver.solve([source])
        summary = solver.last_diagnostics.summary()
        assert "direct" in summary
        assert "5.000 W" in summary

    def test_invalid_constructor_arguments(self):
        mesh, boundaries, _, _ = slab_problem()
        with pytest.raises(SolverError):
            SteadyStateSolver(mesh, boundaries, direct_cell_limit=0)
        with pytest.raises(SolverError):
            SteadyStateSolver(mesh, boundaries, rtol=0.0)


class TestSolveMany:
    def source_sets(self, footprint):
        first = HeatSource.from_rect("a", Rect.from_size_mm(0.5, 0.5, 1.0, 1.0), 0.0, 50e-6, 2.0)
        second = HeatSource.from_rect("b", Rect.from_size_mm(3.0, 3.0, 1.0, 1.0), 0.0, 50e-6, 3.0)
        sheet = HeatSource.from_rect("sheet", footprint, 0.0, 10e-6, 5.0)
        return [[first], [second], [first, second], [sheet]]

    def test_batch_matches_sequential_solves(self):
        mesh, boundaries, _, footprint = slab_problem()
        sets = self.source_sets(footprint)
        sequential = [
            SteadyStateSolver(mesh, boundaries).solve(sources).temperatures_c
            for sources in sets
        ]
        batch = SteadyStateSolver(mesh, boundaries).solve_many(sets)
        assert len(batch) == len(sets)
        for expected, thermal_map in zip(sequential, batch):
            assert np.allclose(thermal_map.temperatures_c, expected, atol=1e-9)

    def test_factorises_exactly_once(self, monkeypatch):
        import repro.thermal.factorization as factorization_module

        mesh, boundaries, _, footprint = slab_problem()
        calls = []
        original = factorization_module.BandedCholesky

        def counting_factor(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(factorization_module, "BandedCholesky", counting_factor)
        factorization_module.clear_factorization_cache()
        solver = SteadyStateSolver(mesh, boundaries)
        solver.solve_many(self.source_sets(footprint))
        assert len(calls) == 1
        # A second solver assembling the identical system is served by the
        # shared content-keyed cache: still exactly one factorisation.
        SteadyStateSolver(mesh, boundaries).solve_many(self.source_sets(footprint))
        assert len(calls) == 1

    def test_diagnostics_per_column(self):
        mesh, boundaries, _, footprint = slab_problem()
        clear_factorization_cache()
        solver = SteadyStateSolver(mesh, boundaries)
        sets = self.source_sets(footprint)
        batch = solver.solve_many(sets)
        assert len(batch.diagnostics) == len(sets)
        expected_powers = [2.0, 3.0, 5.0, 5.0]
        for column, (diag, power) in enumerate(zip(batch.diagnostics, expected_powers)):
            assert diag.method == "direct"
            assert diag.total_power_w == pytest.approx(power, rel=1e-9)
            assert diag.residual_norm < 1e-6
            assert diag.factorization_reused is (column > 0)
            assert diag.max_temperature_c == pytest.approx(
                batch.maps[column].global_max(), abs=1e-12
            )
        # A second batch reuses the factorisation from the first one.
        again = solver.solve_many(sets[:1])
        assert again.diagnostics[0].factorization_reused is True

    def test_empty_batch(self):
        mesh, boundaries, _, _ = slab_problem()
        batch = SteadyStateSolver(mesh, boundaries).solve_many([])
        assert len(batch) == 0 and batch.diagnostics == []

    def test_iterative_fallback_matches_direct(self):
        mesh, boundaries, _, footprint = slab_problem()
        sets = self.source_sets(footprint)
        direct = SteadyStateSolver(mesh, boundaries).solve_many(sets)
        iterative_solver = SteadyStateSolver(mesh, boundaries, direct_cell_limit=1)
        iterative = iterative_solver.solve_many(sets)
        for diag in iterative.diagnostics:
            assert diag.method == "jacobi_cg"
        for direct_map, iterative_map in zip(direct.maps, iterative.maps):
            assert np.allclose(
                iterative_map.temperatures_c, direct_map.temperatures_c, atol=1e-4
            )

    def test_iterative_fallback_matches_direct_on_case_study_operator(self):
        # The 18,445-cell Section V package operator: a layered stack whose
        # conductances span orders of magnitude.  The preconditioner must be
        # symmetric positive definite for CG to converge on it.
        from repro.scenarios import ScenarioRunner, default_registry

        runner = ScenarioRunner(default_registry().get("scc_case_study"))
        flow = runner.flow()
        mesh = flow._mesh()
        boundaries = flow.architecture.boundary_conditions()
        sources = flow.heat_sources(runner.activity(), runner.power_config())
        direct = SteadyStateSolver(mesh, boundaries).solve(sources)
        solver = SteadyStateSolver(mesh, boundaries, direct_cell_limit=1)
        iterative = solver.solve(sources)
        assert solver.last_diagnostics.method == "jacobi_cg"
        assert np.abs(
            iterative.temperatures_c - direct.temperatures_c
        ).max() < 1e-5

    def test_iterative_path_builds_no_factorization(self):
        # The Jacobi preconditioner is recomputed per call; the shared cache
        # serves only the operator and never builds a factor for it.
        mesh, boundaries, source, _ = slab_problem()
        clear_factorization_cache()
        built = factorization_cache_stats()["built"]
        solver = SteadyStateSolver(mesh, boundaries, direct_cell_limit=1)
        for _ in range(2):
            solver.solve([source])
            diagnostics = solver.last_diagnostics
            assert diagnostics.method == "jacobi_cg"
            assert diagnostics.factorization_reused is False
        assert factorization_cache_stats()["built"] == built
        assert factorization_cache_stats()["entries"] == 1

    def test_iterative_non_convergence_raises(self, monkeypatch):
        import repro.thermal.solver as solver_module

        mesh, boundaries, source, _ = slab_problem()
        solver = SteadyStateSolver(mesh, boundaries, direct_cell_limit=1)

        # An exhausted iteration budget (scipy reports it as info > 0) must
        # surface as a SolverError, not as silently wrong temperatures.
        def exhausted_cg(matrix, rhs, **kwargs):
            return np.zeros_like(rhs), 20_000

        monkeypatch.setattr(solver_module, "cg", exhausted_cg)
        with pytest.raises(SolverError, match="failed to converge"):
            solver.solve([source])

    def test_solve_delegates_to_batch_path(self):
        mesh, boundaries, source, _ = slab_problem()
        clear_factorization_cache()
        solver = SteadyStateSolver(mesh, boundaries)
        thermal_map = solver.solve([source])
        assert solver.last_diagnostics.factorization_reused is False
        batch_map = SteadyStateSolver(mesh, boundaries).solve_many([[source]]).maps[0]
        assert np.array_equal(thermal_map.temperatures_c, batch_map.temperatures_c)


class TestAnalyticValidation:
    def test_uniform_slab_matches_analytic(self):
        case = uniform_slab_case()
        assert case.relative_error < 0.02

    def test_two_layer_slab_matches_analytic(self):
        case = two_layer_slab_case()
        assert case.relative_error < 0.02

    def test_linear_profile_between_fixed_temperatures(self):
        quarter, three_quarter = fixed_temperature_gradient_case()
        assert quarter.absolute_error_c < 0.05
        assert three_quarter.absolute_error_c < 0.05

    def test_mesh_refinement_reduces_error(self):
        coarse = uniform_slab_case(cell_size_um=2500.0)
        fine = uniform_slab_case(cell_size_um=500.0)
        assert fine.relative_error <= coarse.relative_error + 1e-6
