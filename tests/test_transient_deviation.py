"""The full-space transient path steps the deviation from its start.

:class:`~repro.thermal.TransientSolver` integrates ``D = T - T0`` with the
forcing ``q + b - K T0``; a steady start uses the first load for ``K T0``
and is solved after the steps, and steps from rest under zero forcing are
skipped.  These tests pin the result against a θ-method written out here,
the exactness of the skipped steps, the memory the solve keeps, that the
transient task of a scenario run steps before the package factor exists,
and that the reduced-order path still lands inside the golden bands.
"""

from __future__ import annotations

import json
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.campaigns import register_golden_representatives
from repro.errors import SolverError
from repro.geometry import Box
from repro.scenarios import (
    ScenarioRegistry,
    ScenarioRunner,
    builtin_scenarios,
    collect_bases,
    compare_artifact_dicts,
    default_registry,
)
from repro.thermal import (
    BoundaryConditions,
    FaceCondition,
    HeatSource,
    Mesh3D,
    SourceSchedule,
    ThermalMap,
    BasisScope,
    TransientSolver,
    basis_content_key,
    basis_scope,
    clear_factorization_cache,
)
from repro.thermal import factorization
from repro.thermal import transient as transient_module
from repro.thermal.assembly import assemble_operator, boundary_rhs
from repro.thermal.factorization import BandedCholesky, shared_cache
from repro.thermal.sources import SourceBatch, power_density_field

GOLDEN_DIR = Path(__file__).parent / "golden"
SPEC = default_registry().get("small_die_uniform")


@pytest.fixture(autouse=True)
def cold_cache():
    clear_factorization_cache()
    yield
    clear_factorization_cache()


def extent(mesh):
    """The far corner of ``mesh`` [m]."""
    return mesh.x_ticks[-1], mesh.y_ticks[-1], mesh.z_ticks[-1]


def half_box(mesh):
    """The box from the origin to the middle of ``mesh``."""
    return Box(0.0, 0.0, 0.0, *(np.array(extent(mesh)) / 2))


def random_problem(seed, shape=(5, 4, 3)):
    """A seeded random mesh (ticks, conductivities, heat capacities) with
    convective top and bottom faces, and three random sources."""
    rng = np.random.default_rng(seed)
    nx, ny, nz = shape

    def ticks(count, scale):
        return np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, count) * scale)])

    x, y, z = ticks(nx, 1.0e-3), ticks(ny, 1.0e-3), ticks(nz, 1.0e-4)
    mesh = Mesh3D(
        x,
        y,
        z,
        rng.uniform(1.0, 150.0, shape),
        rng.uniform(1.0, 150.0, shape),
        rng.uniform(1.0e6, 2.0e6, shape),
    )
    boundaries = BoundaryConditions()
    boundaries.set_face("z_max", FaceCondition.convective(25.0, rng.uniform(500, 3000)))
    boundaries.set_face("z_min", FaceCondition.convective(35.0, rng.uniform(10, 100)))
    sources = []
    for index in range(3):
        low = rng.uniform(0.0, 0.5, 3) * (x[-1], y[-1], z[-1])
        high = low + rng.uniform(0.2, 0.5, 3) * (x[-1], y[-1], z[-1])
        sources.append(HeatSource(f"s{index}", Box(*low, *high), rng.uniform(0.1, 2.0)))
    return mesh, boundaries, sources


def repeating_schedule(sources):
    """Segments that repeat the first load (at another step size), change
    it, return to it and switch every source off."""
    a, b = sources[:2], sources[1:]
    schedule = SourceSchedule()
    for duration, batch in ((1.0, a), (0.5, a), (0.8, b), (1.0, a), (0.7, ())):
        schedule.add_segment(duration, batch)
    return schedule


def reference_theta_method(mesh, boundaries, schedule, dt_s, theta, start):
    """Every state of the θ-method on ``T`` itself, with dense solves."""
    operator = assemble_operator(mesh, boundaries)
    stiffness = operator.matrix.toarray()
    boundary = boundary_rhs(operator, boundaries)
    capacitance = mesh.capacitance_vector()
    loads = [
        power_density_field(mesh, SourceBatch.of(segment.sources)).ravel() + boundary
        for segment in schedule
    ]
    if isinstance(start, str):
        temperatures = np.linalg.solve(stiffness, loads[0])
    else:
        temperatures = np.broadcast_to(np.asarray(start, dtype=float).ravel(), capacitance.shape)
    states = [temperatures]
    for segment, load in zip(schedule, loads):
        count = max(1, int(np.ceil(segment.duration_s / dt_s - 1.0e-9)))
        dt = segment.duration_s / count
        implicit = np.diag(capacitance / dt) + theta * stiffness
        explicit = np.diag(capacitance / dt) - (1.0 - theta) * stiffness
        for _ in range(count):
            temperatures = np.linalg.solve(implicit, explicit @ temperatures + load)
            states.append(temperatures)
    return np.array(states)


def start_value(kind, mesh, seed):
    if kind == "steady":
        return "steady"
    if kind == "ambient":
        return None
    if kind == "float":
        return 41.5
    field = np.random.default_rng(seed).uniform(20.0, 60.0, mesh.shape)
    return field if kind == "array" else ThermalMap(mesh, field)


class TestAgainstTheThetaMethod:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("theta", [1.0, 0.5])
    @pytest.mark.parametrize("start", ["steady", "ambient", "float", "array", "map"])
    def test_every_state_matches_within_a_nanokelvin(self, seed, theta, start):
        mesh, boundaries, sources = random_problem(seed)
        schedule = repeating_schedule(sources)
        dt_s = 0.25
        initial = start_value(start, mesh, seed)
        expected_start = (
            np.mean([25.0, 35.0]) if initial is None
            else initial.temperatures_c if isinstance(initial, ThermalMap)
            else initial
        )
        states = reference_theta_method(
            mesh, boundaries, schedule, dt_s, theta, expected_start
        )
        solver = TransientSolver(mesh, boundaries, theta=theta)
        # Snapshots at every step: the solver snaps each target to the end
        # of the first step at or after it, so ask for the step times.
        plan = solver._segment_steps(schedule, dt_s)
        times = np.concatenate(
            [[0.0], np.cumsum([dt for _, count, dt in plan for _ in range(count)])]
        )
        result = solver.solve(
            schedule,
            dt_s,
            initial_temperature_c=initial,
            snapshot_times_s=times * (1.0 - 1.0e-13),
            probes={"all": Box(0.0, 0.0, 0.0, *extent(mesh))},
        )
        fields = np.array([s.thermal_map.temperatures_c.ravel() for s in result.snapshots])
        assert fields.shape == states.shape
        np.testing.assert_allclose(fields, states, rtol=0.0, atol=1.0e-9)
        np.testing.assert_allclose(
            result.final_map.temperatures_c.ravel(), states[-1], rtol=0.0, atol=1.0e-9
        )
        volumes = mesh.cell_volumes().ravel()
        np.testing.assert_allclose(
            result.probe("all").temperatures_c,
            states @ volumes / volumes.sum(),
            rtol=0.0,
            atol=1.0e-9,
        )


def _count_solves(monkeypatch):
    """Factors of every :meth:`BandedCholesky.solve`, in call order."""
    calls = []
    solve = BandedCholesky.solve

    def counting(factor, rhs):
        calls.append(factor)
        return solve(factor, rhs)

    monkeypatch.setattr(BandedCholesky, "solve", counting)
    return calls


class TestSteadyStart:
    @pytest.mark.parametrize("theta", [1.0, 0.5])
    def test_the_first_segment_equals_the_start_bit_for_bit(self, theta, monkeypatch):
        mesh, boundaries, sources = random_problem(7)
        schedule = repeating_schedule(sources)
        solver = TransientSolver(mesh, boundaries, theta=theta)
        plan = solver._segment_steps(schedule, 0.25)
        # The second segment repeats the first load from rest, so it too is
        # exactly the start.
        resting = plan[0][1] + plan[1][1]
        calls = _count_solves(monkeypatch)
        result = solver.solve(
            schedule,
            0.25,
            initial_temperature_c="steady",
            snapshot_times_s=[0.0, 0.5, 1.5],
            probes={"corner": half_box(mesh)},
        )
        assert len(calls) == result.diagnostics.steps - resting + 1
        series = result.probe("corner").temperatures_c
        assert series[: resting + 1].tobytes() == np.full(resting + 1, series[0]).tobytes()
        assert series[resting + 1] != series[0]
        start, *rest = (snap.thermal_map.temperatures_c for snap in result.snapshots)
        for field in rest:
            assert field.tobytes() == start.tobytes()

    def test_only_the_steps_after_the_first_segment_are_solved(self, monkeypatch):
        mesh, boundaries, sources = random_problem(3)
        schedule = SourceSchedule()
        schedule.add_segment(1.0, sources)
        schedule.add_segment(1.0, sources[:1])
        solver = TransientSolver(mesh, boundaries)
        calls = _count_solves(monkeypatch)
        result = solver.solve(schedule, 0.25, initial_temperature_c="steady")
        # Four steps after the first segment, plus the steady start.
        assert result.diagnostics.steps == 8
        assert len(calls) == 4 + 1

    def test_an_unknown_string_start_is_rejected(self):
        mesh, boundaries, sources = random_problem(0)
        schedule = repeating_schedule(sources)
        with pytest.raises(SolverError, match="'steady'"):
            TransientSolver(mesh, boundaries).solve(
                schedule, 0.25, initial_temperature_c="ambient"
            )


class TestMemory:
    def test_a_long_solve_keeps_no_field_per_step(self):
        mesh, boundaries, sources = random_problem(5, shape=(16, 16, 8))
        schedule = SourceSchedule()
        schedule.add_segment(1.0, sources)
        schedule.add_segment(1.0, sources[:1])
        solver = TransientSolver(mesh, boundaries)
        probes = {"corner": half_box(mesh)}
        # Build the steppers and the package factor outside the measurement.
        solver.solve(schedule, 0.01, initial_temperature_c="steady", probes=probes)
        field_bytes = mesh.n_cells * 8
        tracemalloc.start()
        try:
            result = solver.solve(
                schedule, 0.01, initial_temperature_c="steady", probes=probes
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.diagnostics.steps == 200
        # About ten fields live at once (loads, forcing, the step's
        # right-hand side and solution, start and end); one kept per step
        # would be 200 more.
        assert peak < 16 * field_bytes


class TestConcurrentTask:
    def test_the_transient_task_steps_before_the_package_factor_is_built(
        self, monkeypatch
    ):
        runner = ScenarioRunner(SPEC)
        flow = runner.flow()
        solver = flow.transient_solver()
        entry = shared_cache.operator(solver.mesh, flow.architecture.boundary_conditions())
        schedule = flow.build_schedule(runner.trace(), runner.power_config())
        plan = solver._segment_steps(schedule, SPEC.trace.dt_s)
        stepped = sum(count for _, count, _ in plan) - plan[0][1]
        assert SPEC.trace.initial == "steady" and stepped > 0

        release = threading.Event()
        events = []

        class HeldPackageFactor(BandedCholesky):
            """The package operator's factor is built once ``release`` is set."""

            def __init__(self, matrix):
                package = matrix is entry.operator.matrix
                if package:
                    release.wait(timeout=120.0)
                super().__init__(matrix)
                if package:
                    events.append("package built")

        solve = BandedCholesky.solve

        def recording(factor, rhs):
            events.append("step")
            return solve(factor, rhs)

        monkeypatch.setattr(factorization, "BandedCholesky", HeldPackageFactor)
        monkeypatch.setattr(BandedCholesky, "solve", recording)
        outcome = {}

        def run():
            try:
                outcome["artifact"] = runner.run()
            except BaseException as error:  # handed to the test thread
                outcome["error"] = error

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        try:
            deadline = time.monotonic() + 60.0
            while events.count("step") < stepped and time.monotonic() < deadline:
                time.sleep(0.01)
            held = list(events)
        finally:
            release.set()
            thread.join(timeout=120.0)
        assert "error" not in outcome, outcome.get("error")
        assert held.count("step") == stepped
        assert "package built" not in held
        assert events.index("package built") >= stepped


GOLDEN_REGISTRY = ScenarioRegistry()
GOLDEN_REGISTRY.register_many(builtin_scenarios())
register_golden_representatives(GOLDEN_REGISTRY)


def _transient(spec):
    return ScenarioRunner(spec).run(("transient",))


def _assert_inside_golden_bands(golden, fresh):
    """``fresh``, a transient section, lies inside ``golden``'s bands."""
    mismatches = compare_artifact_dicts(
        golden, {**golden, "results": {**golden["results"], "transient": fresh}}
    )
    assert not mismatches, mismatches


def _replay_worst_sample_as_golden(golden, replay):
    """Pin the replay's worst SNR sample to the golden's by value only.

    A reduced solve leaves plateaus and symmetric links equal only
    approximately, so which of the tied samples is the worst is not pinned;
    its value is.
    """
    golden_worst = golden["results"]["transient"]["snr"]["worst_sample"]
    replay_worst = replay["snr"].pop("worst_sample")
    assert replay_worst["snr_db"] == pytest.approx(
        golden_worst["snr_db"], rel=1e-4, abs=1e-4
    )
    replay["snr"]["worst_sample"] = golden_worst


class TestReducedOrder:
    @pytest.mark.parametrize("name", ["small_die_uniform", "scc_random_46mm"])
    def test_harvest_and_replay_stay_inside_the_golden_bands(self, name):
        spec = GOLDEN_REGISTRY.get(name)
        assert spec.trace.initial == "steady"
        golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        lu = _transient(spec).results["transient"]
        with basis_scope(BasisScope(collect=True)) as scope:
            harvest = _transient(spec).results["transient"]
        assert len(scope.bases) == 1
        # The harvest integrates in full space, so it is the LU result.
        assert harvest == lu
        with basis_scope(BasisScope.from_payloads(scope.payloads())):
            replay = _transient(spec).results["transient"]
        assert replay["solver"]["method"] == "rom"
        assert not replay["solver"]["rom_fallback"]
        _replay_worst_sample_as_golden(golden, replay)
        for fresh in (harvest, replay):
            _assert_inside_golden_bands(golden, fresh)

    def test_a_steady_start_keys_its_basis_by_its_inputs(self, monkeypatch):
        # A round-off change in the steady solve must not orphan the bases
        # harvested before it: the key tags a steady start instead of
        # hashing the bytes of its solved field.
        name = "small_die_uniform"
        spec = GOLDEN_REGISTRY.get(name)
        golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        bases = collect_bases([spec])
        harvested = set(bases.bases)

        steady_field = TransientSolver._steady_field

        def last_bits_off(solver, entry, load):
            return np.nextafter(steady_field(solver, entry, load), np.inf)

        keys = []

        def recorded_key(*args):
            keys.append(basis_content_key(*args))
            return keys[-1]

        monkeypatch.setattr(TransientSolver, "_steady_field", last_bits_off)
        monkeypatch.setattr(transient_module, "basis_content_key", recorded_key)
        with basis_scope(bases):
            replay = _transient(spec).results["transient"]
        assert keys and set(keys) <= harvested
        assert replay["solver"]["method"] == "rom"
        assert not replay["solver"]["rom_fallback"]
        _replay_worst_sample_as_golden(golden, replay)
        _assert_inside_golden_bands(golden, replay)
