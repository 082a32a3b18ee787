"""Property-style randomized tests: solver invariants on seeded random meshes.

Rather than pinning numbers, these tests assert *structural* properties that
must hold for every well-posed problem the library can express:

* the assembled conductance matrix is symmetric (discrete reciprocity);
* with purely convective boundaries at one ambient and non-negative sources,
  the steady-state temperature never drops below the ambient (discrete
  maximum principle);
* the operator is linear, so temperatures rise monotonically with total
  power and scale exactly with a scaled source field;
* the vectorized SNR engine (``analyze_many``) agrees with the pure-Python
  reference walk (``analyze_scalar``) on randomized ORNoC thermal states.

Each case runs over several seeds; the generators draw every geometric and
material parameter from a seeded :class:`random.Random`, so failures
reproduce exactly.
"""

import json
import random

import numpy as np
import pytest

from repro.scenarios import ScenarioSpec, canonical_json
from repro.geometry import Layer, LayerStack, Rect, grid_floorplan
from repro.materials import BEOL, COPPER, EPOXY, SILICON, THERMAL_INTERFACE
from repro.snr import LaserDriveConfig, OniThermalState
from snr_reference import analyze_scalar
from repro.thermal import (
    BasisScope,
    BoundaryConditions,
    HeatSource,
    MeshBuilder,
    ScheduleSegment,
    SourceSchedule,
    SteadyStateSolver,
    TransientSolver,
    assemble_operator,
    basis_scope,
    rom,
)

MATERIALS = (SILICON, COPPER, EPOXY, BEOL, THERMAL_INTERFACE)


def random_mesh(seed: int):
    """Seeded random package: 2-5 layers on a random die, random resolution."""
    rng = random.Random(seed)
    width_mm = rng.uniform(2.0, 6.0)
    height_mm = rng.uniform(2.0, 6.0)
    die = Rect.from_size_mm(0.0, 0.0, width_mm, height_mm)
    stack = LayerStack(die, name=f"random_stack_{seed}")
    for index in range(rng.randint(2, 5)):
        stack.add_layer(
            Layer(
                name=f"layer_{index}",
                thickness=rng.uniform(50.0, 500.0) * 1.0e-6,
                material=rng.choice(MATERIALS),
            )
        )
    builder = MeshBuilder(
        stack, base_cell_size_um=rng.uniform(500.0, 1500.0), max_cells=500_000
    )
    if rng.random() < 0.5:
        refinement = Rect.from_size_mm(
            width_mm * 0.25, height_mm * 0.25, width_mm * 0.3, height_mm * 0.3
        )
        builder.add_refinement(refinement, rng.uniform(150.0, 400.0))
    return builder.build(), rng


def random_boundaries(rng: random.Random, ambient_c: float) -> BoundaryConditions:
    return BoundaryConditions.package_default(
        ambient_c=ambient_c,
        top_coefficient_w_m2k=rng.uniform(500.0, 5000.0),
        bottom_coefficient_w_m2k=rng.choice([0.0, rng.uniform(5.0, 50.0)]),
    )


def random_sources(rng: random.Random, mesh, count: int):
    """Random positive box sources inside the mesh's bounding box."""
    bounds = mesh.bounding_box()
    sources = []
    for index in range(count):
        x0 = rng.uniform(bounds.x_min, bounds.x_max * 0.7)
        y0 = rng.uniform(bounds.y_min, bounds.y_max * 0.7)
        rect = Rect(
            x0,
            y0,
            min(x0 + rng.uniform(0.2, 1.0) * 1.0e-3, bounds.x_max),
            min(y0 + rng.uniform(0.2, 1.0) * 1.0e-3, bounds.y_max),
        )
        z0 = rng.uniform(bounds.z_min, (bounds.z_min + bounds.z_max) / 2.0)
        z1 = rng.uniform(z0, bounds.z_max)
        sources.append(
            HeatSource.from_rect(
                f"source_{index}", rect, z0, z1, rng.uniform(0.1, 5.0)
            )
        )
    return sources


class TestRandomMeshInvariants:
    @pytest.mark.parametrize("seed", range(6))
    def test_conductance_matrix_is_symmetric(self, seed):
        mesh, rng = random_mesh(seed)
        operator = assemble_operator(mesh, random_boundaries(rng, ambient_c=30.0))
        matrix = operator.matrix
        asymmetry = abs(matrix - matrix.T).max()
        assert asymmetry <= 1.0e-12 * abs(matrix.diagonal()).max()

    @pytest.mark.parametrize("seed", range(6))
    def test_temperature_never_below_ambient(self, seed):
        ambient_c = 25.0 + (seed % 3) * 10.0
        mesh, rng = random_mesh(seed)
        solver = SteadyStateSolver(mesh, random_boundaries(rng, ambient_c))
        thermal_map = solver.solve(random_sources(rng, mesh, rng.randint(1, 3)))
        assert thermal_map.global_min() >= ambient_c - 1.0e-9
        assert thermal_map.global_max() > ambient_c

    @pytest.mark.parametrize("seed", range(4))
    def test_monotonic_and_linear_in_total_power(self, seed):
        ambient_c = 35.0
        mesh, rng = random_mesh(seed + 100)
        solver = SteadyStateSolver(mesh, random_boundaries(rng, ambient_c))
        sources = random_sources(rng, mesh, 2)
        scaled = [source.scaled(2.0) for source in sources]
        base_map, scaled_map = solver.solve_many([sources, scaled]).maps
        base = base_map.temperatures_c
        double = scaled_map.temperatures_c
        # Monotonicity: more power never cools any cell.
        assert np.all(double >= base - 1.0e-9)
        # Linearity: the rise above ambient scales exactly with the sources.
        np.testing.assert_allclose(
            double - ambient_c, 2.0 * (base - ambient_c), rtol=1.0e-8, atol=1.0e-9
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_zero_power_is_uniformly_ambient(self, seed):
        ambient_c = 41.0
        mesh, rng = random_mesh(seed + 200)
        solver = SteadyStateSolver(mesh, random_boundaries(rng, ambient_c))
        thermal_map = solver.solve([])
        np.testing.assert_allclose(
            thermal_map.temperatures_c, ambient_c, rtol=0.0, atol=1.0e-9
        )

    @pytest.mark.parametrize("columns,rows", [(3, 2), (7, 5), (9, 3)])
    def test_grid_floorplan_tiles_fit_awkward_outlines(self, columns, rows):
        # 14 mm / 3 is not representable in binary; the grid must still fit.
        outline = Rect.from_size_mm(0.0, 0.0, 14.0, 11.0)
        floorplan = grid_floorplan(outline, columns=columns, rows=rows)
        assert len(floorplan) == columns * rows
        for instance in floorplan:
            assert outline.contains_rect(instance.rect)


def random_schedule(rng: random.Random, sources) -> SourceSchedule:
    """2-4 segments of random duration, each with a random source subset."""
    segments = []
    for _ in range(rng.randint(2, 4)):
        active = tuple(s for s in sources if rng.random() < 0.7)
        if not active:
            active = (rng.choice(sources),)
        segments.append(ScheduleSegment(rng.uniform(0.3, 1.5), active))
    return SourceSchedule(segments)


class TestRandomRomParity:
    """Reduced-order transient solves on seeded random problems.

    The invariants the reduced path must hold for *any* well-posed problem:
    the basis-building solve is byte-identical to plain LU (it IS the LU
    path plus a harvest), a reduced replay stays inside the golden
    temperature band (rtol 1e-5 / atol 1e-6), and a basis too starved to
    represent the trajectory is rejected by the residual check and replaced
    by the exact LU result, never silently served.
    """

    @pytest.mark.parametrize("seed", range(6))
    def test_rom_replay_within_temperature_bands(self, seed):
        mesh, rng = random_mesh(seed + 300)
        boundaries = random_boundaries(rng, ambient_c=30.0)
        sources = random_sources(rng, mesh, rng.randint(2, 3))
        schedule = random_schedule(rng, sources)
        dt = rng.uniform(0.1, 0.4)
        probes = {"whole": mesh.bounding_box()}
        reference = TransientSolver(mesh, boundaries).solve(
            schedule, dt_s=dt, probes=probes
        )
        solver = TransientSolver(mesh, boundaries)
        with basis_scope(BasisScope(collect=True)) as scope:
            built = solver.solve(schedule, dt_s=dt, probes=probes)
            assert len(scope.bases) == 1
            np.testing.assert_array_equal(
                built.probe("whole").temperatures_c,
                reference.probe("whole").temperatures_c,
            )
            replay = solver.solve(schedule, dt_s=dt, probes=probes)
        assert replay.diagnostics.solver_method == "rom"
        assert replay.diagnostics.rom_residual < rom.RESIDUAL_TOL
        np.testing.assert_allclose(
            replay.probe("whole").temperatures_c,
            reference.probe("whole").temperatures_c,
            rtol=1.0e-5,
            atol=1.0e-6,
        )
        np.testing.assert_allclose(
            replay.final_map.temperatures_c,
            reference.final_map.temperatures_c,
            rtol=1.0e-5,
            atol=1.0e-6,
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_starved_basis_falls_back_to_exact_lu(self, seed, monkeypatch):
        monkeypatch.setattr(rom, "MAX_DIM", 1)
        mesh, rng = random_mesh(seed + 400)
        boundaries = random_boundaries(rng, ambient_c=25.0)
        sources = random_sources(rng, mesh, 2)
        # Millisecond alternation between two loads: a rank-1 basis cannot
        # track the switching, so the residual check must reject the replay.
        schedule = SourceSchedule(
            [
                ScheduleSegment(0.002, (sources[index % 2],))
                for index in range(6)
            ]
        )
        reference = TransientSolver(mesh, boundaries).solve(schedule, dt_s=0.001)
        solver = TransientSolver(mesh, boundaries)
        with basis_scope(BasisScope(collect=True)):
            solver.solve(schedule, dt_s=0.001)
            second = solver.solve(schedule, dt_s=0.001)
        assert second.diagnostics.rom_fallback
        assert second.diagnostics.solver_method == "lu"
        np.testing.assert_array_equal(
            second.final_map.temperatures_c, reference.final_map.temperatures_c
        )


def random_spec(seed: int) -> ScenarioSpec:
    """Seeded random scenario spec touching every section of the schema."""
    rng = random.Random(seed)
    workload_kind = rng.choice(
        ["uniform", "diagonal", "random", "hotspot", "checkerboard", "gradient"]
    )
    data = {
        "name": f"random_spec_{seed}",
        "description": f"randomized spec (seed {seed})",
        "chip": {
            "die_width_mm": rng.uniform(10.0, 30.0),
            "die_height_mm": rng.uniform(8.0, 24.0),
            "tile_columns": rng.randint(1, 8),
            "tile_rows": rng.randint(1, 6),
            "include_infrastructure": rng.random() < 0.5,
        },
        "mesh": {
            "oni_cell_size_um": rng.uniform(200.0, 800.0),
            "die_cell_size_um": rng.uniform(1000.0, 4000.0),
            "zoom_cell_size_um": rng.uniform(20.0, 50.0),
            "ambient_c": rng.uniform(20.0, 50.0),
        },
        "network": {
            "ring_length_mm": rng.uniform(8.0, 50.0),
            "oni_count": rng.randint(2, 32),
            "shift_hops": rng.choice([None, rng.randint(1, 5)]),
        },
        "power": {
            "vcsel_power_mw": rng.uniform(0.5, 8.0),
            "heater_ratio": rng.uniform(0.0, 1.0),
            "drive_power_mw": rng.choice([None, rng.uniform(1.0, 6.0)]),
        },
        "workload": {
            "kind": workload_kind,
            "total_power_w": rng.uniform(5.0, 50.0),
            "seed": rng.randint(0, 1000),
            "infrastructure_fraction": rng.uniform(0.0, 0.9),
            "params": {"hotspot_fraction": rng.uniform(0.1, 0.9)},
        },
        "trace": rng.choice(
            [
                None,
                {
                    "kind": rng.choice(
                        ["migration", "ramp", "random_walk", "two_phase"]
                    ),
                    "phases": rng.randint(2, 8),
                    "phase_duration_s": rng.uniform(0.5, 4.0),
                    "seed": rng.randint(0, 1000),
                    "dt_s": rng.uniform(0.1, 1.0),
                    "initial": rng.choice(
                        ["ambient", "steady", rng.uniform(20.0, 60.0)]
                    ),
                },
            ]
        ),
        "sweep_scales": sorted(
            rng.uniform(0.25, 2.0) for _ in range(rng.randint(1, 5))
        ),
        "snr_floor_db": rng.uniform(5.0, 25.0),
    }
    return ScenarioSpec.from_dict(data)


def shuffle_keys(value, rng: random.Random):
    """Deep copy with every dict's insertion order randomly permuted."""
    if isinstance(value, dict):
        keys = list(value)
        rng.shuffle(keys)
        return {key: shuffle_keys(value[key], rng) for key in keys}
    if isinstance(value, list):
        return [shuffle_keys(item, rng) for item in value]
    return value


class TestRandomSpecRoundTrip:
    """ScenarioSpec serialisation: hash-stable under every JSON detour.

    The content hash is what the golden harness, the bench IDs and the
    on-disk artifact store key on, so it must survive dict key reordering
    (JSON objects are unordered) and float re-serialisation (repr round
    trips) without moving by a single bit.
    """

    @pytest.mark.parametrize("seed", range(12))
    def test_dict_json_dict_round_trip_is_exact(self, seed):
        spec = random_spec(seed)
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.to_dict() == spec.to_dict()
        assert rebuilt.content_hash() == spec.content_hash()

    @pytest.mark.parametrize("seed", range(12))
    def test_hash_stable_under_key_reordering(self, seed):
        spec = random_spec(seed)
        rng = random.Random(seed + 1)
        for _ in range(3):
            shuffled = shuffle_keys(spec.to_dict(), rng)
            # A non-canonical dump (insertion order preserved) genuinely
            # permutes the byte stream...
            dumped = json.dumps(shuffled)
            # ...yet the rebuilt spec hashes identically.
            rebuilt = ScenarioSpec.from_dict(json.loads(dumped))
            assert rebuilt.content_hash() == spec.content_hash()

    @pytest.mark.parametrize("seed", range(12))
    def test_hash_stable_under_float_reserialization(self, seed):
        spec = random_spec(seed)
        text = canonical_json(spec.to_dict())
        for _ in range(3):
            # repr round trip: parse the JSON floats and re-serialise them.
            text = canonical_json(json.loads(text))
        rebuilt = ScenarioSpec.from_dict(json.loads(text))
        assert rebuilt.content_hash() == spec.content_hash()

    @pytest.mark.parametrize("seed", range(6))
    def test_any_leaf_change_moves_the_hash(self, seed):
        spec = random_spec(seed)
        nudged = spec.with_overrides(
            {"workload.total_power_w": spec.workload.total_power_w + 0.125}
        )
        assert nudged.content_hash() != spec.content_hash()
        assert nudged.design_hash() != spec.design_hash()
        renamed = spec.with_overrides({"name": spec.name + "_renamed"})
        assert renamed.content_hash() != spec.content_hash()
        assert renamed.design_hash() == spec.design_hash()


class TestRandomSnrParity:
    """Vectorized vs scalar SNR on randomized thermal states."""

    @pytest.fixture(scope="class")
    def analyzer(self, small_flow):
        return small_flow.snr_analyzer()

    def random_states(self, rng: random.Random, flow):
        states = []
        for oni in flow.scenario.onis:
            average = rng.uniform(40.0, 80.0)
            states.append(
                OniThermalState(
                    name=oni.name,
                    average_temperature_c=average,
                    laser_temperature_c=average + rng.uniform(-2.0, 2.0),
                    microring_temperature_c=average + rng.uniform(-2.0, 2.0),
                )
            )
        return states

    @pytest.mark.parametrize("seed", range(8))
    def test_analyze_many_matches_analyze_scalar(self, seed, small_flow, analyzer):
        rng = random.Random(seed)
        states = self.random_states(rng, small_flow)
        drive = (
            LaserDriveConfig.from_dissipated_mw(rng.uniform(2.0, 6.0))
            if rng.random() < 0.5
            else LaserDriveConfig.from_current_ma(rng.uniform(0.5, 2.0))
        )
        scalar = analyze_scalar(analyzer, states, drive)
        batch = analyzer.analyze_many([states], drive).report(0)
        assert len(scalar.links) == len(batch.links)
        for scalar_link, batch_link in zip(scalar.links, batch.links):
            assert scalar_link.communication.name == batch_link.communication.name
            assert batch_link.snr_db == pytest.approx(
                scalar_link.snr_db, rel=1.0e-6, abs=1.0e-6
            )
            assert batch_link.signal_power_w == pytest.approx(
                scalar_link.signal_power_w, rel=1.0e-6, abs=1.0e-18
            )
            assert batch_link.crosstalk_power_w == pytest.approx(
                scalar_link.crosstalk_power_w, rel=1.0e-6, abs=1.0e-18
            )

    @pytest.mark.parametrize("seed", [17, 23])
    def test_batched_states_evaluate_independently(self, seed, small_flow, analyzer):
        """A state's result must not depend on its neighbours in the batch."""
        rng = random.Random(seed)
        batch_states = [self.random_states(rng, small_flow) for _ in range(4)]
        drive = LaserDriveConfig.from_dissipated_mw(3.6)
        together = analyzer.analyze_many(batch_states, drive)
        for index, states in enumerate(batch_states):
            alone = analyzer.analyze_many([states], drive)
            np.testing.assert_allclose(
                together.snr_db[index], alone.snr_db[0], rtol=1.0e-12, atol=0.0
            )
