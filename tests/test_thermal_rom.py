"""Tests for the reduced-order transient engine (bases, scopes, fallback)."""

import contextvars
import json
import threading

import numpy as np
import pytest

from repro.errors import SolverError
from repro.geometry import Box, Layer, LayerStack, Rect
from repro.materials import SILICON
from repro.thermal import (
    BasisScope,
    BoundaryConditions,
    FaceCondition,
    HeatSource,
    MeshBuilder,
    ReducedBasis,
    ScheduleSegment,
    SourceSchedule,
    TransientSolver,
    basis_content_key,
    basis_scope,
    build_basis,
    rom,
    transient,
)


def slab_problem(side_mm=5.0, thickness_um=400.0, cells_um=1000.0):
    footprint = Rect.from_size_mm(0.0, 0.0, side_mm, side_mm)
    stack = LayerStack(footprint)
    stack.add_layer(Layer(name="bulk", thickness=thickness_um * 1e-6, material=SILICON))
    mesh = MeshBuilder(stack, base_cell_size_um=cells_um, vertical_target_um=100.0).build()
    boundaries = BoundaryConditions()
    boundaries.set_face("z_max", FaceCondition.convective(25.0, 1500.0))
    source = HeatSource.from_rect("sheet", footprint, 0.0, 10e-6, 5.0)
    corner = HeatSource.from_rect(
        "corner", Rect.from_size_mm(0.0, 0.0, 1.0, 1.0), 0.0, 10e-6, 3.0
    )
    return mesh, boundaries, source, corner


def smooth_schedule(source, corner):
    """Three segments of distinct load and duration: a well-behaved trace."""
    return SourceSchedule(
        [
            ScheduleSegment(1.0, (source,)),
            ScheduleSegment(0.8, (corner,)),
            ScheduleSegment(0.6, (source, corner)),
        ]
    )


def fast_schedule(source, corner):
    """Millisecond alternation between two loads: adversarial for a tiny
    basis, whose trajectory POD cannot track the sharp switching."""
    return SourceSchedule(
        [
            ScheduleSegment(0.002, (source,) if index % 2 == 0 else (corner,))
            for index in range(6)
        ]
    )


def orthonormal(n_rows, n_cols, seed=0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n_rows, n_cols)))
    return q[:, :n_cols]


class TestReducedBasis:
    def test_rejects_degenerate_matrices(self):
        with pytest.raises(SolverError, match="non-empty"):
            ReducedBasis(np.zeros((0, 3)), "k")
        with pytest.raises(SolverError, match="non-empty"):
            ReducedBasis(np.zeros(5), "k")
        bad = np.ones((4, 2))
        bad[1, 1] = np.nan
        with pytest.raises(SolverError, match="finite"):
            ReducedBasis(bad, "k")

    def test_payload_round_trip(self):
        basis = ReducedBasis(orthonormal(12, 4), "abc123")
        payload = json.loads(basis.to_payload_json())
        rebuilt = ReducedBasis.from_payload(payload)
        assert rebuilt.key == "abc123"
        assert rebuilt.n_cells == 12 and rebuilt.dim == 4
        np.testing.assert_array_equal(rebuilt.matrix, basis.matrix)

    def test_malformed_payloads_rejected(self):
        good = ReducedBasis(orthonormal(6, 2), "k").to_payload()
        with pytest.raises(SolverError, match="format"):
            ReducedBasis.from_payload({**good, "format": "something-else"})
        with pytest.raises(SolverError, match="version"):
            ReducedBasis.from_payload({**good, "version": 999})
        with pytest.raises(SolverError, match="malformed"):
            ReducedBasis.from_payload({**good, "data": "!!! not base64 !!!"})
        with pytest.raises(SolverError, match="bytes"):
            ReducedBasis.from_payload({**good, "dim": 3})
        missing = dict(good)
        del missing["data"]
        with pytest.raises(SolverError, match="malformed"):
            ReducedBasis.from_payload(missing)


class TestBasisContentKey:
    def test_key_pins_every_input(self):
        capacitance = np.linspace(1.0, 2.0, 8)
        initial = np.full(8, 25.0)
        load = np.ones(8)
        segments = [(4, 0.25, load)]
        reference = basis_content_key("op", capacitance, 1.0, initial, segments)
        assert reference == basis_content_key(
            "op", capacitance.copy(), 1.0, initial.copy(), [(4, 0.25, load.copy())]
        )
        assert reference != basis_content_key("other", capacitance, 1.0, initial, segments)
        assert reference != basis_content_key("op", capacitance, 0.5, initial, segments)
        assert reference != basis_content_key(
            "op", capacitance, 1.0, initial + 1.0, segments
        )
        assert reference != basis_content_key(
            "op", capacitance, 1.0, initial, [(5, 0.25, load)]
        )
        assert reference != basis_content_key(
            "op", capacitance, 1.0, initial, [(4, 0.2, load)]
        )
        assert reference != basis_content_key(
            "op", capacitance, 1.0, initial, [(4, 0.25, 2.0 * load)]
        )


class TestBuildBasis:
    def test_all_zero_snapshots_rejected(self):
        with pytest.raises(SolverError, match="all-zero"):
            build_basis("k", np.zeros((6, 3)))

    def test_dim_cap_and_orthonormality(self, monkeypatch):
        monkeypatch.setattr(rom, "MAX_DIM", 3)
        rng = np.random.default_rng(7)
        trajectory = rng.standard_normal((20, 10))
        basis = build_basis("k", trajectory)
        assert basis.dim == 3
        np.testing.assert_allclose(
            basis.matrix.T @ basis.matrix, np.eye(3), atol=1e-12
        )

    def test_steady_states_are_spanned(self):
        rng = np.random.default_rng(11)
        trajectory = rng.standard_normal((16, 4))
        steady = rng.standard_normal((16, 2))
        basis = build_basis("k", trajectory, steady_states=steady)
        projected = basis.matrix @ (basis.matrix.T @ steady)
        np.testing.assert_allclose(projected, steady, atol=1e-9)


class TestBasisScope:
    def test_payload_round_trip(self):
        bases = [
            ReducedBasis(orthonormal(10, 3, seed=1), "key-b"),
            ReducedBasis(orthonormal(10, 2, seed=2), "key-a"),
        ]
        scope = BasisScope(bases)
        payloads = scope.payloads()
        assert [json.loads(text)["key"] for text in payloads] == ["key-a", "key-b"]
        rebuilt = BasisScope.from_payloads(payloads)
        assert not rebuilt.collect
        assert sorted(rebuilt.bases) == ["key-a", "key-b"]
        np.testing.assert_array_equal(
            rebuilt.bases["key-b"].matrix, scope.bases["key-b"].matrix
        )
        assert rebuilt.payloads() == payloads

    def test_scope_ends_with_its_block(self):
        outer, inner = BasisScope(), BasisScope()
        assert rom.active_scope() is None
        with basis_scope(outer):
            with basis_scope(inner):
                assert rom.active_scope() is inner
            with basis_scope(None):
                assert rom.active_scope() is None
            assert rom.active_scope() is outer
        assert rom.active_scope() is None

    def test_scope_reaches_a_thread_in_a_copied_context(self):
        seen = []
        with basis_scope(BasisScope()) as scope:
            thread = threading.Thread(
                target=contextvars.copy_context().run,
                args=(lambda: seen.append(rom.active_scope()),),
            )
            thread.start()
            thread.join()
        assert seen == [scope]


class TestRomSolve:
    def test_build_solve_is_lu_exact_and_harvestable(self):
        mesh, boundaries, source, corner = slab_problem()
        schedule = smooth_schedule(source, corner)
        probes = {"whole": mesh.bounding_box()}
        reference = TransientSolver(mesh, boundaries).solve(
            schedule, dt_s=0.2, probes=probes, snapshot_times_s=[0.5]
        )
        with basis_scope(BasisScope(collect=True)) as scope:
            built = TransientSolver(mesh, boundaries).solve(
                schedule, dt_s=0.2, probes=probes, snapshot_times_s=[0.5]
            )
        # The build solve runs the exact LU path and harvests its trajectory
        # into the scope: byte-identical numbers.
        assert built.diagnostics.solver_method == "lu"
        assert not built.diagnostics.rom_fallback
        np.testing.assert_array_equal(
            built.probe("whole").temperatures_c,
            reference.probe("whole").temperatures_c,
        )
        np.testing.assert_array_equal(
            built.final_map.temperatures_c, reference.final_map.temperatures_c
        )
        payloads = scope.payloads()
        assert len(payloads) == 1
        harvested = ReducedBasis.from_payload(json.loads(payloads[0]))
        assert 0 < harvested.dim <= rom.MAX_DIM
        assert harvested.n_cells == mesh.n_cells

    def test_replay_stays_inside_golden_bands(self):
        mesh, boundaries, source, corner = slab_problem()
        schedule = smooth_schedule(source, corner)
        probes = {"whole": mesh.bounding_box()}
        solver = TransientSolver(mesh, boundaries)
        reference = TransientSolver(mesh, boundaries).solve(
            schedule, dt_s=0.2, probes=probes, snapshot_times_s=[0.5]
        )
        with basis_scope(BasisScope(collect=True)) as scope:
            solver.solve(schedule, dt_s=0.2, probes=probes)
            replay = solver.solve(
                schedule, dt_s=0.2, probes=probes, snapshot_times_s=[0.5]
            )
        assert len(scope.bases) == 1
        assert replay.diagnostics.solver_method == "rom"
        assert replay.diagnostics.rom_dim == next(iter(scope.bases.values())).dim
        assert 0.0 < replay.diagnostics.rom_residual < rom.RESIDUAL_TOL
        # The golden temperature band is rtol 1e-5 / atol 1e-6; an adequate
        # own-trajectory basis reproduces probes orders of magnitude tighter.
        np.testing.assert_allclose(
            replay.probe("whole").temperatures_c,
            reference.probe("whole").temperatures_c,
            rtol=1e-5,
            atol=1e-6,
        )
        np.testing.assert_allclose(
            replay.final_map.temperatures_c,
            reference.final_map.temperatures_c,
            rtol=1e-5,
            atol=1e-6,
        )
        assert len(replay.snapshots) == len(reference.snapshots) == 1
        np.testing.assert_allclose(
            replay.snapshots[0].thermal_map.temperatures_c,
            reference.snapshots[0].thermal_map.temperatures_c,
            rtol=1e-5,
            atol=1e-6,
        )

    def test_basis_serves_different_instrumentation(self):
        # Probes and snapshot times are excluded from the basis key: one
        # basis replays any instrumentation of the same physical problem.
        mesh, boundaries, source, corner = slab_problem()
        schedule = smooth_schedule(source, corner)
        solver = TransientSolver(mesh, boundaries)
        with basis_scope(BasisScope(collect=True)):
            solver.solve(schedule, dt_s=0.2)
            replay = solver.solve(
                schedule,
                dt_s=0.2,
                probes={"corner": Box.from_rect(Rect.from_size_mm(0.0, 0.0, 1.0, 1.0), 0.0, 10e-6)},
                snapshot_times_s=[1.2],
            )
        assert replay.diagnostics.solver_method == "rom"

    def test_replay_scope_never_builds_and_replays_its_bases(self):
        mesh, boundaries, source, corner = slab_problem()
        schedule = smooth_schedule(source, corner)
        empty = BasisScope()
        with basis_scope(empty):
            cold = TransientSolver(mesh, boundaries).solve(schedule, dt_s=0.2)
        assert cold.diagnostics.solver_method == "lu"
        assert not empty.bases

        with basis_scope(BasisScope(collect=True)) as built:
            TransientSolver(mesh, boundaries).solve(schedule, dt_s=0.2)
        with basis_scope(BasisScope.from_payloads(built.payloads())):
            warmed = TransientSolver(mesh, boundaries).solve(schedule, dt_s=0.2)
        assert warmed.diagnostics.solver_method == "rom"
        # Out of scope again: the full-space path, bit for bit.
        after = TransientSolver(mesh, boundaries).solve(schedule, dt_s=0.2)
        assert after.diagnostics.solver_method == "lu"
        np.testing.assert_array_equal(
            after.final_map.temperatures_c, cold.final_map.temperatures_c
        )

    def test_no_scope_skips_basis_keying(self, monkeypatch):
        mesh, boundaries, source, corner = slab_problem()

        def refuse(*args, **kwargs):
            raise AssertionError("a solve with no scope keyed a basis")

        monkeypatch.setattr(transient, "basis_content_key", refuse)
        result = TransientSolver(mesh, boundaries).solve(
            smooth_schedule(source, corner), dt_s=0.2
        )
        assert result.diagnostics.solver_method == "lu"
        assert result.diagnostics.rom_dim == 0

    def test_residual_breach_falls_back_to_lu(self, monkeypatch):
        monkeypatch.setattr(rom, "MAX_DIM", 2)
        mesh, boundaries, source, corner = slab_problem()
        schedule = fast_schedule(source, corner)
        reference = TransientSolver(mesh, boundaries).solve(schedule, dt_s=0.001)
        solver = TransientSolver(mesh, boundaries)
        with basis_scope(BasisScope(collect=True)) as scope:
            solver.solve(schedule, dt_s=0.001)
            fallback = solver.solve(schedule, dt_s=0.001)
        assert fallback.diagnostics.solver_method == "lu"
        assert fallback.diagnostics.rom_fallback
        assert fallback.diagnostics.rom_dim == 2
        assert len(scope.bases) == 1
        np.testing.assert_array_equal(
            fallback.final_map.temperatures_c, reference.final_map.temperatures_c
        )
