"""Reduced-order transient bench — POD replay versus full-space LU stepping.

The reduced-order engine's performance claim is that once a basis exists for
a problem, integrating a trace costs dense algebra in a ~tens-dimensional
subspace instead of sparse triangular solves on the full mesh — and that the
basis itself is a portable artifact: built once (by ``repro seed-rom`` or a
prior solve), shipped to any fresh process as a warm-start payload, and
replayed there without ever touching the sparse factorisation.

Three executions are timed at paper scale (the 24-ONI / 32.4 mm reference
package, 8-phase migration trace, 64 backward-Euler steps):

* **LU cold**   — fresh solver, empty factorization cache: assembly + one
  sparse LU + 64 pairs of triangular solves (the baseline this repo already
  benches against naive per-step solves in ``test_bench_transient.py``);
* **ROM cold**  — fresh solver, empty factorization cache, basis parsed
  from a warm-start payload and put in scope: the cold path of a
  warm-started campaign worker, which never factorises the full system;
* **ROM warm**  — a second trace on the same solver, reusing the memoised
  reduced steppers: the steady-state cost of sweeping traces over one mesh.

The record is written to ``BENCH_rom.json`` at the repository root; the
acceptance gates — warm-started cold solve at least 5x faster than LU cold,
basis-cached re-solve at least 20x — are asserted here.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from repro.activity import SyntheticTraceGenerator
from repro.casestudy import build_oni_ring_scenario, build_scc_architecture
from repro.config import SimulationSettings
from repro.methodology import ThermalAwareDesignFlow
from repro.oni import OniPowerConfig
from repro.thermal import (
    BasisScope,
    TransientSolver,
    basis_scope,
    clear_factorization_cache,
)

ONI_COUNT = 24
RING_LENGTH_MM = 32.4
PHASES = 8
PHASE_DURATION_S = 2.0
DT_S = 0.25  # 8 steps per phase -> 64 steps in total
BENCH_RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_rom.json"

#: Same resolution as the factorize-once bench: coarse enough that a full
#: campaign of runs fits in a test budget, fine enough that every one of the
#: 24 ONIs is individually resolved (16k+ cells).
ROM_BENCH_SETTINGS = SimulationSettings(
    oni_cell_size_um=800.0,
    die_cell_size_um=4000.0,
    zoom_cell_size_um=15.0,
    ambient_temperature_c=35.0,
)


@pytest.fixture(scope="module")
def rom_flow():
    architecture = build_scc_architecture(settings=ROM_BENCH_SETTINGS)
    scenario = build_oni_ring_scenario(
        architecture, ring_length_mm=RING_LENGTH_MM, oni_count=ONI_COUNT
    )
    return ThermalAwareDesignFlow(architecture, scenario)


@pytest.mark.slow
def test_rom_replay_vs_full_lu(benchmark, rom_flow, bench_record):
    flow = rom_flow
    mesh = flow._mesh()
    boundaries = flow.architecture.boundary_conditions()
    generator = SyntheticTraceGenerator(flow.architecture.floorplan, seed=4)
    trace = generator.migration_trace(
        total_power_w=25.0, phases=PHASES, phase_duration_s=PHASE_DURATION_S
    )
    power = OniPowerConfig(vcsel_power_w=3.6e-3).with_heater_ratio(0.3)
    schedule = flow.build_schedule(trace, power)
    total_steps = int(round(trace.total_duration_s / DT_S))
    assert total_steps >= 64
    probes = {"die": mesh.bounding_box()}

    # Build pass (untimed): one exact solve in a collecting scope harvests
    # the trajectory into a POD basis — the ``repro seed-rom`` producer
    # side of the workflow.
    with basis_scope(BasisScope(collect=True)) as built:
        TransientSolver(mesh, boundaries).solve(schedule, dt_s=DT_S, probes=probes)
    payloads = built.payloads()
    assert len(payloads) == 1

    # LU cold: fresh solver, nothing cached anywhere, no basis in scope.
    clear_factorization_cache()
    lu_solver = TransientSolver(mesh, boundaries)
    start = time.perf_counter()
    lu = lu_solver.solve(schedule, dt_s=DT_S, probes=probes)
    lu_cold_s = time.perf_counter() - start
    assert lu.diagnostics.solver_method == "lu"

    # ROM cold: fresh solver and empty factorization cache again, but the
    # basis payload is in scope — a warm-started campaign worker.  The
    # reduced path never factorises the full system.
    clear_factorization_cache()
    with basis_scope(BasisScope.from_payloads(payloads)):
        rom_solver = TransientSolver(mesh, boundaries)
        start = time.perf_counter()
        rom_cold = rom_solver.solve(schedule, dt_s=DT_S, probes=probes)
        rom_cold_s = time.perf_counter() - start
        assert rom_cold.diagnostics.solver_method == "rom"
        assert not rom_cold.diagnostics.rom_fallback

        # ROM warm: reduced operators and steppers memoised; best of three.
        warm_samples = []
        for _ in range(3):
            start = time.perf_counter()
            rom_warm = rom_solver.solve(schedule, dt_s=DT_S, probes=probes)
            warm_samples.append(time.perf_counter() - start)
        rom_warm_s = min(warm_samples)
        assert rom_warm.diagnostics.solver_method == "rom"
        benchmark.pedantic(
            rom_solver.solve,
            args=(schedule,),
            kwargs={"dt_s": DT_S, "probes": probes},
            rounds=3,
            iterations=1,
        )

    # The replay is a different numerical path, but it must stay inside
    # the golden tolerance bands for temperatures.
    np.testing.assert_allclose(
        rom_cold.final_map.temperatures_c,
        lu.final_map.temperatures_c,
        rtol=1e-5,
        atol=1e-6,
    )
    np.testing.assert_allclose(
        rom_cold.probe("die").temperatures_c,
        lu.probe("die").temperatures_c,
        rtol=1e-5,
        atol=1e-6,
    )

    record = {
        "benchmark": "rom_replay",
        "onis": ONI_COUNT,
        "ring_length_mm": RING_LENGTH_MM,
        "n_cells": lu.diagnostics.n_cells,
        "steps": total_steps,
        "phases": PHASES,
        "dt_s": DT_S,
        "rom_dim": rom_cold.diagnostics.rom_dim,
        "rom_residual": float(rom_cold.diagnostics.rom_residual),
        "lu_cold_s": round(lu_cold_s, 6),
        "rom_cold_s": round(rom_cold_s, 6),
        "rom_warm_s": round(rom_warm_s, 6),
        "speedup_cold": round(lu_cold_s / rom_cold_s, 2),
        "speedup_warm": round(lu_cold_s / rom_warm_s, 2),
    }
    bench_record(BENCH_RECORD_PATH, record)

    print()
    print(
        f"ROM {total_steps}-step trace on {record['n_cells']} cells "
        f"(basis dim {record['rom_dim']}): LU cold {lu_cold_s:.3f} s, "
        f"warm-started ROM cold {rom_cold_s * 1e3:.1f} ms "
        f"({record['speedup_cold']:.1f}x), ROM warm {rom_warm_s * 1e3:.1f} ms "
        f"({record['speedup_warm']:.1f}x)"
    )

    # Acceptance gates: warm-started cold solve >= 5x over full LU cold,
    # basis-cached re-solve >= 20x.
    assert lu_cold_s / rom_cold_s >= 5.0
    assert lu_cold_s / rom_warm_s >= 20.0
