"""Executor timing: cold campaign wall time per execution substrate.

A 60-scenario steady-state matrix (6 VCSEL drives x 10 chip powers over the
small conformance die) runs cold — fresh store, every spec computed — once
per executor: serial and the supervised process executor.  The serial
executor then replays the same campaign warm (fully store-served) to time the
pure orchestration overhead.

Performance gate of the execution-kernel refactor: the ``workers=4`` process
executor must finish the cold matrix at least :data:`MIN_PROCESS_SPEEDUP` x
faster than serial — asserted only on hosts with >= 4 CPUs (a 1-core CI
runner cannot physically parallelise; the timing is still recorded there).

Correctness stays pinned here too: every cold report must equal the serial
report byte for byte.  Records land in ``BENCH_executors.json`` keyed by
``<matrix>@<hash prefix>`` over the expanded spec hashes.
"""

from __future__ import annotations

import hashlib
import os
import time
from pathlib import Path

import pytest

from repro.campaigns import (
    ArtifactStore,
    CampaignRunner,
    MatrixAxis,
    ScenarioMatrix,
)
from repro.scenarios import ScenarioSpec

pytestmark = pytest.mark.slow

BENCH_RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_executors.json"

#: Cold process-executor speedup gate over serial (hosts with >= 4 CPUs only).
MIN_PROCESS_SPEEDUP = 2.0

#: Steady-state only: the per-spec cost stays small enough that the
#: 60-scenario matrix times orchestration, not one giant solve.
PATHS = ("steady",)

MATRIX = ScenarioMatrix(
    name="bench_executors",
    description="60-scenario steady-state matrix for executor timing",
    base=ScenarioSpec.from_dict(
        {
            "name": "bench_executors_base",
            "chip": {
                "die_width_mm": 14.0,
                "die_height_mm": 11.0,
                "tile_columns": 3,
                "tile_rows": 2,
                "include_infrastructure": False,
            },
            "mesh": {
                "oni_cell_size_um": 500.0,
                "die_cell_size_um": 2500.0,
                "zoom_cell_size_um": 40.0,
            },
            "network": {"ring_length_mm": 9.0, "oni_count": 4},
            "workload": {"kind": "uniform", "total_power_w": 8.0},
        }
    ),
    axes=(
        MatrixAxis(
            name="pvcsel",
            path="power.vcsel_power_mw",
            values=(3.0, 3.4, 3.8, 4.2, 4.6, 5.0),
        ),
        MatrixAxis(
            name="pchip",
            path="workload.total_power_w",
            values=(6.0, 6.5, 7.0, 7.5, 8.0, 8.5, 9.0, 9.5, 10.0, 10.5),
        ),
    ),
)

EXECUTORS = (
    ("serial", {"executor": "serial"}),
    ("process", {"executor": "process", "workers": 4}),
)


def bench_id() -> str:
    digest = hashlib.sha256(
        "".join(
            point.spec.content_hash() for point in MATRIX.points()
        ).encode("ascii")
    ).hexdigest()
    return f"{MATRIX.name}@{digest[:8]}"


def timed_run(store: ArtifactStore, **kwargs):
    start = time.perf_counter()
    report = CampaignRunner(MATRIX, store=store, paths=PATHS, **kwargs).run()
    return report, time.perf_counter() - start


def test_executor_cold_and_warm_timings(benchmark, tmp_path, bench_record):
    scenario_count = len(MATRIX.points())
    assert scenario_count == 60

    cold_s = {}
    reports = {}
    stores = {}
    for name, kwargs in EXECUTORS:
        stores[name] = ArtifactStore(tmp_path / f"store_{name}")
        reports[name], cold_s[name] = timed_run(stores[name], **kwargs)
        assert reports[name].summary["store_misses"] == scenario_count

    # Conformance at scale: every substrate reproduces serial byte for byte.
    serial_json = reports["serial"].to_json()
    for name, _ in EXECUTORS[1:]:
        assert reports[name].to_json() == serial_json, (
            f"{name} cold report differs from serial"
        )

    warm_serial, warm_serial_s = timed_run(
        stores["serial"], executor="serial"
    )
    assert warm_serial.summary["store_hits"] == scenario_count
    assert warm_serial.artifacts == reports["serial"].artifacts

    benchmark.pedantic(
        lambda: timed_run(stores["serial"], executor="serial"),
        rounds=1,
        iterations=1,
    )

    cpu_count = os.cpu_count() or 1
    if cpu_count >= 4:
        assert cold_s["process"] * MIN_PROCESS_SPEEDUP <= cold_s["serial"], (
            f"process executor only {cold_s['serial'] / cold_s['process']:.2f}x "
            f"faster than serial on {cpu_count} CPUs "
            f"(gate: {MIN_PROCESS_SPEEDUP}x)"
        )

    record = {
        "matrix": MATRIX.name,
        "scenarios": scenario_count,
        "paths": list(PATHS),
        "cpu_count": cpu_count,
        "cold_s": {name: round(cold_s[name], 6) for name, _ in EXECUTORS},
        "warm_serial_s": round(warm_serial_s, 6),
        "speedup_process": round(cold_s["serial"] / cold_s["process"], 2),
        "process_gate_enforced": cpu_count >= 4,
    }
    bench_record(BENCH_RECORD_PATH, {bench_id(): record}, sort_keys=True)

    print()
    print(
        f"executors {bench_id()}: "
        + ", ".join(
            f"{name} {cold_s[name] * 1e3:.0f} ms" for name, _ in EXECUTORS
        )
        + f"; warm serial {warm_serial_s * 1e3:.0f} ms"
    )
