"""End-to-end timing of registered scenarios through every analysis path.

Each selected scenario of the default registry is replayed cold (fresh
runner: mesh build, factorisation, network compilation, all four paths) and
warm (second ``run`` on the same runner: everything served from the shared
sweep engine's caches except the time-resolved SNR chain).  The records land
in ``BENCH_scenarios.json`` keyed by the *scenario-keyed bench ID* —
``<name>@<content-hash prefix>`` — so a committed timing series can never
silently mix two different versions of a scenario: editing the spec changes
the key and restarts the series.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.scenarios import ALL_PATHS, ScenarioRunner, default_registry

BENCH_RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_scenarios.json"


def scenario_bench_id(name: str) -> str:
    """Scenario-keyed bench ID: ``<scenario>@<content-hash prefix>``.

    Bench records and parameterized test IDs carry the registered scenario's
    content hash, so a timing series in version control is only ever compared
    against itself: editing the spec changes the key and restarts the series
    instead of silently mixing two different configurations.
    """
    spec = default_registry().get(name)
    return f"{spec.name}@{spec.short_hash()[:8]}"

#: Scenarios benched here: the smallest, a mid-size SCC one and the paper's
#: full case study (the heaviest registered configuration).
BENCH_SCENARIOS = ["small_die_uniform", "scc_uniform_18mm", "scc_case_study"]

_RECORDS: dict = {}


@pytest.mark.parametrize("name", BENCH_SCENARIOS, ids=scenario_bench_id)
def test_scenario_end_to_end(benchmark, name, bench_record):
    spec = default_registry().get(name)
    runner = ScenarioRunner(spec)

    start = time.perf_counter()
    cold_artifact = runner.run(ALL_PATHS)
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    warm_artifact = runner.run(ALL_PATHS)
    warm_s = time.perf_counter() - start

    benchmark.pedantic(runner.run, args=(ALL_PATHS,), rounds=1, iterations=1)

    # The warm replay is served from the engine caches: identical artifact,
    # and meaningfully cheaper than the cold run.
    assert warm_artifact.to_json() == cold_artifact.to_json()
    assert warm_s < cold_s
    stats = runner.engine().stats
    assert stats["cache_hits"] > 0

    bench_id = scenario_bench_id(name)
    _RECORDS[bench_id] = {
        "scenario": spec.name,
        "spec_hash": spec.content_hash(),
        "oni_count": spec.network.oni_count,
        "ring_length_mm": spec.network.ring_length_mm,
        "paths": list(ALL_PATHS),
        "cold_s": round(cold_s, 6),
        "warm_s": round(warm_s, 6),
        "speedup_warm": round(cold_s / warm_s, 2),
    }
    bench_record(BENCH_RECORD_PATH, _RECORDS, sort_keys=True)

    print()
    print(
        f"scenario {bench_id}: cold {cold_s * 1e3:.0f} ms, "
        f"warm {warm_s * 1e3:.0f} ms ({cold_s / warm_s:.1f}x)"
    )
