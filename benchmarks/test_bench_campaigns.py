"""Campaign timing: cold compute vs warm store-served replay, serial vs process.

The bench matrix (the built-in ``campaign_smoke``: 4 small-die specs through
every analysis path) runs three ways against a fresh on-disk
:class:`~repro.campaigns.ArtifactStore`:

* **cold** — empty store: every spec computes end to end and is persisted;
* **warm** — the same campaign again on the same store: every artifact is
  served from disk after an integrity re-hash, no solver runs at all;
* **parallel** — cold again (fresh store) over the ``workers=4`` supervised
  process executor.

The acceptance gates of the campaign subsystem are asserted here: the warm
replay must be at least 10x faster than the cold run, warm artifacts must be
byte-identical to cold ones, and the parallel campaign must reproduce the
serial report byte for byte.  Records land in ``BENCH_campaigns.json`` keyed
by ``<campaign>@<hash prefix>`` over the expanded spec hashes, so editing
the matrix restarts the timing series.
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path

from repro.campaigns import ArtifactStore, CampaignRunner, get_matrix

BENCH_RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_campaigns.json"

BENCH_CAMPAIGN = "campaign_smoke"

#: The warm, store-served replay must beat the cold compute by at least this.
MIN_WARM_SPEEDUP = 10.0


def campaign_bench_id(name: str) -> str:
    """``<campaign>@<prefix>`` over the expanded population's spec hashes."""
    matrix = get_matrix(name)
    digest = hashlib.sha256(
        "".join(
            point.spec.content_hash() for point in matrix.points()
        ).encode("ascii")
    ).hexdigest()
    return f"{name}@{digest[:8]}"


def test_campaign_cold_warm_parallel(benchmark, tmp_path, bench_record):
    matrix = get_matrix(BENCH_CAMPAIGN)
    store_dir = tmp_path / "store"

    start = time.perf_counter()
    cold = CampaignRunner(matrix, store=ArtifactStore(store_dir)).run()
    cold_s = time.perf_counter() - start

    warm_store = ArtifactStore(store_dir)
    start = time.perf_counter()
    warm = CampaignRunner(matrix, store=warm_store).run()
    warm_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = CampaignRunner(
        matrix, store=ArtifactStore(tmp_path / "par_store"), workers=4
    ).run()
    parallel_s = time.perf_counter() - start

    benchmark.pedantic(
        lambda: CampaignRunner(matrix, store=ArtifactStore(store_dir)).run(),
        rounds=1,
        iterations=1,
    )

    # Acceptance gates of the campaign subsystem.
    assert warm.summary["store_hits"] == len(matrix.points())
    assert warm_store.stats.hit_rate == 1.0
    assert warm.artifacts == cold.artifacts
    assert cold_s >= MIN_WARM_SPEEDUP * warm_s, (
        f"warm store-served replay only {cold_s / warm_s:.1f}x faster than "
        f"the cold run (gate: {MIN_WARM_SPEEDUP}x)"
    )
    assert parallel.artifacts == cold.artifacts
    assert parallel.engine == cold.engine

    bench_id = campaign_bench_id(BENCH_CAMPAIGN)
    record = {
        "campaign": BENCH_CAMPAIGN,
        "scenarios": len(matrix.points()),
        "paths": list(cold.paths),
        "cold_s": round(cold_s, 6),
        "warm_s": round(warm_s, 6),
        "parallel_s": round(parallel_s, 6),
        "speedup_warm": round(cold_s / warm_s, 2),
        "store": warm_store.stats.to_dict(),
    }
    bench_record(BENCH_RECORD_PATH, {bench_id: record}, sort_keys=True)

    print()
    print(
        f"campaign {bench_id}: cold {cold_s * 1e3:.0f} ms, warm "
        f"{warm_s * 1e3:.0f} ms ({cold_s / warm_s:.0f}x), "
        f"parallel {parallel_s * 1e3:.0f} ms"
    )
