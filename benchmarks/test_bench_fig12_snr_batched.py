"""Figure 12 companion — batched SNR engine versus the scalar walk.

``test_bench_fig12_snr.py`` regenerates the paper's Figure 12 data through
the full thermal + SNR flow; this companion isolates the SNR half at the
same scale (24 ONIs on the 32.4 mm reference ring, Fig. 12-style per-ONI
temperature spreads) and times three executions of a 16-state sweep:

* **scalar** — 16 sequential ``analyze_scalar`` calls, the original
  pure-Python ONI-by-ONI walk (the parity oracle in ``tests/snr_reference.py``);
* **cold**   — one :meth:`SnrAnalyzer.analyze_many` call on a fresh
  analyzer, paying the one-off network compilation;
* **warm**   — a second ``analyze_many`` on the compiled engine, the
  steady-state cost of every further sweep.

The measured record is written to ``BENCH_snr.json`` at the repository root
so the performance trajectory of the SNR hot path accumulates in version
control.  The acceptance gate of the batched engine is asserted here: the
16-state sweep must be at least 5x faster than the sequential scalar path.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.onoc import OrnocNetwork, RingTopology, shift_traffic
from repro.snr import LaserDriveConfig, OniThermalState, SnrAnalyzer

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from snr_reference import analyze_scalar  # noqa: E402

ONI_COUNT = 24
RING_LENGTH_MM = 32.4
STATE_COUNT = 16
PAPER_DRIVE = LaserDriveConfig.from_dissipated_mw(3.6)
BENCH_RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_snr.json"


def build_reference_network() -> OrnocNetwork:
    """24-ONI / 32.4 mm ORNoC with the default maximal-reuse shift traffic."""
    names = [f"oni_{i:02d}" for i in range(ONI_COUNT)]
    ring = RingTopology.evenly_spaced(names, RING_LENGTH_MM * 1.0e-3)
    network = OrnocNetwork(ring, shift_traffic(ring, ONI_COUNT // 3))
    network.assign_channels()
    return network


def fig12_style_states(network: OrnocNetwork, count: int):
    """Per-ONI thermal states with Fig. 12-like spreads (45-60 degC range).

    Each state mimics one (activity, scenario) operating point: a different
    spatial temperature profile around the ring plus a small laser/microring
    split inside every ONI.
    """
    rng = np.random.default_rng(20150309)
    names = network.ring.node_names
    batch = []
    for _ in range(count):
        base = 45.0 + 10.0 * rng.random()
        tilt = 5.0 * rng.random()
        batch.append(
            {
                name: OniThermalState(
                    name=name,
                    average_temperature_c=base
                    + tilt * np.sin(2.0 * np.pi * index / len(names))
                    + rng.normal(0.0, 0.5),
                    laser_temperature_c=base
                    + tilt * np.sin(2.0 * np.pi * index / len(names))
                    + rng.normal(0.0, 0.5),
                    microring_temperature_c=base
                    + tilt * np.sin(2.0 * np.pi * index / len(names))
                    + rng.normal(0.0, 0.5),
                )
                for index, name in enumerate(names)
            }
        )
    return batch


def test_fig12_snr_batched_vs_scalar(benchmark, bench_record):
    network = build_reference_network()
    states_batch = fig12_style_states(network, STATE_COUNT)

    # Scalar reference: the original pure-Python walk, once per state.
    # Measured once — scheduling noise can only inflate it, and the speedup
    # assertion below must not pass *because* of noise on the fast side.
    scalar_analyzer = SnrAnalyzer(network)
    start = time.perf_counter()
    scalar_reports = [
        analyze_scalar(scalar_analyzer, states, PAPER_DRIVE)
        for states in states_batch
    ]
    scalar_s = time.perf_counter() - start

    # Batched runs are short, so a single noisy sample could fail the gate
    # spuriously; take the best of three (fresh analyzer each time for the
    # cold path, which pays the one-off compilation).
    cold_samples = []
    for _ in range(3):
        cold_analyzer = SnrAnalyzer(network)
        start = time.perf_counter()
        cold_batch = cold_analyzer.analyze_many(states_batch, PAPER_DRIVE)
        cold_samples.append(time.perf_counter() - start)
    cold_s = min(cold_samples)

    # Warm batched runs: the compiled engine is reused.
    warm_samples = []
    for _ in range(3):
        start = time.perf_counter()
        warm_batch = cold_analyzer.analyze_many(states_batch, PAPER_DRIVE)
        warm_samples.append(time.perf_counter() - start)
    warm_s = min(warm_samples)
    benchmark.pedantic(
        cold_analyzer.analyze_many,
        args=(states_batch, PAPER_DRIVE),
        rounds=3,
        iterations=1,
    )

    # The batched numbers must reproduce the scalar walk link by link (the
    # scalar VCSEL inversion uses a looser brentq tolerance, hence 1e-6).
    max_snr_diff_db = 0.0
    for index, report in enumerate(scalar_reports):
        for s, link in enumerate(report.links):
            assert link.communication.name == warm_batch.link_names[s]
            np.testing.assert_allclose(
                warm_batch.signal_power_w[index, s], link.signal_power_w, rtol=1e-6
            )
            np.testing.assert_allclose(
                warm_batch.crosstalk_power_w[index, s],
                link.crosstalk_power_w,
                rtol=1e-6,
            )
            max_snr_diff_db = max(
                max_snr_diff_db, abs(float(warm_batch.snr_db[index, s]) - link.snr_db)
            )
    assert max_snr_diff_db < 1e-5
    np.testing.assert_array_equal(
        cold_batch.worst_case_snr_db, warm_batch.worst_case_snr_db
    )

    record = {
        "benchmark": "fig12_snr_batched",
        "onis": ONI_COUNT,
        "ring_length_mm": RING_LENGTH_MM,
        "links": len(warm_batch.link_names),
        "states": STATE_COUNT,
        "scalar_sequential_s": round(scalar_s, 6),
        "cold_batched_s": round(cold_s, 6),
        "warm_batched_s": round(warm_s, 6),
        "speedup_cold": round(scalar_s / cold_s, 2),
        "speedup_warm": round(scalar_s / warm_s, 2),
        "max_abs_snr_diff_db": float(max_snr_diff_db),
    }
    bench_record(BENCH_RECORD_PATH, record)

    print()
    print(
        f"Fig. 12 SNR sweep ({STATE_COUNT} states x {len(warm_batch.link_names)} links): "
        f"scalar {scalar_s * 1e3:.1f} ms, cold batched {cold_s * 1e3:.1f} ms "
        f"({record['speedup_cold']:.1f}x), warm batched {warm_s * 1e3:.1f} ms "
        f"({record['speedup_warm']:.1f}x)"
    )

    # Acceptance gate: >= 5x over the sequential scalar path.
    assert scalar_s / cold_s >= 5.0
    assert scalar_s / warm_s >= 5.0


def test_fig12_snr_batched_lineshape_model(benchmark):
    """The steeper lineshape interaction model stays on the batched path too."""
    network = build_reference_network()
    states_batch = fig12_style_states(network, 4)
    analyzer = SnrAnalyzer(network, interaction_model="lineshape")
    batch = benchmark.pedantic(
        analyzer.analyze_many, args=(states_batch, PAPER_DRIVE), rounds=1, iterations=1
    )
    for index, states in enumerate(states_batch):
        reference = analyze_scalar(analyzer, states, PAPER_DRIVE)
        for s, link in enumerate(reference.links):
            np.testing.assert_allclose(
                batch.signal_power_w[index, s], link.signal_power_w, rtol=1e-6
            )
    # Lineshape interacts with every receiver on the waveguide, so each
    # signal crosses at least as many rings as under same-channel isolation.
    same_channel = SnrAnalyzer(network)
    assert np.all(
        analyzer.engine.rings_crossed >= same_channel.engine.rings_crossed
    )
    assert np.all(np.isfinite(batch.worst_case_snr_db))
