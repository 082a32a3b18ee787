"""Benchmark of the thermal-aware design flow: one workload per run.

Usage, from the repository root::

    python3 perfbench/run.py --workload case_study_cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

Workloads (see ``workloads.py`` for why each exists):

* ``case_study_cold`` -- the paper's Section V case study, cold caches;
* ``campaign_shared_mesh`` -- the 15-scenario ``workload_grid`` campaign
  into a fresh store, one mesh shared by every scenario;
* ``service_store_hits`` -- two keep-alive clients of ``ServiceServer`` on
  a unix socket, sending in lock-step rounds of two requests, every request
  served from the store.

With ``--trace 0`` the run reports the end-to-end metrics, measured with
every wrapper off: ``setup_s`` (median fresh-interpreter time to ready,
after one untimed warm import), ``throughput_per_s`` (scenarios or
requests), ``latency_p50_ms`` (per op: one evaluation, one campaign, or one
round of two requests on the service), ``latency_tail_ms`` (the highest
percentile with at least ten samples, and at least 1% of them, beyond it,
never below the median: the compute workloads run about ten ops, so there
it equals the median; on the service it is p99, so that the few
multi-millisecond stalls a shared host injects per run do not decide it)
and ``peak_rss_mb`` of the load process.
With ``--trace 1`` it runs half the ops untraced and half with the layer
wrappers of ``tracer.py`` installed, and reports per-layer calls and self
time per op, the counters that explain them and the tracing overhead.
Spans are written to ``.perfbench_run/trace-<workload>-seed<seed>.json``.

Every time is reported at reference host speed (units ``ref_ms``,
``1/ref_s``; ``setup_s`` keeps the unit ``s``): the run times a fixed
calibration kernel (``calibrate.py``, one per workload) before and after
each set-up sample, op and service segment, and divides each measured time
by the host factor around it.  The reference host is defined as one on
which the kernel takes its ``reference_s``.  The raw figures and the median
host factor are printed, and the traced run reports the raw end-to-end
times as ``raw.*`` metrics.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Outputs are checked against the
committed goldens; a failed check counts as a failed op.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from calibrate import HostClock
from common import RUN_DIR, WORKLOADS, MissingProgram, bootstrap
from workloads import GOLDEN_DIR, WORKLOAD_CLASSES, Hooks

#: Fresh interpreters timed per run for ``setup_s`` (after one warm import).
SETUP_SAMPLES = 3

#: Seconds a child process (set-up probe, store fill, sub-run) may take.
CHILD_TIMEOUT_S = 170


def _probe(workload: str, workdir: Path) -> Tuple[float, Dict[str, float]]:
    """Time one fresh interpreter to ready; returns ``(seconds, split)``."""
    probe = Path(__file__).with_name("setup_probe.py")
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(probe), workload, str(workdir)],
        stdout=subprocess.PIPE,
        text=True,
    ) as process:
        try:
            line = process.stdout.readline()
            elapsed = time.perf_counter() - start
            process.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
    if process.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe of {workload} exited with {process.returncode}")
    return elapsed, json.loads(line)


def measure_setup(workload: str, workdir: Path, clock: Any) -> Dict[str, float]:
    """Median of :data:`SETUP_SAMPLES` fresh interpreters, after a warm one,
    at reference host speed (``raw_setup_s`` as measured)."""
    probe_dir = workdir / "probe"
    _probe(workload, probe_dir)  # warm: .pyc compilation and page cache
    first = len(clock.samples)
    samples = []
    for _ in range(SETUP_SAMPLES):
        clock.sample()
        samples.append(_probe(workload, probe_dir))
    clock.sample()
    shutil.rmtree(probe_dir, ignore_errors=True)
    factors = clock.bracket(first, SETUP_SAMPLES)
    return {
        "setup_s": statistics.median(s / f for (s, _), f in zip(samples, factors)),
        "raw_setup_s": statistics.median(s for s, _ in samples),
        "import_ms": statistics.median(
            split["import_ms"] / f for (_, split), f in zip(samples, factors)
        ),
        "construct_ms": statistics.median(
            split["construct_ms"] / f for (_, split), f in zip(samples, factors)
        ),
        "samples": len(samples),
    }


def tail(latencies: List[float]) -> Tuple[float, str]:
    """Highest percentile with at least ten samples, and at least 1% of the
    samples, beyond it (floored at the median, which it falls below with
    fewer than 20 samples)."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = max(10, n // 100)
    if n < 2 * beyond:
        return statistics.median(ordered), f"p50 of {n} ops"
    return ordered[n - beyond - 1], f"p{100.0 * (n - beyond) / n:.1f} of {n} ops"


def environment() -> Dict[str, Any]:
    """CPU count, interpreter and library versions, source revision, BLAS threads."""
    import ctypes
    import glob

    import numpy
    import scipy

    blas = {}
    for package in (numpy, scipy):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in glob.glob(str(libs / "*openblas*")):
            library = ctypes.CDLL(path)
            for symbol in (
                "scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                getter = getattr(library, symbol, None)
                if getter is not None:
                    blas[package.__name__] = getter()
                    break
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    # Identifies the code where the checkout is not a git repository.
    source = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        source.update(path.as_posix().encode("utf-8") + b"\0" + path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
        "blas_threads": blas or os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


@dataclass
class Timings:
    """One pass's latencies and timed wall time at reference host speed."""

    latencies_ms: List[float]
    wall_s: float
    units: int
    #: Median host factor of the pass's timed spans.
    factor: float

    @classmethod
    def of(cls, result: Any, factors: List[float]) -> "Timings":
        return cls(
            latencies_ms=[
                latency / factors[window]
                for latency, window in zip(result.latencies_ms, result.window_index)
            ],
            wall_s=sum(
                (end - start) / 1e9 / factor
                for (start, end), factor in zip(result.windows, factors)
            ),
            units=result.units,
            factor=statistics.median(factors),
        )

    @property
    def throughput_per_s(self) -> float:
        return self.units / self.wall_s


def end_to_end(
    result: Any, timings: Timings, setup: Dict[str, float]
) -> Tuple[Dict[str, Any], List[str]]:
    """The five end-to-end metrics, times at reference host speed."""
    latency_tail, label = tail(timings.latencies_ms)
    n = len(timings.latencies_ms)
    metrics = {
        "setup_s": metric(setup["setup_s"], "s"),
        "throughput_per_s": metric(timings.throughput_per_s, "1/ref_s"),
        "latency_p50_ms": metric(statistics.median(timings.latencies_ms), "ref_ms"),
        "latency_tail_ms": metric(latency_tail, "ref_ms"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }
    raw = raw_metrics(result, setup)
    notes = [
        f"setup_s: median of {setup['samples']} fresh interpreters, "
        f"raw {raw['raw.setup_s']['value']:.4f} s",
        f"throughput_per_s: {result.units} units in {result.wall_s:.3f} s, "
        f"raw {raw['raw.throughput_per_s']['value']:.4f}/s",
        f"latency_p50_ms: {n} ops, raw {raw['raw.latency_p50_ms']['value']:.4f} ms",
        f"latency_tail_ms: {label}, raw {raw['raw.latency_tail_ms']['value']:.4f} ms",
        "peak_rss_mb: ru_maxrss of the load process",
        f"host factor: median {timings.factor:.4f} over {len(result.windows)} timed spans",
        *result.notes,
    ]
    return metrics, notes


def raw_metrics(result: Any, setup: Dict[str, float]) -> Dict[str, Any]:
    """The end-to-end times as measured on this host, before normalisation."""
    raw_tail, _ = tail(result.latencies_ms)
    return {
        "raw.setup_s": metric(setup["raw_setup_s"], "s"),
        "raw.throughput_per_s": metric(result.units / result.wall_s, "1/s"),
        "raw.latency_p50_ms": metric(statistics.median(result.latencies_ms), "ms"),
        "raw.latency_tail_ms": metric(raw_tail, "ms"),
    }


def per_layer(
    tracer: Any,
    traced: Any,
    traced_timings: Timings,
    untraced: Any,
    untraced_timings: Timings,
    lu: Dict[str, int],
    setup: Dict[str, float],
) -> Dict[str, Any]:
    """Per-layer calls and self time per op, counters, tracing overhead and
    the untraced end-to-end times as measured."""
    ops = len(traced.latencies_ms)
    spans = tracer.within(traced.windows)
    factor = traced_timings.factor
    metrics: Dict[str, Any] = {}

    def ms(name: str, value: float) -> None:
        metrics[name] = metric(value / factor, "ref_ms/op")

    for name, (calls, self_ms) in tracer.layer_totals(spans).items():
        metrics[f"{name}.calls"] = metric(calls / ops, "calls/op")
        ms(f"{name}.self_ms", self_ms / ops)

    metrics["thermal.lu.built"] = metric(lu["built"] / ops, "count/op")
    metrics["thermal.lu.reused"] = metric(lu["reused"] / ops, "count/op")
    lu_total = lu["built"] + lu["reused"]
    metrics["thermal.lu.reuse_ratio"] = metric(lu["reused"] / lu_total if lu_total else 0.0, "ratio")

    def engine_ratio(hits: str, requested: str) -> float:
        total = sum(c.get(requested, 0) for c in tracer.engine_counters)
        return sum(c.get(hits, 0) for c in tracer.engine_counters) / total if total else 0.0

    metrics["methodology.engine.cache_hit_ratio"] = metric(
        engine_ratio("cache_hits", "points_requested"), "ratio"
    )
    metrics["methodology.engine.snr_cache_hit_ratio"] = metric(
        engine_ratio("snr_cache_hits", "snr_points_requested"), "ratio"
    )
    metrics["campaigns.store.hit_ratio"] = metric(
        traced.store_hits / traced.store_lookups if traced.store_lookups else 0.0, "ratio"
    )
    split = traced.service_split or {}
    # Per request on the service: latency minus its own evaluate and the
    # other connection's evaluate it waited behind.
    ms("campaigns.service.transport_self_ms", split.get("transport_self_ms", 0.0))
    ms("campaigns.service.wait_ms", split.get("wait_ms", 0.0))
    metrics["campaigns.service.store_served_ratio"] = metric(
        split.get("store_served_ratio", 0.0), "ratio"
    )
    # Per op (a round of two requests on the service): time no traced call covers.
    ms("op.unattributed_ms", (sum(traced.latencies_ms) - tracer.root_ms(spans)) / ops)
    metrics["setup.import_ms"] = metric(setup["import_ms"], "ref_ms")
    metrics["setup.construct_ms"] = metric(setup["construct_ms"], "ref_ms")
    metrics["trace.overhead.latency_p50_ms"] = metric(
        statistics.median(traced_timings.latencies_ms)
        - statistics.median(untraced_timings.latencies_ms),
        "ref_ms",
    )
    metrics["trace.overhead.throughput_per_s"] = metric(
        traced_timings.throughput_per_s - untraced_timings.throughput_per_s, "1/ref_s"
    )
    metrics.update(raw_metrics(untraced, setup))
    return metrics


def run_workload(args: argparse.Namespace) -> int:
    try:
        bootstrap()
    except MissingProgram as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    if not GOLDEN_DIR.is_dir():
        print(f"perfbench: no goldens under {GOLDEN_DIR.resolve()}", file=sys.stderr)
        return 2

    workdir = RUN_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    clock: Optional[HostClock] = None
    try:
        workload_class = WORKLOAD_CLASSES[args.workload]
        clock = workload_class.clock_class(workdir)
        setup = measure_setup(args.workload, workdir, clock)
        workload = workload_class(workdir, args.seed)
        workload.prepare()
        stamp = environment()
        print("environment: " + json.dumps(stamp, sort_keys=True))
        ops = workload.ops_for(args.seconds)

        if not args.trace:
            hooks = Hooks(clock)
            result = workload.run(ops, hooks)
            metrics, notes = end_to_end(result, Timings.of(result, hooks.factors(result)), setup)
        else:
            from repro.thermal import factorization_cache_stats

            from tracer import Tracer

            half = max(1, ops // 2)
            hooks = Hooks(clock)
            untraced = workload.run(half, hooks)
            untraced_timings = Timings.of(untraced, hooks.factors(untraced))
            tracer = Tracer()
            hooks = Hooks(clock, tracer)
            tracer.install()
            try:
                traced = workload.run(half, hooks)
            finally:
                tracer.uninstall()
            after = factorization_cache_stats()
            lu = {key: after[key] - hooks.lu_before[key] for key in ("built", "reused")}
            traced_timings = Timings.of(traced, hooks.factors(traced))
            metrics = per_layer(
                tracer, traced, traced_timings, untraced, untraced_timings, lu, setup
            )
            trace_path = RUN_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.dump(
                trace_path,
                {"workload": args.workload, "seed": args.seed, "environment": stamp},
            )
            notes = [
                f"spans: {len(tracer.spans)} written to {trace_path}",
                f"host factor: median {traced_timings.factor:.4f}",
                *traced.notes,
            ]
            result = traced
            result.attempted += untraced.attempted
            result.failed += untraced.failed
            result.failures += untraced.failures
    finally:
        if clock is not None:
            clock.close()
        shutil.rmtree(workdir, ignore_errors=True)

    for note in notes:
        print(note)
    for name, entry in metrics.items():
        print(f"{args.workload}  {name:42s} {entry['value']:14.4f} {entry['unit']}")
    print(f"{args.workload}  {result.failed} failed of {result.attempted} attempted ops")
    for failure in result.failures[:10]:
        print(f"FAILED {failure}")
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own load process, then one summary table."""
    combined: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        completed = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if completed.returncode != 0:
            sys.stderr.write(completed.stderr)
            return completed.returncode
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = entry
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
