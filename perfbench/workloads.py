"""The three benchmark workloads.

Every op within a workload costs the same: caches are reset, stores are
fresh and ``gc.collect()`` has run before the clock starts, one warm-up op
is discarded, and a run is a fixed number of whole passes.  Each workload
loads a different layer:

* ``case_study_cold`` -- compute-bound: the thermal factorisation of the
  paper's Section V case study, paid on every op;
* ``campaign_shared_mesh`` -- Python-bound: one LU reused by 15 scenarios,
  so source rasterisation, device models, SNR and store writes dominate;
* ``service_store_hits`` -- serialisation-bound: store-served requests over
  the service's HTTP transport; the thermal layer never runs.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import random
import shutil
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from calibrate import HostClock, NumericClock, TransportClock
from common import (
    CASE_STUDY,
    SERVICE_MATRICES,
    artifact_digest,
    construct,
    start_server,
)

GOLDEN_DIR = Path("tests") / "golden"

#: Campaign scenario checked against its committed golden on every op.
CAMPAIGN_GOLDEN = "workload_grid-kind_checkerboard-pw_16"

#: Keep-alive client connections of the service workload.
SERVICE_CLIENTS = 2

#: The service's timed rounds run in this many segments (about 0.2 s
#: each), with the between-ops hook, and so a host-clock sample, around
#: each: the host switches speed regimes within seconds.
SERVICE_SEGMENTS = 100

#: One ``(client, spec index, start ns, end ns, body digest)`` per request;
#: both requests of a round share its start.
Record = Tuple[int, int, int, int, bytes]


class Hooks:
    """Callbacks a pass makes outside its timed windows: they sample the
    host clock around every timed op and, in a traced pass, reset the tracer
    and the factorisation counters once the warm-up op is done."""

    def __init__(self, clock: HostClock, tracer: Optional[Any] = None) -> None:
        self.clock = clock
        self.tracer = tracer
        self.first_sample = 0
        self.lu_before: Dict[str, int] = {}

    def factors(self, result: "PassResult") -> List[float]:
        """Host factor of each timed window of ``result``."""
        return self.clock.bracket(self.first_sample, len(result.windows))

    def mark(self) -> None:
        """After the warm-up op, before the first timed op."""
        self.first_sample = len(self.clock.samples)
        if self.tracer is not None:
            from repro.thermal import factorization_cache_stats

            self.tracer.clear()
            self.lu_before = factorization_cache_stats()

    def between(self) -> None:
        """Before every timed op (every segment, on the service) and once
        after the last."""
        self.clock.sample()

    def evaluate_spans(self) -> Optional[List[Any]]:
        """Recorded ``EvaluationService.evaluate`` spans, in a traced pass."""
        if self.tracer is None:
            return None
        return [s for s in self.tracer.spans if s.name == "campaigns.service_evaluate"]


@dataclass
class PassResult:
    """What one pass of ops measured and checked."""

    latencies_ms: List[float]
    #: Summed duration of the timed windows.
    wall_s: float
    #: Scenarios (compute workloads) or requests (service) completed.
    units: int
    attempted: int
    failed: int
    failures: List[str] = field(default_factory=list)
    store_hits: int = 0
    store_lookups: int = 0
    #: ``perf_counter_ns`` intervals the timings cover, one per op (one per
    #: segment on the service); traced passes count only the spans that
    #: start inside them.
    windows: List[Tuple[int, int]] = field(default_factory=list)
    #: Index into ``windows`` of each latency.
    window_index: List[int] = field(default_factory=list)
    #: Service only, traced passes: mean per-request split of client latency.
    service_split: Optional[Dict[str, float]] = None
    #: Lines the run prints beside its metrics.
    notes: List[str] = field(default_factory=list)


@dataclass
class _Op:
    window: Tuple[int, int]
    units: int
    problem: Optional[str]
    store_hits: int = 0
    store_lookups: int = 0


def _load_golden(name: str) -> Dict[str, Any]:
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))


def _reset_caches() -> None:
    from repro.thermal import clear_factorization_cache, clear_installed_bases

    clear_factorization_cache()
    clear_installed_bases()
    gc.collect()


def _failed(start: int, error: Exception) -> _Op:
    return _Op((start, time.perf_counter_ns()), 0, f"{type(error).__name__}: {error}")


class _ComputeWorkload:
    """A pass of identical, sequential ops timed one by one."""

    name = ""
    #: Nominal op cost, used only to turn ``--seconds`` into an op count.
    nominal_op_s = 1.0
    clock_class: type = NumericClock

    def __init__(self, workdir: Path, seed: int) -> None:
        # The inputs are fixed registered specs: the seed changes nothing.
        self.workdir = workdir

    def ops_for(self, seconds: float) -> int:
        return max(3, round(seconds / self.nominal_op_s))

    def _op(self) -> _Op:
        raise NotImplementedError

    def run(self, ops: int, hooks: Hooks) -> PassResult:
        failures = []
        warmup = self._op()
        if warmup.problem:
            failures.append(f"warm-up: {warmup.problem}")
        hooks.mark()
        outcomes = []
        for index in range(ops):
            hooks.between()
            outcome = self._op()
            outcomes.append(outcome)
            if outcome.problem:
                failures.append(f"op {index}: {outcome.problem}")
        hooks.between()
        latencies = [(end - start) / 1e6 for start, end in (o.window for o in outcomes)]
        return PassResult(
            latencies_ms=latencies,
            wall_s=sum(latencies) / 1e3,
            units=sum(o.units for o in outcomes),
            attempted=ops + 1,
            failed=len(failures),
            failures=failures,
            store_hits=sum(o.store_hits for o in outcomes),
            store_lookups=sum(o.store_lookups for o in outcomes),
            windows=[o.window for o in outcomes],
            window_index=list(range(ops)),
        )


class CaseStudyCold(_ComputeWorkload):
    """``EvaluationKernel().run()`` of ``scc_case_study`` on cold caches."""

    name = "case_study_cold"
    nominal_op_s = 2.0

    def prepare(self) -> None:
        objects = construct(self.name, self.workdir)
        self.kernel = objects["kernel"]
        self.spec_dict = objects["spec"].to_dict()
        self.golden = _load_golden(CASE_STUDY)

    def _op(self) -> _Op:
        from repro.scenarios import compare_artifact_dicts

        _reset_caches()
        start = time.perf_counter_ns()
        try:
            artifact, _, _ = self.kernel.run(self.spec_dict)
        except Exception as error:
            return _failed(start, error)
        window = (start, time.perf_counter_ns())
        mismatches = compare_artifact_dicts(self.golden, artifact)
        return _Op(window, 1, f"golden mismatch: {mismatches[:3]}" if mismatches else None)


class CampaignSharedMesh(_ComputeWorkload):
    """``CampaignRunner(workload_grid, fresh store, serial).run()``."""

    name = "campaign_shared_mesh"
    nominal_op_s = 2.2

    def prepare(self) -> None:
        self.golden = _load_golden(CAMPAIGN_GOLDEN)
        self.reference: Optional[Dict[str, str]] = None
        self._op_count = 0

    def _op(self) -> _Op:
        from repro.scenarios import compare_artifact_dicts

        op_dir = self.workdir / f"campaign-op{self._op_count}"
        self._op_count += 1
        objects = construct(self.name, op_dir)
        _reset_caches()
        start = time.perf_counter_ns()
        try:
            report = objects["runner"].run()
        except Exception as error:
            return _failed(start, error)
        finally:
            window = (start, time.perf_counter_ns())
            shutil.rmtree(op_dir, ignore_errors=True)
        stats = objects["store"].stats

        problem = None
        digests = {name: artifact_digest(a) for name, a in report.artifacts.items()}
        if report.failures or report.summary["failed"]:
            problem = f"failed scenarios {sorted(report.failures)}"
        elif CAMPAIGN_GOLDEN not in report.artifacts:
            problem = f"no artifact for {CAMPAIGN_GOLDEN}"
        elif self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            changed = sorted(n for n in self.reference if digests.get(n) != self.reference[n])
            problem = f"artifact digests differ from the first op: {changed[:3]}"
        if problem is None:
            mismatches = compare_artifact_dicts(self.golden, report.artifacts[CAMPAIGN_GOLDEN])
            if mismatches:
                problem = f"golden mismatch: {mismatches[:3]}"
        return _Op(window, len(report.artifacts), problem, stats.hits, stats.hits + stats.misses)


def _http_request(body: bytes) -> bytes:
    head = (
        "POST /evaluate HTTP/1.1\r\n"
        "Host: perfbench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


async def _exchange(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, request: bytes
) -> bytes:
    """Send one keep-alive request; return the response body.

    Error statuses carry a JSON body too, which the output check rejects;
    a response without a length cannot be framed and raises.
    """
    writer.write(request)
    await writer.drain()
    status = await reader.readline()
    length = None
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    if length is None:
        raise ValueError(f"response {status!r} has no Content-Length")
    return await reader.readexactly(length)


class ServiceStoreHits:
    """Two keep-alive clients POSTing store-served specs in lock-step.

    Each op is one round: both clients send a request at the same instant
    and wait for both replies.  The server shares one event loop with the
    clients, so one request of a round is served first and the other
    queues behind it; the op latency is the round's, the latency of the
    request that queued behind exactly one other.  With free-running
    clients the share of queued requests would vary from run to run and
    decide the median.
    """

    name = "service_store_hits"
    #: Nominal cost of one pass over the 27 specs.
    nominal_op_s = 0.027
    clock_class: type = TransportClock

    def __init__(self, workdir: Path, seed: int) -> None:
        self.workdir = workdir
        self.rng = random.Random(seed)
        self._pass = 0

    def prepare(self) -> None:
        from repro.campaigns import get_matrix

        store_dir = self.workdir / "store"
        filled = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("fill_store.py")), str(store_dir)],
            capture_output=True,
            text=True,
            timeout=170,
            check=True,
        )
        self.digests: Dict[str, str] = json.loads(filled.stdout.strip().splitlines()[-1])
        self.specs = [
            point.spec for name in SERVICE_MATRICES for point in get_matrix(name).points()
        ]
        self.requests = [_http_request(spec.to_json().encode("utf-8")) for spec in self.specs]
        objects = construct(self.name, self.workdir)
        self.store = objects["store"]
        self.service = objects["service"]

    def ops_for(self, seconds: float) -> int:
        """Rounds for ``seconds``: whole passes over the specs, in pairs."""
        passes = 2 * max(2, round(seconds / self.nominal_op_s / 2))
        return len(self.specs) * passes // SERVICE_CLIENTS

    def _segments(self, rounds: int) -> List[List[Tuple[int, ...]]]:
        """Seeded passes (each spec once, shuffled), paired into rounds and
        cut into segments."""
        order: List[int] = []
        while len(order) < rounds * SERVICE_CLIENTS:
            chunk = list(range(len(self.specs)))
            self.rng.shuffle(chunk)
            order.extend(chunk)
        pairs = [
            tuple(order[i : i + SERVICE_CLIENTS])
            for i in range(0, rounds * SERVICE_CLIENTS, SERVICE_CLIENTS)
        ]
        size = -(-rounds // SERVICE_SEGMENTS)
        return [pairs[i : i + size] for i in range(0, rounds, size)]

    def run(self, ops: int, hooks: Hooks) -> PassResult:
        return asyncio.run(self._run(ops, hooks))

    async def _run(self, rounds: int, hooks: Hooks) -> PassResult:
        socket_path = self.workdir / f"svc{self._pass}.sock"
        self._pass += 1
        server = await start_server(self.service, socket_path)
        connections = []
        bodies: Dict[bytes, bytes] = {}
        records: List[Record] = []
        task_of_client: List[Optional[int]] = []
        errors: List[str] = []
        windows: List[Tuple[int, int]] = []
        #: ``(start, end)`` of each timed round.
        round_spans: List[Tuple[int, int]] = []

        async def request(client: int, index: int, start: int) -> None:
            reader, writer = connections[client]
            try:
                body = await _exchange(reader, writer, self.requests[index])
            except (OSError, EOFError, ValueError) as error:
                errors.append(f"client {client}: {type(error).__name__}: {error}")
                return
            end = time.perf_counter_ns()
            digest = hashlib.sha256(body).digest()
            if digest not in bodies:
                bodies[digest] = body
            records.append((client, index, start, end, digest))

        try:
            for client in range(SERVICE_CLIENTS):
                connections.append(await asyncio.open_unix_connection(str(socket_path)))
                # Warm-up request, discarded; in a traced pass its evaluate
                # span names the server task that serves this connection.
                await request(client, client, time.perf_counter_ns())
                spans = hooks.evaluate_spans()
                task_of_client.append(spans[-1].task if spans else None)
            warmup = len(records)
            hits_before = self.store.stats.hits
            lookups_before = hits_before + self.store.stats.misses
            served_before = self.service.counters.get("service.store_served", 0)
            gc.collect()
            hooks.mark()
            for segment in self._segments(rounds):
                if errors:
                    break  # a connection is unusable: stop the pass
                hooks.between()
                started = time.perf_counter_ns()
                for pair in segment:
                    start = time.perf_counter_ns()
                    await asyncio.gather(
                        *(request(client, index, start) for client, index in enumerate(pair))
                    )
                    round_spans.append((start, time.perf_counter_ns()))
                windows.append((started, time.perf_counter_ns()))
            hooks.between()
        finally:
            for _, writer in connections:
                writer.close()
                await writer.wait_closed()
            # Let the server's connection handlers see EOF and finish before
            # the listeners close, so no handler is left to cancel.
            handlers = asyncio.all_tasks() - {asyncio.current_task()}
            if handlers:
                await asyncio.wait(handlers, timeout=10)
            await server.stop()

        failures = errors + self._check(records, bodies)
        timed = records[warmup:]
        starts = [start for start, _ in windows]
        stats = self.store.stats
        result = PassResult(
            latencies_ms=[(end - start) / 1e6 for start, end in round_spans],
            wall_s=sum(end - start for start, end in windows) / 1e9,
            units=len(timed),
            attempted=len(records) + len(errors),
            failed=len(failures),
            failures=failures,
            store_hits=stats.hits - hits_before,
            store_lookups=stats.hits + stats.misses - lookups_before,
            windows=windows,
            window_index=[bisect_right(starts, start) - 1 for start, _ in round_spans],
            notes=[_reply_modes(timed)],
        )
        spans = hooks.evaluate_spans()
        if spans is not None:
            served = self.service.counters.get("service.store_served", 0) - served_before
            result.service_split = _split_latency(timed, spans, task_of_client)
            result.service_split["store_served_ratio"] = served / max(1, len(timed))
        return result

    def _check(self, records: List[Record], bodies: Dict[bytes, bytes]) -> List[str]:
        """Judge every response by the content of its (hashed) body."""
        verdicts: Dict[bytes, Tuple[Optional[str], Optional[str]]] = {}
        for digest, body in bodies.items():
            document = json.loads(body)
            scenario = document.get("scenario")
            problem = None
            if document.get("status") != "ok" or document.get("source") != "store":
                problem = f"status {document.get('status')!r} source {document.get('source')!r}"
            elif artifact_digest(document["artifact"]) != self.digests.get(scenario):
                problem = f"artifact digest of {scenario!r} differs from preparation"
            verdicts[digest] = (scenario, problem)
        failures = []
        for client, index, _, _, digest in records:
            scenario, problem = verdicts[digest]
            if problem is None and scenario != self.specs[index].name:
                problem = f"asked for {self.specs[index].name!r}, got {scenario!r}"
            if problem:
                failures.append(f"client {client}: {problem}")
        return failures


def _reply_modes(timed: List[Record]) -> str:
    """Share and median latency of the first and the second reply of each
    round (the second queued behind the first)."""
    rounds: Dict[int, List[int]] = {}
    for _, _, start, end, _ in timed:
        rounds.setdefault(start, []).append(end - start)
    first = [min(ends) / 1e6 for ends in rounds.values() if len(ends) == SERVICE_CLIENTS]
    second = [max(ends) / 1e6 for ends in rounds.values() if len(ends) == SERVICE_CLIENTS]
    if not first:
        return "reply modes: no complete round"
    share = len(first) / max(1, len(timed))
    return (
        f"reply modes: {share:.1%} of requests served first (p50 "
        f"{statistics.median(first):.4f} ms), {share:.1%} queued behind the other "
        f"(p50 {statistics.median(second):.4f} ms, the op latency)"
    )


def _split_latency(
    timed: List[Record], spans: List[Any], task_of_client: List[Optional[int]]
) -> Dict[str, float]:
    """Mean per-request split of client latency into the request's own
    ``EvaluationService.evaluate``, waiting behind the other connection's
    evaluate calls, and the remaining transport self time (HTTP framing and
    JSON encoding on one event loop, both connections' included)."""
    spans = sorted(spans, key=lambda span: span.start)
    starts = [span.start for span in spans]
    longest = max((span.end - span.start for span in spans), default=0)
    own_ns = wait_ns = total_ns = 0
    for client, _, start, end, _ in timed:
        total_ns += end - start
        for span in spans[bisect_left(starts, start - longest) :]:
            if span.start >= end:
                break
            overlap = min(end, span.end) - max(start, span.start)
            if overlap <= 0:
                continue
            if span.task == task_of_client[client]:
                own_ns += overlap
            else:
                wait_ns += overlap
    count = max(1, len(timed))
    return {
        "evaluate_ms": own_ns / count / 1e6,
        "wait_ms": wait_ns / count / 1e6,
        "transport_self_ms": (total_ns - own_ns - wait_ns) / count / 1e6,
    }


WORKLOAD_CLASSES = {cls.name: cls for cls in (CaseStudyCold, CampaignSharedMesh, ServiceStoreHits)}
