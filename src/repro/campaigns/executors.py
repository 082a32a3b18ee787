"""Execution strategies: fan a kernel over campaign work items.

An :class:`Executor` turns ``(kernel, work items)`` into a stream of
:class:`ExecutionResult` objects.  Two substrates implement the same
contract, and the executor-conformance suite asserts they are
interchangeable byte for byte:

* :class:`SerialExecutor` — in-process, in submission order; the reference
  the process executor is compared against;
* :class:`ProcessExecutor` — worker *processes* fed over per-worker task
  queues with supervision — crashed workers are detected and respawned, hung
  workers are killed on a deadline, failed tasks are retried a bounded
  number of times and a spec that keeps failing is quarantined with its full
  incident history instead of sinking the campaign.

Executors never raise for a failing spec: every work item produces exactly
one :class:`ExecutionResult` carrying either the artifact or the failure
provenance (error type, message, attempts, incident list), and the
:class:`~repro.campaigns.runner.CampaignRunner` decides whether to re-raise
(:class:`~repro.campaigns.kernel.SpecExecutionError`) or to quarantine and
keep going.  :func:`run_item` is the single place a one-attempt failure
becomes provenance; the evaluation service calls it too.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .. import telemetry
from ..errors import ConfigurationError
from ..log import get_logger
from ..scenarios import ScenarioSpec
from .kernel import EvaluationKernel

#: Executor registry names, in documentation order.
EXECUTOR_NAMES: Tuple[str, ...] = ("serial", "process")

#: How long the process supervisor waits on the result queue per step [s].
POLL_S = 0.02

logger = get_logger("executors")


@dataclass(frozen=True)
class WorkItem:
    """One spec of a campaign: its submission position and the spec itself.

    ``index`` is stable across executors.  The spec pickles with its
    memoised hashes, so its name, ``spec_hash`` and ``design_hash`` are
    read off it wherever the item lands.
    """

    index: int
    spec: ScenarioSpec


@dataclass
class ExecutionResult:
    """Outcome of one work item: an artifact or a failure, never silence.

    ``incidents`` lists every failed attempt (``{"attempt", "type",
    "message"}``) even when a later retry succeeded, so the campaign report
    can show that a spec crashed twice before completing.

    ``telemetry`` is the kernel's plain-data span/metrics payload (see
    :meth:`~repro.campaigns.kernel.EvaluationKernel.run`), ``None`` while
    telemetry is off — executors ship it back verbatim and the campaign
    runner merges the payloads onto one timeline.
    """

    item: WorkItem
    artifact: Optional[Dict[str, Any]] = None
    stats: Optional[Dict[str, int]] = None
    telemetry: Optional[Dict[str, Any]] = None
    attempts: int = 1
    incidents: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the item produced an artifact."""
        return self.artifact is not None

    @property
    def error(self) -> Optional[Dict[str, Any]]:
        """Terminal failure (the last incident) of an unresolved item."""
        if self.ok or not self.incidents:
            return None
        return self.incidents[-1]

    def provenance(self) -> Dict[str, Any]:
        """Failure-provenance document of the item: its spec and design
        hashes, every failed attempt and whether a retry resolved it."""
        spec = self.item.spec
        return {
            "spec_hash": spec.content_hash(),
            "design_hash": spec.design_hash(),
            "attempts": self.attempts,
            "incidents": list(self.incidents),
            "resolved": self.ok,
        }


def _incident(attempt: int, error_type: str, message: str) -> Dict[str, Any]:
    return {"attempt": attempt, "type": error_type, "message": message}


class Executor:
    """Strategy interface: stream results for a kernel over work items.

    ``execute`` yields one :class:`ExecutionResult` per item (order may
    differ from submission for genuinely concurrent substrates); the caller
    absorbs each result as it arrives, so completed artifacts persist to the
    store even when a later item fails.
    """

    #: Registry name of the strategy (CLI ``--executor`` values).
    name: str = "abstract"

    def execute(
        self, kernel: EvaluationKernel, items: Sequence[WorkItem]
    ) -> Iterator[ExecutionResult]:
        raise NotImplementedError


def run_item(kernel: EvaluationKernel, item: WorkItem) -> ExecutionResult:
    """One in-process kernel call, its failure captured as provenance."""
    try:
        artifact, stats, payload = kernel.run(item.spec)
    except Exception as error:
        return ExecutionResult(
            item, incidents=[_incident(1, type(error).__name__, str(error))]
        )
    return ExecutionResult(item, artifact, stats, payload)


class SerialExecutor(Executor):
    """In-process, in submission order — the conformance reference."""

    name = "serial"

    def execute(
        self, kernel: EvaluationKernel, items: Sequence[WorkItem]
    ) -> Iterator[ExecutionResult]:
        for item in items:
            telemetry.count("executor.dispatches")
            result = run_item(kernel, item)
            if not result.ok:
                telemetry.count("executor.failures")
            yield result


def _process_worker(task_queue, result_queue, kernel: EvaluationKernel) -> None:
    """Worker-process main loop: tasks in, ``(index, attempt, ok, payload)`` out.

    Runs until the ``None`` sentinel.  Exceptions are shipped back as plain
    ``(type name, message)`` pairs — never pickled exception objects, which
    may themselves fail to pickle (that is one of the faults the conformance
    suite injects).
    """
    while True:
        task = task_queue.get()
        if task is None:
            return
        index, attempt, spec = task
        try:
            artifact, stats, payload = kernel.run(spec)
        except BaseException as error:  # ship the failure, keep serving
            result_queue.put(
                (index, attempt, False, (type(error).__name__, str(error)))
            )
        else:
            result_queue.put(
                (index, attempt, True, (artifact, stats, payload))
            )


class _WorkerHandle:
    """Supervisor-side state of one worker process."""

    def __init__(self, result_queue, kernel) -> None:
        self.task_queue = multiprocessing.Queue()
        self.process = multiprocessing.Process(
            target=_process_worker,
            args=(self.task_queue, result_queue, kernel),
            daemon=True,
        )
        self.process.start()
        #: ``(index, attempt)`` of the task in flight, or None when idle.
        self.current: Optional[Tuple[int, int]] = None
        self.deadline: Optional[float] = None

    def dispatch(
        self, index: int, attempt: int, spec, timeout_s: Optional[float]
    ) -> None:
        self.task_queue.put((index, attempt, spec))
        self.current = (index, attempt)
        self.deadline = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )

    def stop(self) -> None:
        """Best-effort shutdown: sentinel, short join, then hard kill."""
        if self.process.is_alive():
            try:
                self.task_queue.put(None)
            except (OSError, ValueError):  # pragma: no cover - closed queue
                pass
            self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
        self.task_queue.close()


class ProcessExecutor(Executor):
    """Supervised worker-process fan-out with crash/timeout/retry.

    Worker *processes* each consume a private task queue and post results to
    one shared result queue.  The supervisor loop adds the semantics the
    conformance suite injects faults against:

    * **crash detection** — a worker that dies mid-task (segfault,
      ``os._exit``, OOM-kill) is noticed via ``is_alive``, the task is
      recorded as a ``WorkerCrashed`` incident and requeued, and a fresh
      worker (with a fresh task queue) replaces the dead one;
    * **hang detection** — with ``timeout_s`` set, a task that misses its
      deadline gets its worker terminated (``WorkerTimeout`` incident) and
      is retried on a fresh worker;
    * **bounded retries with poison quarantine** — each task runs at most
      ``1 + max_retries`` times; a spec that still fails is *quarantined*:
      its result carries the full incident history and the campaign
      continues (the runner decides raise-vs-record);
    * **stale-result fencing** — every dispatch is stamped with its attempt
      number and results are accepted only for the attempt currently
      outstanding, so a worker killed a microsecond after posting its result
      cannot double-complete a retried task.

    Results are yielded in completion order; campaign reports are
    order-independent by construction, so this is invisible downstream
    (pinned by the conformance suite).
    """

    name = "process"

    def __init__(
        self,
        workers: int = 4,
        max_retries: int = 2,
        timeout_s: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError("process executor needs workers >= 1")
        if max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if timeout_s is not None and timeout_s <= 0:
            raise ConfigurationError("timeout_s must be > 0 (or None)")
        self.workers = workers
        self.max_retries = max_retries
        self.timeout_s = timeout_s

    def execute(
        self, kernel: EvaluationKernel, items: Sequence[WorkItem]
    ) -> Iterator[ExecutionResult]:
        result_queue = multiprocessing.Queue()
        #: (item, attempt, incidents) not yet dispatched.
        pending = deque((item, 1, []) for item in items)
        #: index -> (attempt, incidents, item) currently on a worker.
        outstanding: Dict[int, Tuple[int, List[Dict[str, Any]], WorkItem]] = {}
        workers = [
            _WorkerHandle(result_queue, kernel)
            for _ in range(min(self.workers, len(items)))
        ]
        done = 0
        try:
            while done < len(items):
                for handle in workers:
                    if handle.current is None and pending:
                        item, attempt, incidents = pending.popleft()
                        outstanding[item.index] = (attempt, incidents, item)
                        telemetry.count("executor.dispatches")
                        handle.dispatch(
                            item.index, attempt, item.spec, self.timeout_s
                        )
                result = self._collect(
                    result_queue, outstanding, workers, pending
                )
                if result is not None:
                    done += 1
                    yield result
                for failure in self._check_health(
                    result_queue, kernel, outstanding, workers, pending
                ):
                    done += 1
                    yield failure
        finally:
            for handle in workers:
                handle.stop()
            result_queue.close()

    # Supervisor steps -------------------------------------------------------

    def _collect(
        self, result_queue, outstanding, workers, pending
    ) -> Optional[ExecutionResult]:
        """Receive at most one result; retry or finalise its task."""
        try:
            index, attempt, ok, payload = result_queue.get(timeout=POLL_S)
        except queue_module.Empty:
            return None
        record = outstanding.get(index)
        if record is None or record[0] != attempt:
            return None  # stale: the attempt was already failed over
        _, incidents, item = record
        del outstanding[index]
        for handle in workers:
            if handle.current == (index, attempt):
                handle.current = None
        if ok:
            artifact, stats, telemetry_payload = payload
            return ExecutionResult(
                item, artifact, stats, telemetry_payload, attempt, incidents
            )
        error_type, message = payload
        incidents.append(_incident(attempt, error_type, message))
        telemetry.count("executor.task_failures")
        return self._retry_or_quarantine(item, attempt, incidents, pending)

    def _check_health(
        self, result_queue, kernel, outstanding, workers, pending
    ) -> List[ExecutionResult]:
        """Detect dead and overdue workers; respawn and fail their tasks over."""
        failures: List[ExecutionResult] = []
        for position, handle in enumerate(workers):
            alive = handle.process.is_alive()
            if handle.current is None:
                if not alive:  # pragma: no cover - idle death is benign
                    workers[position] = _WorkerHandle(result_queue, kernel)
                continue
            index, attempt = handle.current
            if alive and (
                handle.deadline is None or time.monotonic() < handle.deadline
            ):
                continue
            if alive:  # overdue: kill the hung worker
                error_type = "WorkerTimeout"
                message = (
                    f"no result within {self.timeout_s}s; worker terminated"
                )
                handle.process.terminate()
                handle.process.join(timeout=2.0)
                telemetry.count("executor.timeouts")
            else:
                error_type = "WorkerCrashed"
                message = (
                    f"worker exited with code {handle.process.exitcode} "
                    "mid-task"
                )
                telemetry.count("executor.crashes")
            logger.warning(
                "worker %s on task %d (attempt %d): %s",
                "hung" if alive else "crashed",
                index,
                attempt,
                message,
            )
            workers[position] = _WorkerHandle(result_queue, kernel)
            record = outstanding.pop(index, None)
            if record is None or record[0] != attempt:
                continue  # its result landed just before the worker died
            _, incidents, item = record
            incidents.append(_incident(attempt, error_type, message))
            failure = self._retry_or_quarantine(
                item, attempt, incidents, pending
            )
            if failure is not None:
                failures.append(failure)
        return failures

    def _retry_or_quarantine(
        self, item, attempt, incidents, pending
    ) -> Optional[ExecutionResult]:
        """Requeue a failed attempt, or finalise the item as quarantined."""
        if attempt <= self.max_retries:
            telemetry.count("executor.retries")
            pending.append((item, attempt + 1, incidents))
            return None
        telemetry.count("executor.quarantined")
        logger.warning(
            "spec %r quarantined after %d attempt(s): %s",
            item.spec.name,
            attempt,
            incidents[-1]["message"] if incidents else "no incident recorded",
        )
        return ExecutionResult(item, attempts=attempt, incidents=incidents)


def make_executor(
    executor: Union[str, Executor, None] = None,
    workers: Optional[int] = None,
    max_retries: int = 2,
    timeout_s: Optional[float] = None,
) -> Executor:
    """Resolve an executor strategy from a name, instance or ``workers``.

    ``None`` picks the process executor when ``workers > 1``, serial
    otherwise.  A string picks a registry strategy (``serial`` /
    ``process``); ``process`` is sized by ``workers`` and takes the
    ``max_retries`` / ``timeout_s`` supervision knobs.  An :class:`Executor`
    instance passes through untouched.
    """
    if workers is not None and workers < 1:
        raise ConfigurationError("workers must be >= 1")
    if isinstance(executor, Executor):
        return executor
    if executor is None:
        executor = "process" if workers is not None and workers > 1 else "serial"
    if executor == "serial":
        return SerialExecutor()
    if executor == "process":
        return ProcessExecutor(
            4 if workers is None else workers,
            max_retries=max_retries,
            timeout_s=timeout_s,
        )
    raise ConfigurationError(
        f"unknown executor {executor!r}; available: {list(EXECUTOR_NAMES)}"
    )
