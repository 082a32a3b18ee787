"""Campaign execution: compose kernel × executor × store into a report.

A *campaign* is a list of :class:`~repro.campaigns.matrix.CampaignPoint`
objects — usually one matrix expansion.  The :class:`CampaignRunner` is a
thin composition of three strategies:

* the pure :class:`~repro.campaigns.kernel.EvaluationKernel` maps one
  validated spec to a byte-deterministic artifact (no process-global state);
* an :class:`~repro.campaigns.executors.Executor` fans the kernel over the
  specs the :class:`~repro.campaigns.store.ArtifactStore` could not serve —
  serially in-process, or over worker processes with crash/timeout/retry
  supervision;
* the store serves warm specs up
  front and persists every fresh artifact the moment it exists, so a failed
  campaign resumes incrementally.

The merged :class:`CampaignReport` carries per-spec artifacts, summed engine
counters, cross-scenario summary tables (worst SNR, peak temperature and
slowest settling per axis value) and — new with the executor layer —
per-spec *failure provenance*: every failed attempt of every spec, with the
spec's name and ``design_hash``, whether the spec eventually completed
(worker crash, retry, success) or was quarantined.

Reports are byte-deterministic and executor-independent: because every spec
runs on its own fresh :class:`~repro.scenarios.runner.ScenarioRunner`
whatever the substrate, both executors produce artifact JSON — and store
contents — byte-identical to a serial run (pinned by the tier-1
executor-conformance suite).
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .. import telemetry as telemetry_mod
from ..errors import ConfigurationError
from ..methodology.engine import ENGINE_COUNTERS, add_engine_counters
from ..telemetry import MetricsRegistry, aggregate_spans, payload_spans
from ..scenarios import (
    ALL_PATHS,
    SCHEMA_VERSION,
    ScenarioArtifact,
    ScenarioSpec,
)
from .executors import Executor, ExecutionResult, WorkItem, make_executor
from .kernel import EvaluationKernel, SpecExecutionError
from .matrix import CampaignPoint, ScenarioMatrix
from .store import ArtifactStore


def _metric_min(values: List[Optional[float]]) -> Optional[float]:
    known = [value for value in values if value is not None]
    return min(known) if known else None


def _metric_max(values: List[Optional[float]]) -> Optional[float]:
    known = [value for value in values if value is not None]
    return max(known) if known else None


def scenario_metrics(artifact: Mapping[str, Any]) -> Dict[str, Optional[float]]:
    """Cross-path headline metrics of one artifact dict (summary tables).

    ``worst_snr_db`` is the worst SNR the scenario sees anywhere (nominal
    steady-state report and the whole transient series), ``peak_temperature_c``
    the hottest per-ONI average at any operating point or time, and
    ``settling_s`` the slowest ONI settling time; paths the artifact does not
    carry contribute nothing (``None`` when no path carries the quantity).
    """
    results = artifact.get("results", {})
    snr_values: List[Optional[float]] = []
    temp_values: List[Optional[float]] = []
    settling: Optional[float] = None

    steady = results.get("steady")
    if steady:
        temp_values.append(steady.get("max_oni_temperature_c"))
    sweep = results.get("sweep")
    if sweep:
        temp_values.append(_metric_max(sweep.get("max_oni_temperature_c", [])))
    snr = results.get("snr")
    if snr:
        snr_values.append(snr.get("nominal", {}).get("worst_case_snr_db"))
        snr_values.append(
            _metric_min(
                [point.get("worst_case_snr_db") for point in snr.get("per_point", [])]
            )
        )
    transient = results.get("transient")
    if transient:
        temp_values.append(transient.get("max_oni_temperature_c"))
        snr_values.append(
            transient.get("snr", {}).get("overall_worst_snr_db")
        )
        settling = transient.get("settling", {}).get("max_settling_s")

    return {
        "worst_snr_db": _metric_min(snr_values),
        "peak_temperature_c": _metric_max(temp_values),
        "settling_s": settling,
    }


@dataclass
class CampaignReport:
    """Merged result of one campaign run (plain JSON document).

    ``failures`` maps scenario names to their failure provenance: the
    spec/design hashes, every failed attempt (``incidents``), the total
    attempt count and whether a retry eventually ``resolved`` the spec.  A
    fault-free campaign has an empty ``failures`` document whatever the
    executor — which is what keeps reports byte-identical across execution
    substrates.
    """

    campaign: str
    paths: Tuple[str, ...]
    scenarios: List[Dict[str, Any]]
    artifacts: Dict[str, Dict[str, Any]]
    summary: Dict[str, Any]
    engine: Dict[str, int]
    store: Optional[Dict[str, int]] = None
    failures: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Timing breakdown of a telemetry-enabled run (``None`` when telemetry
    #: was off, which keeps reports byte-identical to pre-telemetry ones):
    #: the campaign wall time, per-span-name aggregates, the merged metrics
    #: registry of every worker, and the full normalised span list
    #: (``trace``) the Chrome export is generated from.
    telemetry: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict view of the report."""
        return {
            "campaign": self.campaign,
            "schema_version": SCHEMA_VERSION,
            "paths": list(self.paths),
            "scenarios": self.scenarios,
            "artifacts": self.artifacts,
            "summary": self.summary,
            "engine": self.engine,
            "store": self.store,
            "failures": self.failures,
            "telemetry": self.telemetry,
        }

    def to_json(self) -> str:
        """Deterministic JSON document (sorted keys, fixed layout)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def artifact(self, scenario: str) -> ScenarioArtifact:
        """Artifact of one scenario of the campaign (raises on unknown)."""
        try:
            return ScenarioArtifact.from_dict(self.artifacts[scenario])
        except KeyError:
            raise ConfigurationError(
                f"campaign {self.campaign!r} has no scenario {scenario!r} "
                f"(available: {sorted(self.artifacts)})"
            ) from None

    def summary_rows(self) -> List[Dict[str, Any]]:
        """One row per scenario (name, axes, headline metrics) — CLI tables.

        Quarantined scenarios (present in ``failures``, absent from
        ``artifacts``) contribute a row with ``None`` metrics so the table
        still shows one line per declared scenario.
        """
        rows = []
        for entry in self.scenarios:
            artifact = self.artifacts.get(entry["name"])
            metrics = (
                {"worst_snr_db": None, "peak_temperature_c": None, "settling_s": None}
                if artifact is None
                else scenario_metrics(artifact)
            )
            rows.append({**entry, **metrics})
        return rows


class CampaignRunner:
    """Executes a campaign against an optional artifact store.

    Parameters
    ----------
    campaign:
        A :class:`~repro.campaigns.matrix.ScenarioMatrix` (expanded via
        :meth:`~repro.campaigns.matrix.ScenarioMatrix.points`), a list of
        :class:`~repro.campaigns.matrix.CampaignPoint` objects, or a plain
        list of specs (no axis metadata).
    store:
        Artifact store consulted before computing and updated after; ``None``
        computes everything.
    paths:
        Analysis paths every scenario runs (default: all four), validated
        by the kernel.
    workers:
        Worker-process count of the process executor.  With no explicit
        ``executor``, ``workers > 1`` selects the process executor and
        1/None runs serially in-process.
    name:
        Report name; defaults to the matrix name (required for bare lists).
    executor:
        Execution strategy for the specs the store cannot serve: a registry
        name (``serial`` / ``process``), an :class:`~repro.campaigns.
        executors.Executor` instance, or ``None`` for the ``workers``-driven
        default.
    on_error:
        ``"raise"`` (default) re-raises the first failing spec as a
        :class:`~repro.campaigns.kernel.SpecExecutionError` carrying its
        name and ``design_hash``; ``"quarantine"`` records every failure in
        the report (``failures`` + ``summary["failed"]``) and completes the
        campaign — with a store attached, a later re-run resumes from the
        completed artifacts and only retries the failed specs.
    max_retries / timeout_s:
        Fault-tolerance knobs of the ``process`` executor (bounded retries
        per spec, per-task deadline); ignored by the serial executor.
    warm_start:
        Serialised reduced-basis payload JSON documents shipped with the
        kernel: every scenario's transient solve replays in the reduced
        space when one of them matches it (see
        :class:`~repro.campaigns.kernel.EvaluationKernel`).  Their digest is
        folded into the store keys, so reduced replays and full-space
        artifacts never answer for each other.
    kernel:
        Evaluation kernel override (fault-injection tests, future reduced
        kernels); defaults to
        ``EvaluationKernel(paths, warm_start, telemetry)``.  The kernel
        alone holds the paths and the warm start: the store keys and the
        report read them off it, so an override's own settings win over
        ``paths`` and ``warm_start``.
    telemetry:
        Record a timing breakdown for the run: per-spec spans collected in
        every worker, merged with the coordinator's own spans and metrics
        into the report's ``telemetry`` section.  ``None`` (default) follows
        the module switch (:func:`repro.telemetry.is_enabled`), so enabling
        telemetry globally instruments campaigns without threading the flag
        through; ``False`` forces it off for this run.
    """

    def __init__(
        self,
        campaign: Union[ScenarioMatrix, Sequence[CampaignPoint], Sequence[ScenarioSpec]],
        store: Optional[ArtifactStore] = None,
        paths: Sequence[str] = ALL_PATHS,
        workers: Optional[int] = None,
        name: Optional[str] = None,
        executor: Union[str, Executor, None] = None,
        on_error: str = "raise",
        max_retries: int = 2,
        timeout_s: Optional[float] = None,
        warm_start: Sequence[str] = (),
        kernel: Optional[EvaluationKernel] = None,
        telemetry: Optional[bool] = None,
    ) -> None:
        if on_error not in ("raise", "quarantine"):
            raise ConfigurationError(
                f"on_error must be 'raise' or 'quarantine', not {on_error!r}"
            )
        if isinstance(campaign, ScenarioMatrix):
            self.points = campaign.points()
            self.name = name or campaign.name
        else:
            self.points = [
                point
                if isinstance(point, CampaignPoint)
                else CampaignPoint(spec=point)
                for point in campaign
            ]
            if name is None:
                raise ConfigurationError(
                    "campaigns built from bare point lists need a name"
                )
            self.name = name
        if not self.points:
            raise ConfigurationError(f"campaign {self.name!r} has no scenarios")
        names = [point.spec.name for point in self.points]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise ConfigurationError(
                f"campaign {self.name!r} lists duplicate scenario names "
                f"{duplicates}"
            )
        self.store = store
        self.workers = workers
        self.on_error = on_error
        self.telemetry = (
            telemetry_mod.is_enabled() if telemetry is None else bool(telemetry)
        )
        self.kernel = (
            EvaluationKernel(
                paths,
                warm_start=warm_start,
                telemetry=self.telemetry,
            )
            if kernel is None
            else kernel
        )
        # Resolve the strategy eagerly so an unknown executor name fails at
        # construction, not after the store already served half the campaign.
        self.executor = make_executor(
            executor,
            workers=workers,
            max_retries=max_retries,
            timeout_s=timeout_s,
        )

    def run(self) -> CampaignReport:
        """Execute the campaign and assemble the merged report.

        Store hits are served first; the remaining specs are shipped to the
        executor as :class:`~repro.campaigns.executors.WorkItem` objects
        and absorbed as their results stream back — each fresh artifact is
        written the moment it exists (in the background, see
        :meth:`ArtifactStore.deferred_index`; every write has landed before
        this returns or raises), so if a later spec fails the completed work
        is already in the store and a retry only recomputes what is
        genuinely new.

        With telemetry on, the whole run executes under a
        ``campaign:<name>`` root span inside its own collector; worker
        payloads shipped back with each result are merged with the
        coordinator capture into the report's ``telemetry`` section.
        """
        if not self.telemetry:
            return self._run(None)
        with telemetry_mod.enabled_scope(True), telemetry_mod.collect() as collector:
            payloads: List[Dict[str, Any]] = []
            with telemetry_mod.span(
                f"campaign:{self.name}", scenarios=len(self.points)
            ):
                report = self._run(payloads)
        report.telemetry = self._telemetry_section(collector, payloads)
        return report

    def _run(self, payloads: Optional[List[Dict[str, Any]]]) -> CampaignReport:
        """The store-then-execute core of :meth:`run`."""
        artifacts: Dict[str, Optional[Dict[str, Any]]] = {}
        from_store: Dict[str, bool] = {}
        failures: Dict[str, Dict[str, Any]] = {}
        engine_totals = dict.fromkeys(sorted(ENGINE_COUNTERS), 0)
        kernel = self.kernel

        items: List[WorkItem] = []
        # Store key of each work item, by its index: computed once for the
        # lookup and the write.
        keys: List[Optional[str]] = []
        for point in self.points:
            key = cached = None
            if self.store is not None:
                key = self.store.key_for(
                    point.spec, kernel.paths, kernel.warm_start_digest
                )
                cached = self.store.load(point.spec, key=key)
            if cached is not None:
                artifacts[point.spec.name] = cached.to_dict()
                from_store[point.spec.name] = True
            else:
                artifacts[point.spec.name] = None
                from_store[point.spec.name] = False
                items.append(WorkItem(len(items), point.spec))
                keys.append(key)
        # Each artifact's write starts the moment it is absorbed and runs
        # in the background; all have landed, and the index is refreshed
        # once, when the block exits.
        with (
            contextlib.nullcontext()
            if self.store is None
            else self.store.deferred_index()
        ):
            if items:
                for result in self.executor.execute(kernel, items):
                    self._absorb(
                        result,
                        keys[result.item.index],
                        artifacts,
                        failures,
                        engine_totals,
                        payloads,
                    )

        scenarios = [
            {
                "name": point.spec.name,
                "spec_hash": point.spec.content_hash(),
                "axes": dict(point.axes),
                "from_store": from_store[point.spec.name],
            }
            for point in self.points
        ]
        complete: Dict[str, Dict[str, Any]] = {
            name: artifact
            for name, artifact in artifacts.items()
            if artifact is not None
        }
        return CampaignReport(
            campaign=self.name,
            paths=kernel.paths,
            scenarios=scenarios,
            artifacts=complete,
            summary=self._summary(scenarios, complete, failures),
            engine=engine_totals,
            store=None if self.store is None else self.store.stats.to_dict(),
            failures=failures,
        )

    def _absorb(
        self,
        result: ExecutionResult,
        key: Optional[str],
        artifacts: Dict[str, Optional[Dict[str, Any]]],
        failures: Dict[str, Dict[str, Any]],
        engine_totals: Dict[str, int],
        payloads: Optional[List[Dict[str, Any]]] = None,
    ) -> None:
        """Fold one execution result into the campaign state.

        Successes persist to the store immediately, under their store
        ``key``; any incidents (failed attempts, recovered or not) land in
        the failure-provenance document; an unresolved spec either raises
        with full provenance (``on_error="raise"``) or is quarantined and
        the campaign keeps going.
        """
        spec = result.item.spec
        if payloads is not None and result.telemetry is not None:
            payloads.append(result.telemetry)
        if result.incidents:
            failures[spec.name] = result.provenance()
        if result.ok:
            artifacts[spec.name] = result.artifact
            add_engine_counters(engine_totals, result.stats)
            if self.store is not None:
                self.store.store(
                    spec,
                    ScenarioArtifact.from_dict(result.artifact),
                    self.kernel.paths,
                    key=key,
                )
            return
        if self.on_error == "raise":
            error = result.error
            raise SpecExecutionError(
                scenario=spec.name,
                design_hash=spec.design_hash(),
                attempts=result.attempts,
                error_type=error["type"],
                message=error["message"],
            )

    def _telemetry_section(
        self,
        collector: "telemetry_mod.SpanCollector",
        payloads: List[Dict[str, Any]],
    ) -> Dict[str, Any]:
        """Merge the coordinator capture and worker payloads into one view.

        Spans from every process are normalised onto the wall clock through
        their payload anchors; metrics merge commutatively (counters add,
        gauges max, histograms bucket-wise), so the section is independent
        of the order the executor delivered results in.
        """
        own = collector.to_payload()
        spans = payload_spans(own)
        metrics = MetricsRegistry.from_dict(own["metrics"])
        for payload in payloads:
            spans.extend(payload_spans(payload))
            metrics.merge(payload.get("metrics", {}))
        aggregates = aggregate_spans(spans)
        campaign_entry = aggregates.get(f"campaign:{self.name}")
        spans.sort(key=lambda record: (record["ts_us"], record["pid"]))
        return {
            "enabled": True,
            "wall_s": None if campaign_entry is None else campaign_entry["total_s"],
            "spans": aggregates,
            "metrics": metrics.to_dict(),
            "trace": spans,
        }

    def _summary(
        self,
        scenarios: List[Dict[str, Any]],
        artifacts: Mapping[str, Mapping[str, Any]],
        failures: Mapping[str, Mapping[str, Any]],
    ) -> Dict[str, Any]:
        """Cross-scenario tables: totals, extremes and per-axis-value rows.

        Quarantined scenarios carry no artifact; they count in
        ``scenario_count``/``failed`` but contribute nothing to the metric
        tables (the per-axis rows still count them as scenarios seen).
        """
        empty = {
            "worst_snr_db": None,
            "peak_temperature_c": None,
            "settling_s": None,
        }
        per_scenario = {
            entry["name"]: (
                scenario_metrics(artifacts[entry["name"]])
                if entry["name"] in artifacts
                else dict(empty)
            )
            for entry in scenarios
        }

        def extreme(metric: str, pick) -> Optional[Dict[str, Any]]:
            known = [
                (name, metrics[metric])
                for name, metrics in per_scenario.items()
                if metrics[metric] is not None
            ]
            if not known:
                return None
            name, value = pick(known, key=lambda item: item[1])
            return {"scenario": name, "value": value}

        by_axis: Dict[str, Dict[str, Dict[str, Any]]] = {}
        for entry in scenarios:
            metrics = per_scenario[entry["name"]]
            for axis, label in entry["axes"].items():
                row = by_axis.setdefault(axis, {}).setdefault(
                    label,
                    {
                        "scenarios": 0,
                        "worst_snr_db": None,
                        "peak_temperature_c": None,
                        "max_settling_s": None,
                    },
                )
                row["scenarios"] += 1
                row["worst_snr_db"] = _metric_min(
                    [row["worst_snr_db"], metrics["worst_snr_db"]]
                )
                row["peak_temperature_c"] = _metric_max(
                    [row["peak_temperature_c"], metrics["peak_temperature_c"]]
                )
                row["max_settling_s"] = _metric_max(
                    [row["max_settling_s"], metrics["settling_s"]]
                )

        return {
            "scenario_count": len(scenarios),
            "store_hits": sum(
                1 for entry in scenarios if entry["from_store"]
            ),
            "store_misses": sum(
                1 for entry in scenarios if not entry["from_store"]
            ),
            "failed": sum(
                1
                for provenance in failures.values()
                if not provenance["resolved"]
            ),
            "worst_snr_db": extreme("worst_snr_db", min),
            "peak_temperature_c": extreme("peak_temperature_c", max),
            "max_settling_s": extreme("settling_s", max),
            "by_axis": by_axis,
        }


def run_campaign(
    campaign: Union[ScenarioMatrix, Sequence[CampaignPoint]], **options: Any
) -> CampaignReport:
    """One-shot convenience wrapper around :class:`CampaignRunner`, which
    takes ``options`` as its keyword arguments."""
    return CampaignRunner(campaign, **options).run()
