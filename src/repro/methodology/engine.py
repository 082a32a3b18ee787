"""Shared sweep-execution engine for design-space exploration.

Every figure of the paper's Section V is a *sweep*: many steady-state thermal
evaluations of the same package under varying ``PVCSEL`` / ``Pheater`` /
chip-activity operating points (Figs. 9, 10, 12).  Before this module each
exploration helper walked the full flow once per point; :class:`SweepEngine`
centralises that execution so every helper (and the optimisation loops)
shares the same machinery:

* **planning** — points are expressed as :class:`SweepPoint` objects (a
  :class:`~repro.methodology.flow.ThermalRequest` plus the key of the flow it
  runs on) and evaluated in submission order;
* **deduplication** — evaluations are cached behind a content-derived key
  (flow, activity tile powers, ONI operating point, zoom setting), so a
  (scenario, activity) pair shared by several sweep points — or revisited by
  an optimiser — is solved exactly once;
* **batching** — cache misses on the same flow are grouped and solved
  through :meth:`~repro.methodology.flow.ThermalAwareDesignFlow.run_thermal_many`,
  which stacks their right-hand sides into one multi-RHS
  ``factor.solve(B)`` call against the flow's cached banded-Cholesky
  factorisation.
  Flows run one after another in-process; campaign-level parallelism lives
  in :mod:`repro.campaigns.executors`.

Timing (Fig. 9-a sweep, 24-ONI / 32.4 mm bench mesh, 16 points; together
with the separable box-overlap fast path this engine landed with): the cold
sweep — mesh build, factorisation and 16 points — drops from 6.35 s to
3.15 s (2.0x), a warm re-sweep of a fresh grid from 2.99 s to 1.00 s (3.0x),
and a re-sweep of an already-seen grid is served entirely from the
evaluation cache (~1 ms).  Temperatures are identical to the point-by-point
path.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass
from math import ceil
from typing import Dict, Hashable, Iterable, List, Mapping, Tuple, Union

from .. import telemetry
from ..caching import LruCache
from ..errors import ConfigurationError
from ..snr import LaserDriveConfig, SnrReport
from ..thermal import TransientSolver
from .flow import ThermalAwareDesignFlow, ThermalEvaluation, ThermalRequest
from .transient import TransientEvaluation, TransientRequest, transient_request_key

DEFAULT_FLOW_KEY = "default"


@dataclass(frozen=True)
class SweepPoint:
    """One planned evaluation: a thermal request bound to a flow."""

    request: ThermalRequest
    flow_key: str = DEFAULT_FLOW_KEY


#: Names of the :attr:`SweepEngine.stats` counters.  ``points_requested``
#: through ``batches`` cover the steady sweep path; ``snr_*`` the vectorized
#: link evaluation; ``transient_*`` / ``rom_*`` / ``basis_*`` /
#: ``factorizations_*`` the transient integrator (LU vs reduced-order,
#: a-posteriori fallbacks, stepper-factorisation reuse).
ENGINE_COUNTERS: Tuple[str, ...] = (
    "points_requested",
    "cache_hits",
    "thermal_solves",
    "batches",
    "snr_points_requested",
    "snr_cache_hits",
    "snr_evaluations",
    "snr_batches",
    "transient_points_requested",
    "transient_cache_hits",
    "transient_solves",
    "transient_lu_solves",
    "transient_rom_solves",
    "rom_hits",
    "rom_fallbacks",
    "basis_builds",
    "factorizations_built",
    "factorizations_reused",
)


def add_engine_counters(
    total: Dict[str, int], counters: Mapping[str, int]
) -> Dict[str, int]:
    """Add engine counters into ``total`` in place (returns ``total``).

    A campaign folds the counter dicts shipped back from every kernel run
    this way; a name outside :data:`ENGINE_COUNTERS` is rejected loudly.
    """
    unknown = sorted(set(counters) - set(ENGINE_COUNTERS))
    if unknown:
        raise ConfigurationError(
            f"unknown engine stats counters {unknown}; "
            f"known: {sorted(ENGINE_COUNTERS)}"
        )
    for name, value in counters.items():
        total[name] = total.get(name, 0) + int(value)
    return total


def evaluation_key(flow_key: str, request: ThermalRequest) -> Tuple[Hashable, ...]:
    """Content-derived cache key of one evaluation.

    Two requests with the same key produce the same
    :class:`~repro.methodology.flow.ThermalEvaluation` (the thermal problem
    is fully determined by the flow, the activity's tile powers, the ONI
    operating point and the zoom setting), so the engine may serve one from
    the other.
    """
    activity = request.activity
    power = request.power
    power_key = (
        None
        if power is None
        else (power.vcsel_power_w, power.heater_power_w, power.driver_power_w)
    )
    return (
        flow_key,
        activity.name,
        tuple(sorted(activity.tile_powers_w.items())),
        power_key,
        request.zoom_oni,
    )


#: The :meth:`SweepEngine.shared` engine of every live flow.
_shared_engines: "weakref.WeakKeyDictionary[ThermalAwareDesignFlow, SweepEngine]" = (
    weakref.WeakKeyDictionary()
)


class SweepEngine:
    """Plans, deduplicates and batch-executes sweep evaluations.

    The engine holds the history of its evaluations: its caches, its
    :attr:`stats` and one transient solver per flow and θ (the step sizes
    and reduced bases of its own solves).  The flows it runs on hold none,
    so several engines may share a flow without seeing each other's work.

    Parameters
    ----------
    flows:
        A single flow, or a mapping from flow key to flow when the sweep
        spans several independent meshes (e.g. placement scenarios).
    batch_size:
        Maximum number of right-hand sides stacked into one multi-RHS solve;
        bounds the ``(n_cells, batch_size)`` dense RHS/solution arrays.
    max_cache_entries:
        Evaluation-cache capacity; the least recently used entries are
        evicted beyond it.
    """

    def __init__(
        self,
        flows: Union[ThermalAwareDesignFlow, Mapping[str, ThermalAwareDesignFlow]],
        batch_size: int = 16,
        max_cache_entries: int = 256,
    ) -> None:
        if isinstance(flows, ThermalAwareDesignFlow):
            flows = {DEFAULT_FLOW_KEY: flows}
        if not flows:
            raise ConfigurationError("the engine needs at least one flow")
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if max_cache_entries < 1:
            raise ConfigurationError("max_cache_entries must be >= 1")
        self._flows: Dict[str, ThermalAwareDesignFlow] = dict(flows)
        self._batch_size = batch_size
        self._cache: LruCache[ThermalEvaluation] = LruCache(max_cache_entries)
        self._snr_cache: LruCache[SnrReport] = LruCache(max_cache_entries)
        self._transient_cache: LruCache[TransientEvaluation] = LruCache(
            max_cache_entries
        )
        self._transient_solvers: Dict[Tuple[str, float], TransientSolver] = {}
        #: Cumulative execution counters, one per :data:`ENGINE_COUNTERS`.
        self.stats: Dict[str, int] = dict.fromkeys(ENGINE_COUNTERS, 0)

    @classmethod
    def shared(cls, flow: ThermalAwareDesignFlow) -> "SweepEngine":
        """Engine shared by all helpers operating on ``flow``.

        Successive sweeps and optimisation runs on the same flow hit the
        same evaluation cache, so e.g. a Figure 10 comparison re-uses the
        points a Figure 9-b sweep already solved.  The engine is kept beside
        the flow, not on it, and holds the flow weakly, so it lives exactly
        as long as the flow does.  A caller whose history must stay its own
        on a flow other callers share (a scenario runner) builds its own
        engine instead.
        """
        engine = _shared_engines.get(flow)
        if engine is None:
            engine = cls(flow)
            # A strong reference from the engine would keep its key alive.
            engine._flows = weakref.WeakValueDictionary(engine._flows)
            _shared_engines[flow] = engine
        return engine

    # Introspection --------------------------------------------------------------

    def flow(self, flow_key: str = DEFAULT_FLOW_KEY) -> ThermalAwareDesignFlow:
        """The flow registered under ``flow_key``."""
        try:
            return self._flows[flow_key]
        except KeyError:
            raise ConfigurationError(f"unknown flow key {flow_key!r}") from None

    @property
    def cache_size(self) -> int:
        """Number of thermal evaluations currently cached."""
        return len(self._cache)

    @property
    def snr_cache_size(self) -> int:
        """Number of SNR reports currently cached."""
        return len(self._snr_cache)

    @property
    def transient_cache_size(self) -> int:
        """Number of transient evaluations currently cached."""
        return len(self._transient_cache)

    def transient_solver(
        self, theta: float = 1.0, flow_key: str = DEFAULT_FLOW_KEY
    ) -> TransientSolver:
        """The engine's transient solver on a flow, one per θ."""
        key = (flow_key, theta)
        solver = self._transient_solvers.get(key)
        if solver is None:
            solver = self.flow(flow_key).transient_solver(theta)
            self._transient_solvers[key] = solver
        return solver

    def rom_basis_payloads(self) -> List[str]:
        """Serialised reduced bases built by the engine's transient solves
        (deterministic JSON documents; persist through the store or ship as
        an :class:`~repro.campaigns.kernel.EvaluationKernel` warm-start
        payload)."""
        return [
            payload
            for solver in self._transient_solvers.values()
            for payload in solver.rom_payloads()
        ]

    def clear_cache(self) -> None:
        """Drop every cached thermal, SNR and transient evaluation."""
        self._cache.clear()
        self._snr_cache.clear()
        self._transient_cache.clear()

    # Execution ------------------------------------------------------------------

    def evaluate_one(
        self,
        request: ThermalRequest,
        flow_key: str = DEFAULT_FLOW_KEY,
    ) -> ThermalEvaluation:
        """Evaluate a single point (through the cache)."""
        return self.evaluate([SweepPoint(request=request, flow_key=flow_key)])[0]

    def evaluate(
        self,
        points: Iterable[Union[SweepPoint, ThermalRequest]],
    ) -> List[ThermalEvaluation]:
        """Evaluate every point, returning results in submission order.

        Bare :class:`~repro.methodology.flow.ThermalRequest` items run on the
        default flow.  Duplicate points (same evaluation key) are solved
        once; cache misses are grouped per flow and executed in multi-RHS
        batches.
        """
        plan: List[SweepPoint] = [
            point
            if isinstance(point, SweepPoint)
            else SweepPoint(request=point)
            for point in points
        ]
        keys: List[Tuple[Hashable, ...]] = []
        #: Results of this call, immune to cache evictions mid-call.
        resolved: Dict[Tuple[Hashable, ...], ThermalEvaluation] = {}
        pending: "OrderedDict[str, OrderedDict[Tuple[Hashable, ...], ThermalRequest]]" = (
            OrderedDict()
        )
        self.stats["points_requested"] += len(plan)
        for point in plan:
            if point.flow_key not in self._flows:
                raise ConfigurationError(f"unknown flow key {point.flow_key!r}")
            key = evaluation_key(point.flow_key, point.request)
            keys.append(key)
            if key in resolved:
                self.stats["cache_hits"] += 1
                continue
            cached = self._cache.get(key)
            if cached is not None:
                resolved[key] = cached
                self.stats["cache_hits"] += 1
                continue
            group = pending.setdefault(point.flow_key, OrderedDict())
            if key in group:
                self.stats["cache_hits"] += 1
            else:
                group[key] = point.request

        for flow_key, group in pending.items():
            with telemetry.span(
                "engine.thermal_batch", flow=flow_key, points=len(group)
            ):
                evaluations = self._flows[flow_key].run_thermal_many(
                    list(group.values()), batch_size=self._batch_size
                )
            for key, evaluation in zip(group, evaluations):
                resolved[key] = evaluation
                self._cache.put(key, evaluation)
            self.stats["batches"] += ceil(len(group) / self._batch_size)
            self.stats["thermal_solves"] += len(group)

        return [resolved[key] for key in keys]

    # Transient execution ---------------------------------------------------------

    def evaluate_transient(
        self,
        requests: Iterable[TransientRequest],
        flow_key: str = DEFAULT_FLOW_KEY,
    ) -> List[TransientEvaluation]:
        """Evaluate transient design points, in submission order.

        Evaluations are cached behind a content-derived key (trace phases,
        ONI operating point, integrator settings), so re-running a sweep —
        or an optimiser revisiting a trace — integrates each distinct trace
        once.  Cache misses run sequentially on the engine's
        :meth:`transient_solver` of the flow; the per-step-size
        factorisations are shared across every trace of the batch.
        """
        if flow_key not in self._flows:
            raise ConfigurationError(f"unknown flow key {flow_key!r}")
        flow = self._flows[flow_key]
        results: List[TransientEvaluation] = []
        for request in requests:
            self.stats["transient_points_requested"] += 1
            key = (flow_key, *transient_request_key(request))
            cached = self._transient_cache.get(key)
            if cached is not None:
                self.stats["transient_cache_hits"] += 1
                results.append(cached)
                continue
            with telemetry.span(
                "engine.transient_solve", flow=flow_key
            ) as solve_span:
                evaluation = flow.run_transient(
                    request, solver=self.transient_solver(request.theta, flow_key)
                )
                diagnostics = evaluation.result.diagnostics
                solve_span.set(
                    method=diagnostics.solver_method,
                    rom_fallback=diagnostics.rom_fallback,
                    factorizations_computed=diagnostics.factorizations_computed,
                )
            self.stats["transient_solves"] += 1
            self._absorb_transient_diagnostics(evaluation)
            self._transient_cache.put(key, evaluation)
            results.append(evaluation)
        return results

    def _absorb_transient_diagnostics(
        self, evaluation: TransientEvaluation
    ) -> None:
        """Fold one solve's diagnostics into the provenance counters.

        Everything here derives from the per-solve
        :class:`~repro.thermal.TransientDiagnostics` — a pure function of
        the request and this engine's solver history — never from
        process-global cache state or a shared flow, so merged campaign
        stats are byte-identical whatever the executor topology.
        """
        diagnostics = evaluation.result.diagnostics
        if diagnostics.solver_method == "rom":
            self.stats["transient_rom_solves"] += 1
            self.stats["rom_hits"] += 1
        else:
            self.stats["transient_lu_solves"] += 1
            self.stats["factorizations_built"] += diagnostics.factorizations_computed
            self.stats["factorizations_reused"] += max(
                0, diagnostics.distinct_steps - diagnostics.factorizations_computed
            )
        if diagnostics.rom_basis_built:
            self.stats["basis_builds"] += 1
        if diagnostics.rom_fallback:
            self.stats["rom_fallbacks"] += 1

    def evaluate_transient_one(
        self,
        request: TransientRequest,
        flow_key: str = DEFAULT_FLOW_KEY,
    ) -> TransientEvaluation:
        """Evaluate a single transient point (through the cache)."""
        return self.evaluate_transient([request], flow_key=flow_key)[0]

    # SNR execution ---------------------------------------------------------------

    def evaluate_snr(
        self,
        points: Iterable[Union[SweepPoint, ThermalRequest]],
        drive: LaserDriveConfig,
    ) -> List[SnrReport]:
        """Thermal + SNR evaluation of every point, in submission order.

        The thermal half runs through :meth:`evaluate` (deduplicated,
        multi-RHS batched); the SNR half stacks each
        flow's pending states into one vectorized
        :meth:`~repro.methodology.flow.ThermalAwareDesignFlow.run_snr_many`
        call on the flow's default routed network.  Reports are cached
        behind the thermal content key plus the drive, so optimisers
        revisiting a design point (or a sweep re-running a grid) skip both
        halves entirely.
        """
        plan: List[SweepPoint] = [
            point
            if isinstance(point, SweepPoint)
            else SweepPoint(request=point)
            for point in points
        ]
        self.stats["snr_points_requested"] += len(plan)
        keys: List[Tuple[Hashable, ...]] = []
        resolved: Dict[Tuple[Hashable, ...], SnrReport] = {}
        pending: "OrderedDict[str, OrderedDict[Tuple[Hashable, ...], SweepPoint]]" = (
            OrderedDict()
        )
        for point in plan:
            if point.flow_key not in self._flows:
                raise ConfigurationError(f"unknown flow key {point.flow_key!r}")
            # The flow's default network is fixed for its lifetime, so the
            # flow key names it: the thermal key plus the drive is complete.
            key = (
                *evaluation_key(point.flow_key, point.request),
                drive.current_a,
                drive.dissipated_power_w,
            )
            keys.append(key)
            if key in resolved:
                self.stats["snr_cache_hits"] += 1
                continue
            cached = self._snr_cache.get(key)
            if cached is not None:
                resolved[key] = cached
                self.stats["snr_cache_hits"] += 1
                continue
            group = pending.setdefault(point.flow_key, OrderedDict())
            if key in group:
                self.stats["snr_cache_hits"] += 1
            else:
                group[key] = point

        # Thermal step for every miss at once (deduplicated / batched by the
        # thermal machinery), then one batched SNR evaluation
        # per flow with pending work.
        miss_points = [point for group in pending.values() for point in group.values()]
        evaluations = self.evaluate(miss_points)
        cursor = 0
        for flow_key, group in pending.items():
            flow_evaluations = evaluations[cursor : cursor + len(group)]
            cursor += len(group)
            with telemetry.span(
                "engine.snr_batch", flow=flow_key, points=len(group)
            ):
                batch = self._flows[flow_key].run_snr_many(flow_evaluations, drive)
            for index, key in enumerate(group):
                report = batch.report(index)
                resolved[key] = report
                self._snr_cache.put(key, report)
            self.stats["snr_evaluations"] += len(group)
            self.stats["snr_batches"] += 1

        return [resolved[key] for key in keys]

