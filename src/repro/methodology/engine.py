"""Shared sweep-execution engine for design-space exploration.

Every figure of the paper's Section V is a *sweep*: many steady-state thermal
evaluations of one package design under varying ``PVCSEL`` / ``Pheater`` /
chip-activity operating points (Figs. 9, 10, 12).  A :class:`SweepEngine`
runs the sweeps of one :class:`~repro.methodology.flow.ThermalAwareDesignFlow`,
so every helper (and the optimisation loops) shares the same machinery:

* **planning** — points are :class:`~repro.methodology.flow.ThermalRequest`
  objects, evaluated in submission order;
* **deduplication** — evaluations are cached behind a content-derived key
  (activity tile powers, ONI operating point, zoom setting), so a design
  point shared by several sweeps — or revisited by an optimiser — is solved
  exactly once;
* **batching** — cache misses go to one
  :meth:`~repro.methodology.flow.ThermalAwareDesignFlow.run_thermal_many`
  call, which superposes a small design's coarse fields from its shared
  response basis, and stacks a larger design's into multi-RHS solves of at
  most :data:`~repro.methodology.flow.BATCH_COLUMNS` columns against the
  flow's cached banded-Cholesky factorisation (the ``batches`` counter
  reads that chunking either way).

The engine runs in-process; campaign-level parallelism lives in
:mod:`repro.campaigns.executors`.
"""

from __future__ import annotations

import weakref
from math import ceil
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    TypeVar,
)

from .. import telemetry
from ..caching import LruCache
from ..errors import ConfigurationError
from ..snr import LaserDriveConfig, SnrReport
from ..thermal import TransientSolver
from ..thermal.rom import active_scope
from . import flow as flow_module
from .flow import ThermalAwareDesignFlow, ThermalEvaluation, ThermalRequest
from .transient import TransientEvaluation, TransientRequest, transient_request_key

Key = Tuple[Hashable, ...]
V = TypeVar("V")

#: Capacity of each of an engine's evaluation caches (thermal, SNR,
#: transient); the least recently used entries are evicted beyond it.
CACHE_CAPACITY = 256


#: Names of the :attr:`SweepEngine.stats` counters.  ``points_requested``
#: through ``batches`` cover the steady sweep path; ``snr_*`` the vectorized
#: link evaluation; ``transient_*`` / ``rom_*`` / ``factorizations_*`` the
#: transient integrator (LU vs reduced-order, a-posteriori fallbacks,
#: stepper-factorisation reuse).
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
    "rom_fallbacks",
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


def evaluation_key(request: ThermalRequest) -> Key:
    """Content-derived cache key of one evaluation on a flow.

    Two requests with the same key produce the same
    :class:`~repro.methodology.flow.ThermalEvaluation` on one flow (the
    thermal problem is fully determined by the flow, the activity's tile
    powers, the ONI operating point and the zoom setting), so the engine may
    serve one from the other.
    """
    activity = request.activity
    power = request.power
    power_key = (
        None
        if power is None
        else (power.vcsel_power_w, power.heater_power_w, power.driver_power_w)
    )
    return (
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
    """Plans, deduplicates and batch-executes the sweep evaluations of one
    flow.

    The engine holds the history of its evaluations: its caches, its
    :attr:`stats` and one transient solver per θ (the step sizes and reduced
    bases of its own solves).  The flow it runs on holds none, so several
    engines may share a flow without seeing each other's work.
    """

    def __init__(self, flow: ThermalAwareDesignFlow) -> None:
        #: Returns the flow; :meth:`shared` swaps in a weak reference.
        self._flow: Callable[[], Optional[ThermalAwareDesignFlow]] = lambda: flow
        self._cache: LruCache[ThermalEvaluation] = LruCache(CACHE_CAPACITY)
        self._snr_cache: LruCache[SnrReport] = LruCache(CACHE_CAPACITY)
        self._transient_cache: LruCache[TransientEvaluation] = LruCache(
            CACHE_CAPACITY
        )
        self._transient_solvers: Dict[float, TransientSolver] = {}
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
            engine._flow = weakref.ref(flow)
            _shared_engines[flow] = engine
        return engine

    # Introspection --------------------------------------------------------------

    def flow(self) -> ThermalAwareDesignFlow:
        """The flow the engine runs on."""
        flow = self._flow()
        if flow is None:
            raise ConfigurationError("the engine's flow no longer exists")
        return flow

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

    def transient_solver(self, theta: float = 1.0) -> TransientSolver:
        """The engine's transient solver on its flow, one per θ."""
        solver = self._transient_solvers.get(theta)
        if solver is None:
            solver = self.flow().transient_solver(theta)
            self._transient_solvers[theta] = solver
        return solver

    def clear_cache(self) -> None:
        """Drop every cached thermal, SNR and transient evaluation."""
        self._cache.clear()
        self._snr_cache.clear()
        self._transient_cache.clear()

    # Execution ------------------------------------------------------------------

    def _lookup(
        self,
        requests: Iterable[ThermalRequest],
        key_of: Callable[[ThermalRequest], Key],
        cache: LruCache[V],
        hits: str,
    ) -> Tuple[List[Key], Dict[Key, V], Dict[Key, ThermalRequest]]:
        """The key of every request in order, the results already served
        (from ``cache``, immune to its evictions for the rest of the call)
        and the distinct misses; every request not a first miss counts one
        ``hits``."""
        keys: List[Key] = []
        resolved: Dict[Key, V] = {}
        pending: Dict[Key, ThermalRequest] = {}
        for request in requests:
            key = key_of(request)
            keys.append(key)
            if key in resolved or key in pending:
                self.stats[hits] += 1
                continue
            cached = cache.get(key)
            if cached is not None:
                resolved[key] = cached
                self.stats[hits] += 1
            else:
                pending[key] = request
        return keys, resolved, pending

    def evaluate_one(self, request: ThermalRequest) -> ThermalEvaluation:
        """Evaluate a single point (through the cache)."""
        return self.evaluate([request])[0]

    def evaluate(self, requests: Iterable[ThermalRequest]) -> List[ThermalEvaluation]:
        """Evaluate every point, returning results in submission order.

        Duplicate points (same evaluation key) are evaluated once; cache
        misses go to the flow in one batch.
        """
        keys, resolved, pending = self._lookup(
            requests, evaluation_key, self._cache, "cache_hits"
        )
        self.stats["points_requested"] += len(keys)

        if pending:
            with telemetry.span("engine.thermal_batch", points=len(pending)):
                evaluations = self.flow().run_thermal_many(list(pending.values()))
            for key, evaluation in zip(pending, evaluations):
                resolved[key] = evaluation
                self._cache.put(key, evaluation)
            self.stats["batches"] += ceil(len(pending) / flow_module.BATCH_COLUMNS)
            self.stats["thermal_solves"] += len(pending)

        return [resolved[key] for key in keys]

    # Transient execution ---------------------------------------------------------

    def evaluate_transient(
        self, requests: Iterable[TransientRequest]
    ) -> List[TransientEvaluation]:
        """Evaluate transient design points, in submission order.

        Evaluations are cached behind a content-derived key (trace phases,
        ONI operating point, integrator settings) and the basis scope they
        were solved in (:func:`repro.thermal.basis_scope`), so re-running a
        sweep — or an optimiser revisiting a trace — integrates each
        distinct trace once per scope.  Cache misses run sequentially on the engine's
        :meth:`transient_solver`; the per-step-size factorisations are
        shared across every trace of the batch.
        """
        results: List[TransientEvaluation] = []
        for request in requests:
            self.stats["transient_points_requested"] += 1
            key = (transient_request_key(request), active_scope())
            cached = self._transient_cache.get(key)
            if cached is not None:
                self.stats["transient_cache_hits"] += 1
                results.append(cached)
                continue
            with telemetry.span("engine.transient_solve") as solve_span:
                evaluation = self.flow().run_transient(
                    request, solver=self.transient_solver(request.theta)
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
        else:
            self.stats["transient_lu_solves"] += 1
            self.stats["factorizations_built"] += diagnostics.factorizations_computed
            self.stats["factorizations_reused"] += max(
                0, diagnostics.distinct_steps - diagnostics.factorizations_computed
            )
        if diagnostics.rom_fallback:
            self.stats["rom_fallbacks"] += 1

    def evaluate_transient_one(self, request: TransientRequest) -> TransientEvaluation:
        """Evaluate a single transient point (through the cache)."""
        return self.evaluate_transient([request])[0]

    # SNR execution ---------------------------------------------------------------

    def evaluate_snr(
        self, requests: Iterable[ThermalRequest], drive: LaserDriveConfig
    ) -> List[SnrReport]:
        """Thermal + SNR evaluation of every point, in submission order.

        The thermal half runs through :meth:`evaluate` (deduplicated,
        batched); the SNR half stacks the pending states into one
        vectorized
        :meth:`~repro.methodology.flow.ThermalAwareDesignFlow.run_snr_many`
        call on the flow's default routed network.  Reports are cached
        behind the thermal content key plus the drive, so optimisers
        revisiting a design point (or a sweep re-running a grid) skip both
        halves entirely.
        """

        def snr_key(request: ThermalRequest) -> Key:
            # The flow's default network is fixed for its lifetime, so the
            # thermal key plus the drive is complete.
            return (*evaluation_key(request), drive.current_a, drive.dissipated_power_w)

        keys, resolved, pending = self._lookup(
            requests, snr_key, self._snr_cache, "snr_cache_hits"
        )
        self.stats["snr_points_requested"] += len(keys)

        if pending:
            evaluations = self.evaluate(list(pending.values()))
            with telemetry.span("engine.snr_batch", points=len(pending)):
                batch = self.flow().run_snr_many(evaluations, drive)
            for index, key in enumerate(pending):
                report = batch.report(index)
                resolved[key] = report
                self._snr_cache.put(key, report)
            self.stats["snr_evaluations"] += len(pending)
            self.stats["snr_batches"] += 1

        return [resolved[key] for key in keys]
