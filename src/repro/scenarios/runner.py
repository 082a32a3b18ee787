"""Execute declarative scenarios through every engine of the library.

The :class:`ScenarioRunner` materialises a
:class:`~repro.scenarios.spec.ScenarioSpec` into the concrete objects of the
repository (architecture, placement scenario, design flow) and replays it
through the four analysis paths (specs of one design share the flow; see
:class:`ScenarioRunner`):

* ``steady`` — one zoomed steady-state evaluation at the nominal operating
  point (:meth:`~repro.methodology.SweepEngine.evaluate_one`);
* ``sweep`` — a PVCSEL sweep over ``spec.sweep_scales``, deduplicated and
  batched by the runner's :class:`~repro.methodology.SweepEngine`;
* ``snr`` — the batched-SNR evaluation of the same sweep points (thermal
  results served from the engine cache, SNR in one vectorized pass);
* ``transient`` — the spec's activity trace integrated by the transient
  solver and chained into the time-resolved SNR series.

The result is a :class:`ScenarioArtifact`: a plain JSON document of key
temperatures, per-link SNR statistics and time-series summaries, pinned to
the spec's content hash.  Artifacts are byte-deterministic — running the
same spec twice produces the identical JSON — which is what the golden
regression harness in ``tests/golden/`` relies on.
"""

from __future__ import annotations

import contextvars
import json
import threading
import time
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .. import telemetry
from ..activity import (
    ActivityPattern,
    ActivityTrace,
    SyntheticTraceGenerator,
)
from ..activity.patterns import (
    checkerboard_activity,
    diagonal_activity,
    gradient_activity,
    hotspot_activity,
    infrastructure_activity,
    random_activity,
    uniform_activity,
)
from ..casestudy import (
    OniRingScenario,
    SccArchitecture,
    SccPackageParameters,
    build_oni_ring_scenario,
    build_scc_architecture,
)
from ..config import SimulationSettings
from ..errors import ConfigurationError
from ..methodology import (
    SweepEngine,
    ThermalAwareDesignFlow,
    ThermalRequest,
    TransientRequest,
)
from ..oni import OniPowerConfig
from ..snr import LaserDriveConfig
from ..thermal import BasisScope, basis_scope
from ..thermal.factorization import shared_cache
from .spec import SCHEMA_VERSION, ScenarioSpec, TraceSpec, WorkloadSpec

#: Analysis paths a runner can execute, in canonical order.
ALL_PATHS: Tuple[str, ...] = ("steady", "sweep", "snr", "transient")

#: Tolerance band of the settling-time summary in transient artifacts [degC].
SETTLING_TOLERANCE_C = 0.5


def validate_paths(paths: Sequence[str]) -> Tuple[str, ...]:
    """``paths`` as a tuple, once checked to name at least one known path."""
    requested = tuple(paths)
    if not requested:
        raise ConfigurationError(
            f"an evaluation needs at least one analysis path "
            f"(available: {list(ALL_PATHS)})"
        )
    unknown = sorted(set(requested) - set(ALL_PATHS))
    if unknown:
        raise ConfigurationError(
            f"unknown analysis paths {unknown}; available: {list(ALL_PATHS)}"
        )
    return requested


@dataclass
class ScenarioArtifact:
    """Structured, JSON-serialisable result of one scenario run."""

    scenario: str
    spec_hash: str
    schema_version: int
    results: Dict[str, Any]

    def section(self, path: str) -> Any:
        """Result section of one analysis path (raises on unknown path)."""
        try:
            return self.results[path]
        except KeyError:
            raise ConfigurationError(
                f"artifact of {self.scenario!r} has no {path!r} section "
                f"(available: {sorted(self.results)})"
            ) from None

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict view of the artifact."""
        return {
            "scenario": self.scenario,
            "spec_hash": self.spec_hash,
            "schema_version": self.schema_version,
            "results": self.results,
        }

    def to_json(self) -> str:
        """Deterministic JSON document (sorted keys, fixed layout).

        Running the same spec twice yields the identical byte sequence, so
        golden files regenerate reproducibly and ``git diff`` stays quiet
        when nothing changed.
        """
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioArtifact":
        """Rebuild an artifact from its plain-dict form."""
        try:
            return cls(
                scenario=data["scenario"],
                spec_hash=data["spec_hash"],
                schema_version=data["schema_version"],
                results=dict(data["results"]),
            )
        except KeyError as error:
            raise ConfigurationError(
                f"artifact document misses the {error.args[0]!r} field"
            ) from None

    @classmethod
    def from_json(cls, text: str) -> "ScenarioArtifact":
        """Parse an artifact JSON document."""
        return cls.from_dict(json.loads(text))


def build_workload(
    floorplan, workload: WorkloadSpec
) -> ActivityPattern:
    """Materialise a workload spec into an :class:`ActivityPattern`.

    ``infrastructure_fraction`` of the total power is spread over the
    floorplan's infrastructure blocks (memory controllers, system interface)
    when it has any — matching the paper's observation that the SCC die is
    thermally asymmetric even under uniform tile activity.  The remainder
    goes to the tiles through the requested pattern family.
    """
    params = workload.params
    fraction = workload.infrastructure_fraction
    static = infrastructure_activity(floorplan, workload.total_power_w * fraction)
    if not static.tile_powers_w:
        fraction = 0.0
    tile_power = workload.total_power_w * (1.0 - fraction)

    kind = workload.kind
    if kind == "uniform":
        pattern = uniform_activity(floorplan, tile_power)
    elif kind == "diagonal":
        pattern = diagonal_activity(floorplan).scaled_to(tile_power)
    elif kind == "random":
        pattern = random_activity(floorplan, tile_power, seed=workload.seed)
    elif kind == "hotspot":
        pattern = hotspot_activity(
            floorplan,
            tile_power,
            hotspot_fraction=float(params.get("hotspot_fraction", 0.5)),
            hotspot_tiles=int(params.get("hotspot_tiles", 2)),
        )
    elif kind == "checkerboard":
        pattern = checkerboard_activity(
            floorplan, tile_power, contrast=float(params.get("contrast", 3.0))
        )
    elif kind == "gradient":
        pattern = gradient_activity(
            floorplan, tile_power, axis=str(params.get("axis", "x"))
        )
    else:  # pragma: no cover - the spec schema rejects unknown kinds
        raise ConfigurationError(f"unknown workload kind {kind!r}")

    if fraction > 0.0:
        pattern = pattern.merged_with(static, name=pattern.name)
    return pattern


def build_trace(
    floorplan,
    trace: TraceSpec,
    workload: WorkloadSpec,
    base_activity: ActivityPattern,
) -> ActivityTrace:
    """Materialise a trace spec into an :class:`ActivityTrace`.

    Randomised families (``migration``, ``ramp``, ``random_walk``) run on the
    seeded per-method streams of :class:`SyntheticTraceGenerator`, so equal
    specs always produce the identical trace.  ``two_phase`` alternates the
    scenario's own workload between a low-power and the full-power level —
    the canonical "idle / burst" pattern.
    """
    params = trace.params
    total = workload.total_power_w
    generator = SyntheticTraceGenerator(floorplan, seed=trace.seed)
    if trace.kind == "migration":
        return generator.migration_trace(
            total_power_w=total,
            phases=trace.phases,
            phase_duration_s=trace.phase_duration_s,
            active_fraction=float(params.get("active_fraction", 0.25)),
        )
    if trace.kind == "ramp":
        low_fraction = float(params.get("low_fraction", 0.4))
        return generator.ramp_trace(
            floor_power_w=low_fraction * total,
            peak_power_w=total,
            phases=trace.phases,
            phase_duration_s=trace.phase_duration_s,
        )
    if trace.kind == "random_walk":
        return generator.random_walk_trace(
            phases=trace.phases,
            mean_power_w=total,
            phase_duration_s=trace.phase_duration_s,
            volatility=float(params.get("volatility", 0.2)),
        )
    if trace.kind == "two_phase":
        low_fraction = float(params.get("low_fraction", 0.4))
        low = base_activity.scaled_to(low_fraction * total)
        result = ActivityTrace(name=f"two_phase_{base_activity.name}")
        for index in range(trace.phases):
            phase_activity = base_activity if index % 2 else low
            result.add_phase(phase_activity, trace.phase_duration_s)
        return result
    raise ConfigurationError(  # pragma: no cover - schema rejects unknown kinds
        f"unknown trace kind {trace.kind!r}"
    )


class ScenarioRunner:
    """Builds and executes one declarative scenario end to end.

    Construction is lazy and cached: the flow (with its architecture and
    placement scenario) and the sweep engine are materialised on first use
    and reused by every path.  The flow comes from the shared cache, keyed
    by :meth:`~repro.scenarios.spec.ScenarioSpec.flow_hash`, so the thermal
    mesh, zoom window, compiled ONI geometry and SNR engine are built once
    per design per process, whatever the number of specs or paths.  The
    engine is the runner's own: its caches, counters and transient solvers
    see this runner's work only.

    The transient path replays in the reduced space when a basis for its
    problem is in scope (:func:`repro.thermal.basis_scope`); the path taken
    is recorded in the artifact's solver-provenance block.
    """

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec
        self._flow: Optional[ThermalAwareDesignFlow] = None
        self._engine: Optional[SweepEngine] = None
        self._activity: Optional[ActivityPattern] = None

    # Materialisation -------------------------------------------------------

    def architecture(self) -> SccArchitecture:
        """Case-study architecture of the spec (the flow's)."""
        return self.flow().architecture

    def scenario(self) -> OniRingScenario:
        """ONI placement scenario of the spec (the flow's)."""
        return self.flow().scenario

    def flow(self) -> ThermalAwareDesignFlow:
        """Design flow of the spec's design, shared with every spec of equal
        chip, mesh, network and power sections (cached)."""
        if self._flow is None:
            self._flow = shared_cache.flow(self.spec.flow_hash(), self._build_flow)
        return self._flow

    def _build_flow(self) -> ThermalAwareDesignFlow:
        """The flow over the spec's chip, mesh, network and power sections;
        nothing else of the spec (not even its name) may reach it."""
        chip, mesh, network = self.spec.chip, self.spec.mesh, self.spec.network
        parameters = SccPackageParameters.from_dict(
            {
                "die_width_mm": chip.die_width_mm,
                "die_height_mm": chip.die_height_mm,
                "tile_columns": chip.tile_columns,
                "tile_rows": chip.tile_rows,
                "include_infrastructure": chip.include_infrastructure,
                **chip.package_overrides,
            }
        )
        settings = SimulationSettings(
            oni_cell_size_um=mesh.oni_cell_size_um,
            die_cell_size_um=mesh.die_cell_size_um,
            zoom_cell_size_um=mesh.zoom_cell_size_um,
            ambient_temperature_c=mesh.ambient_c,
        )
        architecture = build_scc_architecture(
            parameters=parameters, settings=settings
        )
        scenario = build_oni_ring_scenario(
            architecture,
            ring_length_mm=network.ring_length_mm,
            oni_count=network.oni_count,
            power=self.power_config(),
        )
        return ThermalAwareDesignFlow(
            architecture,
            scenario,
            waveguide_count=network.waveguide_count,
            channels_per_waveguide=network.channels_per_waveguide,
            shift_hops=network.shift_hops,
        )

    def engine(self) -> SweepEngine:
        """Sweep engine of this runner, shared by all its paths (cached)."""
        if self._engine is None:
            self._engine = SweepEngine(self.flow())
        return self._engine

    def power_config(self) -> OniPowerConfig:
        """Nominal ONI operating point of the spec."""
        power = self.spec.power
        driver = (
            None
            if power.driver_power_mw is None
            else power.driver_power_mw * 1.0e-3
        )
        return OniPowerConfig(
            vcsel_power_w=power.vcsel_power_mw * 1.0e-3,
            heater_power_w=power.heater_ratio * power.vcsel_power_mw * 1.0e-3,
            driver_power_w=driver,
        )

    def drive(self) -> LaserDriveConfig:
        """Laser drive policy of the SNR analyses."""
        power = self.spec.power
        drive_mw = (
            power.vcsel_power_mw
            if power.drive_power_mw is None
            else power.drive_power_mw
        )
        return LaserDriveConfig.from_dissipated_mw(drive_mw)

    def activity(self) -> ActivityPattern:
        """Chip activity of the spec's workload (cached)."""
        if self._activity is None:
            self._activity = build_workload(
                self.architecture().floorplan, self.spec.workload
            )
        return self._activity

    def trace(self) -> ActivityTrace:
        """Activity trace of the spec (raises when the spec has none)."""
        if self.spec.trace is None:
            raise ConfigurationError(
                f"scenario {self.spec.name!r} declares no trace; the "
                "transient path cannot run"
            )
        return build_trace(
            self.architecture().floorplan,
            self.spec.trace,
            self.spec.workload,
            self.activity(),
        )

    # Execution -------------------------------------------------------------

    def _sweep_requests(self) -> List[ThermalRequest]:
        """One zoom-less thermal request per sweep scale, in spec order."""
        activity = self.activity()
        base = self.power_config()
        return [
            ThermalRequest(
                activity=activity,
                power=base.with_vcsel_power(scale * base.vcsel_power_w)
                .with_heater_ratio(self.spec.power.heater_ratio),
                zoom_oni=None,
            )
            for scale in self.spec.sweep_scales
        ]

    @contextmanager
    def _timed_path(
        self, name: str, timings: Dict[str, float]
    ) -> Iterator[None]:
        """Span + wall-time capture of one analysis path."""
        with telemetry.span(f"path.{name}", scenario=self.spec.name):
            start = time.perf_counter()
            yield
            timings[name] = time.perf_counter() - start

    def run(self, paths: Sequence[str] = ALL_PATHS) -> ScenarioArtifact:
        """Execute the requested analysis paths and assemble the artifact.

        The transient path (with its time-resolved SNR) runs as one task on
        a daemon thread while the steady, sweep and SNR paths run on the
        calling thread; the two meet only at the package factor, which the
        shared cache builds once for both.  The task runs in a copy of the
        caller's context, so its spans join the caller's telemetry, and is
        joined before this returns or raises.  An error of either side
        propagates; when both fail, the calling thread's wins.

        While telemetry is enabled the artifact gains a ``telemetry``
        provenance subdict (per-path wall times and the wall time of the
        whole run); the golden comparator skips it via
        ``PROVENANCE_SUFFIXES``, and with telemetry disabled (the default)
        it is absent entirely so artifacts stay byte-identical to the
        pre-telemetry ones.
        """
        requested = validate_paths(paths)
        start = time.perf_counter()
        timings: Dict[str, float] = {}
        # Materialised here, so the task shares this runner's one engine.
        engine = self.engine()
        transient = (
            self._transient_request() if "transient" in requested else None
        )
        outcome: "Future[Dict[str, Any]]" = Future()
        task = None
        if transient is not None:
            section = partial(self._transient_section, engine, transient, timings)
            task = threading.Thread(
                target=contextvars.copy_context().run,
                args=(_settle, outcome, section),
                name=f"transient:{self.spec.name}",
                daemon=True,
            )
            task.start()
        try:
            results = self._steady_sections(engine, requested, timings)
        finally:
            if task is not None:
                task.join()
        if "transient" in requested:
            results["transient"] = None if task is None else outcome.result()

        if telemetry.is_enabled():
            # Timing provenance, skipped by the golden comparator (the
            # "results.telemetry" entry of PROVENANCE_SUFFIXES) and absent
            # with telemetry off, so artifacts stay byte-identical.
            results["telemetry"] = {
                "paths_s": {name: timings[name] for name in sorted(timings)},
                "total_s": time.perf_counter() - start,
            }

        return ScenarioArtifact(
            scenario=self.spec.name,
            spec_hash=self.spec.content_hash(),
            schema_version=SCHEMA_VERSION,
            results=results,
        )

    def _transient_request(self) -> Optional[TransientRequest]:
        """The transient path's request, or ``None`` when the spec has no
        trace."""
        trace_spec = self.spec.trace
        if trace_spec is None:
            return None
        return TransientRequest(
            trace=self.trace(),
            power=self.power_config(),
            dt_s=trace_spec.dt_s,
            initial=trace_spec.initial,
        )

    def _steady_sections(
        self, engine: SweepEngine, requested: Sequence[str], timings: Dict[str, float]
    ) -> Dict[str, Any]:
        """The ``steady``, ``sweep`` and ``snr`` sections of ``requested``."""
        results: Dict[str, Any] = {}

        if "steady" in requested:
            with self._timed_path("steady", timings):
                evaluation = engine.evaluate_one(
                    ThermalRequest(
                        activity=self.activity(),
                        power=self.power_config(),
                        zoom_oni="auto",
                    )
                )
                results["steady"] = evaluation.summary_dict()

        if "sweep" in requested or "snr" in requested:
            requests = self._sweep_requests()
            powers_mw = [
                self.spec.power.vcsel_power_mw * scale
                for scale in self.spec.sweep_scales
            ]
            if "sweep" in requested:
                with self._timed_path("sweep", timings):
                    evaluations = engine.evaluate(requests)
                results["sweep"] = {
                    "vcsel_power_mw": powers_mw,
                    "average_oni_temperature_c": [
                        evaluation.average_oni_temperature_c
                        for evaluation in evaluations
                    ],
                    "max_oni_temperature_c": [
                        evaluation.max_oni_temperature_c
                        for evaluation in evaluations
                    ],
                    "oni_temperature_spread_c": [
                        evaluation.oni_temperature_spread_c
                        for evaluation in evaluations
                    ],
                }
            if "snr" in requested:
                # The nominal report always runs at the spec's true operating
                # point (scale 1.0), whether or not the sweep grid contains
                # it; when it does, the engine serves it from the cache.
                nominal_request = ThermalRequest(
                    activity=self.activity(),
                    power=self.power_config(),
                    zoom_oni=None,
                )
                with self._timed_path("snr", timings):
                    reports = engine.evaluate_snr(
                        requests + [nominal_request], self.drive()
                    )
                results["snr"] = {
                    "per_point": [
                        {
                            "vcsel_power_mw": power_mw,
                            "worst_case_snr_db": report.worst_case_snr_db,
                            "average_snr_db": report.average_snr_db,
                            "all_detected": report.all_detected,
                        }
                        for power_mw, report in zip(powers_mw, reports)
                    ],
                    "nominal": reports[-1].summary_dict(),
                }

        return results

    def _transient_section(
        self,
        engine: SweepEngine,
        request: TransientRequest,
        timings: Dict[str, float],
    ) -> Dict[str, Any]:
        """The ``transient`` section: the trace integrated by ``engine``
        and chained into the time-resolved SNR (the body of the task of
        :meth:`run`)."""
        with self._timed_path("transient", timings):
            evaluation = engine.evaluate_transient_one(request)
            series = self.flow().run_transient_snr(evaluation, self.drive())
        diagnostics = evaluation.result.diagnostics
        per_oni_settling = {
            name: evaluation.settling_time_s(name, SETTLING_TOLERANCE_C)
            for name in evaluation.oni_series
        }
        settled = [value for value in per_oni_settling.values() if value is not None]
        return {
            **evaluation.summary_dict(),
            "settling": {
                "tolerance_c": SETTLING_TOLERANCE_C,
                "per_oni_s": per_oni_settling,
                "max_settling_s": max(settled) if settled else None,
            },
            "snr": series.summary_dict(self.spec.snr_floor_db),
            # Solver provenance: which numerical path produced the numbers
            # above.  The raw residual is deliberately left out — it sits near
            # the comparison atol and would make artifacts BLAS-sensitive.
            "solver": {
                "method": diagnostics.solver_method,
                "rom_dim": diagnostics.rom_dim,
                "rom_fallback": diagnostics.rom_fallback,
            },
        }


def _settle(outcome: "Future[Any]", task: Callable[[], Any]) -> None:
    """Settle ``outcome`` with ``task()``: its value or its error."""
    try:
        outcome.set_result(task())
    except BaseException as error:
        outcome.set_exception(error)


def run_scenario(
    spec: ScenarioSpec, paths: Sequence[str] = ALL_PATHS
) -> ScenarioArtifact:
    """One-shot convenience wrapper around :class:`ScenarioRunner`."""
    return ScenarioRunner(spec).run(paths)


def collect_bases(specs: Iterable[ScenarioSpec]) -> BasisScope:
    """The reduced transient bases of ``specs``, built explicitly.

    Runs the transient path of every spec in one collecting
    :class:`~repro.thermal.BasisScope`: each solve without a basis in the
    scope is the exact full-space path plus a POD of its trajectory.  The
    scope's :meth:`~repro.thermal.BasisScope.payloads` are what a store
    persists and a kernel warm-starts from.
    """
    with basis_scope(BasisScope(collect=True)) as scope:
        for spec in specs:
            ScenarioRunner(spec).run(("transient",))
    return scope
