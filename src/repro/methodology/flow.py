"""End-to-end thermal-aware design flow (the paper's core contribution, Fig. 3).

The flow wires together every substrate of the library:

1. *System specification*: a case-study architecture (package stack +
   floorplan), an ONI placement scenario, a chip activity and the ONI
   operating point (``PVCSEL``, ``Pheater``, ``Pdriver``).
2. *Thermal analysis*: a coarse full-package steady-state solve gives the
   average temperature of every ONI; a zoom (submodel) solve around selected
   ONIs recovers the intra-ONI gradient between VCSELs and microrings.
3. *SNR analysis*: the per-ONI temperatures feed the wavelength-misalignment
   model, which yields per-communication signal, crosstalk and SNR figures.

Every step is exposed separately so the exploration helpers
(:mod:`repro.methodology.exploration`) can sweep design parameters without
re-doing unnecessary work: the mesh, the zoom window, the compiled ONI
geometry and transient probes and the SNR engine are built once per flow,
and operators, factors and steppers live in the content-keyed shared cache
of :mod:`repro.thermal.factorization`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..activity import ActivityPattern, ActivityTrace
from ..casestudy import OniRingScenario, SccArchitecture
from ..config import SimulationSettings, TechnologyParameters
from ..devices import VcselModel
from ..errors import AnalysisError, ConfigurationError, GeometryError
from ..oni import OniPowerConfig
from ..onoc import Communication, OrnocNetwork, shift_traffic
from ..snr import (
    BatchSnrReport,
    LaserDriveConfig,
    OniThermalState,
    SnrAnalyzer,
    SnrReport,
)
from ..thermal import (
    CompiledProbes,
    HeatSource,
    Mesh3D,
    SourceBatch,
    SourceSchedule,
    SteadyStateSolver,
    ThermalMap,
    TransientSolver,
    ZoomSolver,
    compile_probes,
)
from ..thermal.mesh import BoxOverlaps
from .transient import (
    OniTemperatureSeries,
    SnrTimeSeries,
    TransientEvaluation,
    TransientRequest,
)

#: Most coarse solves stacked into one multi-RHS call; bounds the dense
#: ``(n_cells, BATCH_COLUMNS)`` right-hand-side and solution arrays.
BATCH_COLUMNS = 16


@dataclass(frozen=True)
class ThermalRequest:
    """One thermal design point, as consumed by the batched flow API.

    ``zoom_oni`` follows the :meth:`ThermalAwareDesignFlow.run_thermal`
    convention: ``"auto"`` zooms the most central ONI, ``None`` skips the
    zoom solve, any other string names the ONI to zoom.
    """

    activity: ActivityPattern
    power: Optional[OniPowerConfig] = None
    zoom_oni: Optional[str] = "auto"


@dataclass
class OniThermalSummary:
    """Thermal figures of one ONI extracted from the simulation."""

    name: str
    average_c: float
    laser_c: float
    microring_c: float
    gradient_c: Optional[float] = None

    def to_state(self) -> OniThermalState:
        """Convert to the state object consumed by the SNR analyzer."""
        return OniThermalState(
            name=self.name,
            average_temperature_c=self.average_c,
            laser_temperature_c=self.laser_c,
            microring_temperature_c=self.microring_c,
        )


@dataclass
class ThermalEvaluation:
    """Result of the thermal step of the flow for one design point."""

    activity: ActivityPattern
    power: OniPowerConfig
    thermal_map: ThermalMap
    oni_summaries: Dict[str, OniThermalSummary]
    #: ONI whose gradient was resolved with the zoom solver.
    zoomed_oni: Optional[str] = None
    zoom_map: Optional[ThermalMap] = None

    @property
    def average_oni_temperature_c(self) -> float:
        """Mean of the per-ONI average temperatures."""
        summaries = list(self.oni_summaries.values())
        return sum(s.average_c for s in summaries) / len(summaries)

    @property
    def max_oni_temperature_c(self) -> float:
        """Hottest per-ONI average temperature."""
        return max(s.average_c for s in self.oni_summaries.values())

    @property
    def oni_temperature_spread_c(self) -> float:
        """Spread of the per-ONI average temperatures (drives crosstalk)."""
        values = [s.average_c for s in self.oni_summaries.values()]
        return max(values) - min(values)

    @property
    def gradient_c(self) -> float:
        """Intra-ONI gradient of the zoomed ONI (the paper's design constraint)."""
        if self.zoomed_oni is None:
            raise AnalysisError("no ONI was zoomed; re-run with zoom enabled")
        gradient = self.oni_summaries[self.zoomed_oni].gradient_c
        if gradient is None:
            raise AnalysisError("the zoomed ONI has no gradient value")
        return gradient

    def states(self) -> List[OniThermalState]:
        """Per-ONI states for the SNR analysis."""
        return [summary.to_state() for summary in self.oni_summaries.values()]

    def summary_dict(self) -> Dict[str, object]:
        """Plain-dict summary of the thermal step (scenario artifacts, reports).

        Aggregates plus the per-ONI temperatures; the zoomed ONI's gradient is
        included when a zoom solve ran.  Every value is a JSON-serialisable
        primitive.
        """
        data: Dict[str, object] = {
            "activity": self.activity.name,
            "average_oni_temperature_c": self.average_oni_temperature_c,
            "max_oni_temperature_c": self.max_oni_temperature_c,
            "oni_temperature_spread_c": self.oni_temperature_spread_c,
            "zoomed_oni": self.zoomed_oni,
            "gradient_c": None if self.zoomed_oni is None else self.gradient_c,
            "oni": {
                name: {
                    "average_c": summary.average_c,
                    "laser_c": summary.laser_c,
                    "microring_c": summary.microring_c,
                }
                for name, summary in self.oni_summaries.items()
            },
        }
        return data

    def meets_gradient_constraint(self, max_gradient_c: float) -> bool:
        """Whether the zoomed ONI satisfies the intra-ONI gradient constraint."""
        return self.gradient_c <= max_gradient_c


@dataclass
class DesignPointResult:
    """Combined thermal + SNR result of one design point."""

    thermal: ThermalEvaluation
    snr: SnrReport
    drive: LaserDriveConfig

    @property
    def worst_case_snr_db(self) -> float:
        """Worst-case SNR over all communications [dB]."""
        return self.snr.worst_case_snr_db

    @property
    def gradient_c(self) -> float:
        """Intra-ONI gradient of the zoomed ONI [degC]."""
        return self.thermal.gradient_c

    @property
    def average_oni_temperature_c(self) -> float:
        """Mean per-ONI average temperature [degC]."""
        return self.thermal.average_oni_temperature_c


class ThermalAwareDesignFlow:
    """The paper's design methodology, as an executable object.

    Every input is fixed for the flow's lifetime, including the shape of the
    default routed network (``waveguide_count``, ``channels_per_waveguide``
    and the ``shift_hops`` of the default shift traffic; ``None`` takes the
    ONI layout's values and a third of the ring).  The flow's memos are pure
    functions of those inputs, so they never go stale and the flow may be
    shared by every caller evaluating that design.  It keeps no history of
    the evaluations run on it: evaluation caches, counters and transient
    step and reduced-basis history belong to the caller (a
    :class:`~repro.methodology.engine.SweepEngine`, or the
    :class:`~repro.thermal.TransientSolver` passed to
    :meth:`run_transient`).
    """

    def __init__(
        self,
        architecture: SccArchitecture,
        scenario: OniRingScenario,
        technology: Optional[TechnologyParameters] = None,
        vcsel: Optional[VcselModel] = None,
        waveguide_count: Optional[int] = None,
        channels_per_waveguide: Optional[int] = None,
        shift_hops: Optional[int] = None,
    ) -> None:
        if shift_hops is not None and shift_hops < 1:
            raise ConfigurationError("shift_hops must be >= 1")
        self.architecture = architecture
        self.scenario = scenario
        self.technology = technology or TechnologyParameters()
        self.vcsel = vcsel or VcselModel()
        self.waveguide_count = waveguide_count
        self.channels_per_waveguide = channels_per_waveguide
        self.shift_hops = shift_hops
        self._mesh_cache: Optional[Mesh3D] = None
        self._mesh_lock = threading.Lock()
        #: Every ONI device as source rows (so their overlaps with the mesh
        #: are computed once) with each row's kind (0 VCSEL, 1 heater,
        #: 2 driver), and the ONI query (see :meth:`_oni_queries`).
        self._device_cache: Optional[Tuple[SourceBatch, np.ndarray]] = None
        self._query_cache: Optional[tuple] = None
        self._snr_analyzer_cache: Optional[SnrAnalyzer] = None
        self._zoom_cache: Optional[ZoomSolver] = None
        #: The ONI probes compiled on the mesh of the last transient solve.
        self._probe_cache: Optional[CompiledProbes] = None

    @property
    def settings(self) -> SimulationSettings:
        """The numerical settings of the flow: its architecture's, which
        also bound its mesh and set its boundary conditions."""
        return self.architecture.settings

    # Mesh / solver infrastructure ----------------------------------------------------

    def _mesh(self) -> Mesh3D:
        """The flow's one mesh: built under a lock, so threads sharing the
        flow never hold two meshes (and memos compiled on each)."""
        mesh = self._mesh_cache
        if mesh is None:
            with self._mesh_lock:
                if self._mesh_cache is None:
                    self._mesh_cache = self.architecture.build_mesh(
                        oni_footprints=self.scenario.oni_footprints
                    )
                mesh = self._mesh_cache
        return mesh

    def _zoom(self) -> ZoomSolver:
        """The flow's zoom solver, which keeps the window mesh of every ONI
        it refines."""
        if self._zoom_cache is None:
            try:
                vertical_range = self.architecture.zoom_vertical_range()
            except GeometryError:
                # A custom stack without the case-study layers: zoom the full
                # stack height.
                vertical_range = None
            self._zoom_cache = ZoomSolver(
                self.architecture.stack,
                self.architecture.boundary_conditions(),
                cell_size_um=self.settings.zoom_cell_size_um,
                margin_um=300.0,
                max_cells=self.settings.max_cells,
                direct_cell_limit=self.settings.direct_solver_cell_limit,
                vertical_range=vertical_range,
            )
        return self._zoom_cache

    def _solver(self) -> SteadyStateSolver:
        return SteadyStateSolver(
            self._mesh(),
            self.architecture.boundary_conditions(),
            direct_cell_limit=self.settings.direct_solver_cell_limit,
            rtol=self.settings.solver_rtol,
        )

    # Heat sources -----------------------------------------------------------------------

    def _device_batch(self, power: Optional[OniPowerConfig]) -> SourceBatch:
        """Every powered device of every ONI (``power`` overrides the ONIs'
        own), cut from the flow's compiled device rows: it reuses their
        overlaps with the mesh."""
        if self._device_cache is None:
            optical_z = self.architecture.optical_z_range()
            electrical_z = self.architecture.electrical_z_range()
            devices = SourceBatch.concatenate(
                [oni.device_sources(optical_z, electrical_z) for oni in self.scenario.onis]
            )
            kinds = np.array([("vcsel", "heater", "driver").index(g) for g in devices.groups])
            self._device_cache = (devices, kinds)
        devices, kinds = self._device_cache
        powers = devices.powers
        if power is not None:
            powers = np.array(
                [power.vcsel_power_w, power.heater_power_w, power.effective_driver_power_w]
            )[kinds]
        powered = np.flatnonzero(powers > 0.0)
        return devices.take(powered, powers[powered])

    def source_batch(
        self, activity: ActivityPattern, power: Optional[OniPowerConfig] = None
    ) -> SourceBatch:
        """All heat sources of a design point: the chip activity, then every
        powered ONI device."""
        chip = activity.source_batch(
            self.architecture.floorplan, *self.architecture.electrical_z_range()
        )
        return SourceBatch.concatenate([chip, self._device_batch(power)])

    def heat_sources(
        self, activity: ActivityPattern, power: Optional[OniPowerConfig] = None
    ) -> List[HeatSource]:
        """All heat sources of a design point (chip activity + every ONI)."""
        return self.source_batch(activity, power).heat_sources()

    # Thermal step -------------------------------------------------------------------------

    def default_zoom_oni(self) -> str:
        """ONI used for gradient extraction: the one closest to the die centre."""
        die_x, die_y = self.architecture.die_rect.center
        best_name = None
        best_distance = float("inf")
        for oni in self.scenario.onis:
            x, y = oni.center
            distance = (x - die_x) ** 2 + (y - die_y) ** 2
            if distance < best_distance:
                best_distance = distance
                best_name = oni.name
        if best_name is None:
            raise ConfigurationError("the scenario has no ONIs")
        return best_name

    def run_thermal(
        self,
        activity: ActivityPattern,
        power: Optional[OniPowerConfig] = None,
        zoom_oni: Optional[str] = "auto",
    ) -> ThermalEvaluation:
        """Thermal analysis of one design point.

        ``zoom_oni`` selects the ONI refined with the submodel solver
        (``"auto"`` picks the most central one, ``None`` skips the zoom).
        """
        request = ThermalRequest(activity=activity, power=power, zoom_oni=zoom_oni)
        return self.run_thermal_many([request])[0]

    def run_thermal_many(
        self, requests: Sequence[ThermalRequest]
    ) -> List[ThermalEvaluation]:
        """Thermal analysis of several design points in batched solves.

        The coarse full-package solves are stacked :data:`BATCH_COLUMNS` at
        a time into multi-right-hand-side calls
        (:meth:`~repro.thermal.SteadyStateSolver.solve_many`); the
        conductance matrix is factorised at most once regardless of the
        request count.  Zoom solves (which depend on each coarse solution)
        run per request afterwards.  The results are identical to calling
        :meth:`run_thermal` once per request.
        """
        request_list = list(requests)
        evaluations: List[ThermalEvaluation] = []
        for start in range(0, len(request_list), BATCH_COLUMNS):
            chunk = request_list[start : start + BATCH_COLUMNS]
            source_sets = [
                self.source_batch(request.activity, request.power)
                for request in chunk
            ]
            batch = self._solver().solve_many(source_sets)
            evaluations.extend(
                self._finish_thermal(request, sources, thermal_map)
                for request, sources, thermal_map in zip(
                    chunk, source_sets, batch.maps
                )
            )
        return evaluations

    def _oni_queries(
        self, thermal_map: ThermalMap
    ) -> Tuple[BoxOverlaps, List[slice], List[slice]]:
        """Overlaps of every ONI's query rows with the map's mesh (computed
        once per mesh), the query blocks and each ONI's rows."""
        queries = self._query_cache
        if queries is None or queries[0] is not thermal_map.mesh:
            bounds, blocks, rows = [], [], []
            for oni in self.scenario.onis:
                offset = sum(map(len, bounds))
                bounds.append(oni.query_bounds(self.architecture.optical_z_range()))
                blocks += oni.query_blocks(offset)
                rows.append(slice(offset, offset + len(bounds[-1])))
            overlaps = thermal_map.overlaps(np.concatenate(bounds))
            queries = self._query_cache = (thermal_map.mesh, overlaps, blocks, rows)
        return queries[1:]

    def _finish_thermal(
        self,
        request: ThermalRequest,
        sources: SourceBatch,
        thermal_map: ThermalMap,
    ) -> ThermalEvaluation:
        """ONI summaries + optional zoom solve on top of a coarse solution.

        One weighted sum over the map gives every ONI's footprint, VCSEL
        and microring averages; each summary reads its slice of them.
        """
        activity, power, zoom_oni = request.activity, request.power, request.zoom_oni
        overlaps, blocks, oni_rows = self._oni_queries(thermal_map)
        averages = thermal_map.averages_over(overlaps, blocks).tolist()
        summaries: Dict[str, OniThermalSummary] = {}
        for oni, rows in zip(self.scenario.onis, oni_rows):
            figures = oni.query_temperatures(averages[rows])[:3]
            summaries[oni.name] = OniThermalSummary(oni.name, *figures)

        zoom_map: Optional[ThermalMap] = None
        zoom_name: Optional[str] = None
        if zoom_oni is not None:
            zoom_name = self.default_zoom_oni() if zoom_oni == "auto" else zoom_oni
            target = self.scenario.oni_by_name(zoom_name)
            zoom_result = self._zoom().solve(thermal_map, target.footprint, sources)
            zoom_map = zoom_result.thermal_map
            zoomed = zoom_map.averages_over(
                target.query_bounds(self.architecture.optical_z_range()),
                target.query_blocks(),
            )
            figures = target.query_temperatures(zoomed.tolist())
            summaries[zoom_name] = OniThermalSummary(zoom_name, *figures)

        effective_power = power or self.scenario.onis[0].power
        return ThermalEvaluation(
            activity=activity,
            power=effective_power,
            thermal_map=thermal_map,
            oni_summaries=summaries,
            zoomed_oni=zoom_name,
            zoom_map=zoom_map,
        )

    # Transient step ---------------------------------------------------------------------------

    def transient_solver(self, theta: float = 1.0) -> TransientSolver:
        """A new transient solver on the flow's mesh.

        The solver keeps the history of its own solves: the step sizes
        behind ``factorizations_computed`` and the reduced bases it builds
        (:meth:`~repro.thermal.TransientSolver.rom_payloads`).  Its steppers
        live in the shared cache, so every solver on this mesh reuses the
        factorisations of the traces before it.
        """
        return TransientSolver(
            self._mesh(), self.architecture.boundary_conditions(), theta=theta
        )

    def build_schedule(
        self, trace: ActivityTrace, power: Optional[OniPowerConfig] = None
    ) -> SourceSchedule:
        """Piecewise-constant source schedule of a trace.

        Each phase contributes one segment: the phase's chip activity plus
        the (constant) ONI devices, aligned to the phase boundaries.  The
        device rows are cut once and repeated per segment by
        :meth:`~repro.activity.ActivityTrace.to_schedule`.
        """
        if len(trace) == 0:
            raise ConfigurationError(f"trace {trace.name!r} has no phases")
        return trace.to_schedule(
            self.architecture.floorplan,
            *self.architecture.electrical_z_range(),
            static_sources=self._device_batch(power),
        )

    def _compiled_probes(self, mesh: Mesh3D) -> CompiledProbes:
        """:meth:`oni_probes` compiled on ``mesh`` (kept for the last mesh)."""
        probes = self._probe_cache
        if probes is None or probes.mesh is not mesh:
            probes = self._probe_cache = compile_probes(mesh, self.oni_probes())
        return probes

    def oni_probes(self) -> Dict[str, np.ndarray]:
        """Per-ONI probe bounds ``(n, 6)`` for the transient solver.

        Three probes per ONI: ``<name>:avg`` (footprint average on the
        optical layer), ``<name>:laser`` (mean over the VCSEL cluster) and
        ``<name>:mr`` (mean over the microrings) — exactly the quantities
        the SNR analysis consumes.  ONIs without devices of a kind fall back
        to the footprint box.
        """
        probes: Dict[str, np.ndarray] = {}
        for oni in self.scenario.onis:
            rows = oni.query_bounds(self.architecture.optical_z_range())
            region, lasers, rings = (rows[block] for block in oni.query_blocks())
            probes[f"{oni.name}:avg"] = region
            probes[f"{oni.name}:laser"] = lasers if len(lasers) else region
            probes[f"{oni.name}:mr"] = rings if len(rings) else region
        return probes

    def run_transient(
        self,
        trace: Union[ActivityTrace, TransientRequest],
        power: Optional[OniPowerConfig] = None,
        dt_s: float = 0.1,
        theta: float = 1.0,
        initial: Union[str, float] = "ambient",
        snapshot_times_s: Sequence[float] = (),
        method: str = "lu",
        solver: Optional[TransientSolver] = None,
    ) -> TransientEvaluation:
        """Transient thermal analysis of one design point over a trace.

        ``initial`` follows :class:`~repro.methodology.transient.
        TransientRequest`: ``"ambient"`` starts uniform at the convective
        ambient, ``"steady"`` from the steady state of the first phase
        (solved by the transient solver with the flow's cached factor, after
        its steps), a float from that uniform temperature.  ``method``
        selects the integration path (``"lu"``, ``"rom"``, ``"auto"``; see
        :meth:`repro.thermal.TransientSolver.solve`).  A
        :class:`TransientRequest` may be passed in place of the trace, in
        which case the remaining arguments but ``solver`` are ignored.

        ``solver`` is the :meth:`transient_solver` to integrate with (its θ
        must be the request's); it carries the step-size and reduced-basis
        history of its earlier solves.  By default a new one is used.
        """
        if isinstance(trace, TransientRequest):
            request = trace
        else:
            request = TransientRequest(
                trace=trace,
                power=power,
                dt_s=dt_s,
                theta=theta,
                initial=initial,
                snapshot_times_s=tuple(snapshot_times_s),
                method=method,
            )
        schedule = self.build_schedule(request.trace, request.power)
        if solver is None:
            solver = self.transient_solver(request.theta)
        elif solver.theta != request.theta:
            raise ConfigurationError(
                f"the solver integrates with theta {solver.theta}, the request "
                f"asks for {request.theta}"
            )
        if request.initial == "steady":
            initial_field: Union[str, float, None] = "steady"
        elif request.initial == "ambient":
            initial_field = None
        else:
            initial_field = float(request.initial)
        result = solver.solve(
            schedule,
            dt_s=request.dt_s,
            initial_temperature_c=initial_field,
            snapshot_times_s=request.snapshot_times_s,
            probes=self._compiled_probes(solver.mesh),
            method=request.method,
        )
        series: Dict[str, OniTemperatureSeries] = {}
        for oni in self.scenario.onis:
            series[oni.name] = OniTemperatureSeries(
                name=oni.name,
                times_s=result.times_s,
                average_c=result.probe(f"{oni.name}:avg").temperatures_c,
                laser_c=result.probe(f"{oni.name}:laser").temperatures_c,
                microring_c=result.probe(f"{oni.name}:mr").temperatures_c,
            )
        effective_power = request.power or self.scenario.onis[0].power
        return TransientEvaluation(
            trace=request.trace,
            power=effective_power,
            result=result,
            oni_series=series,
        )

    def run_transient_snr(
        self,
        evaluation: TransientEvaluation,
        drive: LaserDriveConfig,
        stride: int = 1,
        communications: Optional[Sequence[Communication]] = None,
        network: Optional[OrnocNetwork] = None,
    ) -> SnrTimeSeries:
        """Time-resolved SNR along a transient evaluation.

        The per-ONI temperature series are sampled every ``stride`` steps
        (the final step is always included) and stacked into one vectorized
        :meth:`~repro.snr.analysis.SnrAnalyzer.analyze_many` call, so the
        whole time axis costs a single pass through the compiled link
        engine.
        """
        if stride < 1:
            raise ConfigurationError("stride must be >= 1")
        sample_count = evaluation.times_s.size
        indices = list(range(0, sample_count, stride))
        if indices[-1] != sample_count - 1:
            indices.append(sample_count - 1)
        analyzer = self.snr_analyzer(communications=communications, network=network)
        batch = analyzer.analyze_many(
            [evaluation.states_at(index) for index in indices], drive
        )
        return SnrTimeSeries(
            times_s=evaluation.times_s[np.asarray(indices, dtype=int)],
            batch=batch,
        )

    # Network / SNR step -----------------------------------------------------------------------

    def build_network(
        self,
        communications: Optional[Sequence[Communication]] = None,
        waveguide_count: Optional[int] = None,
        channels_per_waveguide: Optional[int] = None,
    ) -> OrnocNetwork:
        """Routed ORNoC network for the scenario's ring.

        The default traffic is the maximal-reuse *shift* pattern: each ONI
        sends to the ONI ``shift_hops`` ahead (a third of the ring unless
        the flow was built with another hop count), so every wavelength
        channel is reused by a chain of communications around the ring.  This
        is the configuration in which the thermally-induced crosstalk of the
        paper's Section IV.C is visible; pass an explicit communication list
        for other traffic.  Unset network dimensions fall back to the flow's,
        then to the ONI layout's.
        """
        if communications is not None:
            traffic = list(communications)
        else:
            hops = self.shift_hops or max(1, len(self.scenario.ring) // 3)
            traffic = shift_traffic(self.scenario.ring, hops)
        layout = self.scenario.onis[0].layout.parameters
        network = OrnocNetwork(
            ring=self.scenario.ring,
            communications=traffic,
            technology=self.technology,
            waveguide_count=(
                waveguide_count or self.waveguide_count or layout.waveguide_count
            ),
            channels_per_waveguide=(
                channels_per_waveguide
                or self.channels_per_waveguide
                or layout.lasers_per_waveguide
            ),
        )
        network.assign_channels()
        return network

    def snr_analyzer(
        self,
        communications: Optional[Sequence[Communication]] = None,
        network: Optional[OrnocNetwork] = None,
    ) -> SnrAnalyzer:
        """Analyzer (with its compiled link engine) for the given network.

        The default-traffic analyzer is cached on the flow, so the routed
        network is compiled into the vectorized
        :class:`~repro.snr.engine.OpticalLinkEngine` arrays exactly once and
        every subsequent SNR evaluation reuses them.  Passing explicit
        ``communications`` or a ``network`` builds a fresh analyzer.
        """
        if network is not None or communications is not None:
            routed = network or self.build_network(communications)
            return SnrAnalyzer(
                routed, technology=self.technology, vcsel=self.vcsel
            )
        if self._snr_analyzer_cache is None:
            self._snr_analyzer_cache = SnrAnalyzer(
                self.build_network(), technology=self.technology, vcsel=self.vcsel
            )
        return self._snr_analyzer_cache

    def run_snr(
        self,
        evaluation: ThermalEvaluation,
        drive: LaserDriveConfig,
        communications: Optional[Sequence[Communication]] = None,
        network: Optional[OrnocNetwork] = None,
    ) -> SnrReport:
        """SNR analysis of a thermally evaluated design point."""
        return self.run_snr_many(
            [evaluation], drive, communications=communications, network=network
        ).report(0)

    def run_snr_many(
        self,
        evaluations: Sequence[ThermalEvaluation],
        drive: LaserDriveConfig,
        communications: Optional[Sequence[Communication]] = None,
        network: Optional[OrnocNetwork] = None,
    ) -> BatchSnrReport:
        """Batched SNR analysis of several thermally evaluated design points.

        The natural continuation of :meth:`run_thermal_many`: the per-ONI
        states of every evaluation are stacked and pushed through the
        compiled link engine in one vectorized pass
        (:meth:`~repro.snr.analysis.SnrAnalyzer.analyze_many`).  Element
        ``b`` of the result equals ``run_snr(evaluations[b], drive)``.
        """
        analyzer = self.snr_analyzer(communications=communications, network=network)
        return analyzer.analyze_many(
            [evaluation.states() for evaluation in evaluations], drive
        )

    # Combined ---------------------------------------------------------------------------------------

    def evaluate_design_point(
        self,
        activity: ActivityPattern,
        power: OniPowerConfig,
        drive: Optional[LaserDriveConfig] = None,
        communications: Optional[Sequence[Communication]] = None,
        zoom_oni: Optional[str] = "auto",
    ) -> DesignPointResult:
        """Thermal + SNR evaluation of one design point.

        ``drive`` defaults to driving every VCSEL at the design point's
        ``PVCSEL`` dissipated power (the paper's convention).
        """
        effective_drive = drive or LaserDriveConfig(
            dissipated_power_w=power.vcsel_power_w
        )
        thermal = self.run_thermal(activity, power=power, zoom_oni=zoom_oni)
        snr = self.run_snr(thermal, effective_drive, communications)
        return DesignPointResult(thermal=thermal, snr=snr, drive=effective_drive)
