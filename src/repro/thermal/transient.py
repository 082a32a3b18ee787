"""Transient thermal engine: time-stepped finite-volume solves.

The steady-state machinery answers "where does the package settle?"; this
module answers "how does it get there, and what happens while the workload
changes?".  The semi-discrete heat equation on the existing finite-volume
mesh is

``C dT/dt = -K T + q(t) + b``

where ``K`` is the conductance matrix of :func:`repro.thermal.assembly.
assemble_operator`, ``b`` the boundary right-hand side, ``q(t)`` the
time-varying power field and ``C`` the diagonal lumped capacitance (cell
volume times the material's volumetric heat capacity, filled by
:class:`~repro.thermal.mesh.MeshBuilder` from the layer stack).

Time integration uses the one-parameter θ-method

``(C/dt + θ K) T_{n+1} = (C/dt - (1-θ) K) T_n + q_n + b``

with backward Euler (θ = 1) as the robust default and Crank–Nicolson
(θ = 0.5) as the second-order option.  The full-space path steps the
deviation ``D = T - T0`` from the starting field ``T0``: as
``A - M = K`` for ``A = C/dt + θK`` and ``M = C/dt - (1-θ)K``,

``A D_{n+1} = M D_n + q_n + b - K T0``

For a steady start ``K T0`` is the first segment's load itself, so no step
needs ``T0`` and ``T0`` is solved after the steps; a step from ``D = 0``
under zero forcing (the whole first segment of a steady start) is exactly
zero and is skipped.  Power is piecewise constant per
schedule segment and steps are aligned to segment boundaries, so for a fixed
step the iteration matrix ``A = C/dt + θK`` never changes: it is factorised
**once** and every step of every trace sharing the mesh reuses the
factorisation — the transient analogue of the steady solver's multi-RHS
batching.  The operator ``K`` (shared with the steady solver) and one
stepper per step size (the factor of ``A`` and the explicit matrix) live in
the shared cache of :mod:`repro.thermal.factorization`, not on the solver.

Temperatures of regions of interest (ONI footprints, device clusters) are
recorded at every step through *probes* — volume-weighted box averages
compiled once into sparse weight vectors — while full-field snapshots are
kept only at explicitly requested times, so long traces stay cheap in
memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import hashlib

import numpy as np

from .. import telemetry
from ..caching import LruCache
from ..errors import SolverError
from ..geometry import Box
from ..geometry.box import box_bounds
from ..log import get_logger
from .assembly import boundary_rhs
from .boundary import FACES, BoundaryConditions
from .factorization import CacheEntry, shared_cache
from .mesh import BoxOverlaps, Mesh3D
from . import rom
from .rom import ReducedBasis, ReducedModel, basis_content_key, build_basis
from .sources import HeatSource, SourceBatch, power_density_field
from .thermal_map import ThermalMap

logger = get_logger("thermal.transient")

#: A probe is one box (volume-weighted average) or several boxes (mean of
#: the per-box averages, e.g. "all VCSELs of one ONI"), given as boxes or
#: as their ``(n, 6)`` bounds array.
ProbeSpec = Union[Box, Sequence[Box], np.ndarray]

#: A starting field (see :meth:`TransientSolver.solve`).
InitialField = Union[str, float, np.ndarray, ThermalMap, None]


def piecewise_segment_index(durations: Sequence[float], t: float) -> int:
    """Index of the piecewise segment owning time ``t``.

    Segments own ``[start, end)``; ``t`` equal to the total duration (within
    a relative tolerance of 1e-12) maps to the last segment so the endpoint
    is always queryable.  This is the single definition of the boundary
    semantics shared by :meth:`SourceSchedule.segment_at` and
    :meth:`repro.activity.ActivityTrace.phase_at`.  Raises :class:`ValueError`
    for an empty sequence, a non-finite / negative ``t`` or one beyond the
    total duration.
    """
    if not durations:
        raise ValueError("there are no segments")
    if not math.isfinite(t) or t < 0.0:
        raise ValueError(f"time must be >= 0 and finite, got {t!r}")
    elapsed = 0.0
    for index, duration in enumerate(durations):
        elapsed += duration
        if t < elapsed:
            return index
    if t <= elapsed * (1.0 + 1.0e-12):
        return len(durations) - 1
    raise ValueError(f"time {t!r} beyond the total duration {elapsed!r}")


@dataclass(frozen=True)
class ScheduleSegment:
    """One segment of a power schedule: sources held for a duration.

    ``sources`` may be given as :class:`HeatSource` objects; the segment
    keeps them as a :class:`~repro.thermal.sources.SourceBatch`.
    """

    duration_s: float
    sources: SourceBatch
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "sources", SourceBatch.of(self.sources))
        if not math.isfinite(self.duration_s) or self.duration_s <= 0.0:
            raise SolverError(
                f"schedule segment duration must be a positive finite number, "
                f"got {self.duration_s!r}"
            )


class SourceSchedule:
    """A piecewise-constant heat-source schedule (the solver's input).

    The schedule is the thermal-layer view of an activity trace: a sequence
    of (duration, heat sources) segments.  Segment boundaries become step
    boundaries during integration, so the piecewise-constant power is
    represented exactly.
    """

    def __init__(self, segments: Iterable[ScheduleSegment] = ()) -> None:
        self._segments: List[ScheduleSegment] = list(segments)

    def add_segment(
        self,
        duration_s: float,
        sources: Union[SourceBatch, Iterable[HeatSource]],
        label: str = "",
    ) -> None:
        """Append a segment holding ``sources`` for ``duration_s`` seconds."""
        self._segments.append(
            ScheduleSegment(duration_s=duration_s, sources=sources, label=label)
        )

    def __len__(self) -> int:
        return len(self._segments)

    def __iter__(self):
        return iter(self._segments)

    @property
    def segments(self) -> List[ScheduleSegment]:
        """Segments in schedule order."""
        return list(self._segments)

    @property
    def total_duration_s(self) -> float:
        """Total schedule duration [s]."""
        return sum(segment.duration_s for segment in self._segments)

    def segment_at(self, t: float) -> ScheduleSegment:
        """Segment active at time ``t`` (segments own ``[start, end)``)."""
        try:
            index = piecewise_segment_index(
                [segment.duration_s for segment in self._segments], t
            )
        except ValueError as error:
            raise SolverError(str(error)) from None
        return self._segments[index]


@dataclass(frozen=True)
class ProbeSeries:
    """Temperature of one probed region at every time step."""

    name: str
    times_s: np.ndarray
    temperatures_c: np.ndarray

    @property
    def max_c(self) -> float:
        """Maximum probe temperature over the trace [degC]."""
        return float(self.temperatures_c.max())

    @property
    def min_c(self) -> float:
        """Minimum probe temperature over the trace [degC]."""
        return float(self.temperatures_c.min())

    @property
    def final_c(self) -> float:
        """Probe temperature at the end of the trace [degC]."""
        return float(self.temperatures_c[-1])

    def time_above_c(self, threshold_c: float) -> float:
        """Total time spent above ``threshold_c`` [s].

        Each step interval counts fully when the temperature at its *end*
        exceeds the threshold (the implicit method's representative value);
        the initial condition carries no duration.
        """
        durations = np.diff(self.times_s)
        return float(durations[self.temperatures_c[1:] > threshold_c].sum())

    def settling_time_s(
        self, tolerance_c: float, reference_c: Optional[float] = None
    ) -> Optional[float]:
        """First time after which the probe stays within ``tolerance_c`` of
        ``reference_c`` (default: the final recorded value).

        Returns ``None`` when settling cannot be confirmed: against an
        explicit reference, when the last sample is still outside the band;
        against the default (final-value) reference — which the last sample
        trivially satisfies — when the second-to-last sample is still
        outside, i.e. the trace only "arrived" on its very last step and may
        well still be moving.  Returns ``0.0`` when the probe never leaves
        the band.
        """
        if tolerance_c <= 0.0:
            raise SolverError("settling tolerance must be positive")
        reference = self.final_c if reference_c is None else reference_c
        outside = np.abs(self.temperatures_c - reference) > tolerance_c
        if not outside.any():
            return float(self.times_s[0])
        last_outside = int(np.flatnonzero(outside)[-1])
        unsettled_from = (
            self.times_s.size - 2 if reference_c is None else self.times_s.size - 1
        )
        if last_outside >= unsettled_from:
            return None
        return float(self.times_s[last_outside + 1])


@dataclass(frozen=True)
class TransientSnapshot:
    """Full-field temperature snapshot at one step of the integration."""

    time_s: float
    requested_time_s: float
    thermal_map: ThermalMap


@dataclass(frozen=True)
class TransientDiagnostics:
    """Numerical diagnostics of one transient solve."""

    n_cells: int
    steps: int
    theta: float
    dt_s: float
    total_duration_s: float
    #: Number of factorisations computed *during this solve* (0 when
    #: every distinct step size was already cached from earlier traces).
    factorizations_computed: int
    #: Distinct effective step sizes encountered (one factorisation each).
    distinct_steps: int
    #: Path that produced the result: ``"lu"`` (full-space direct solve) or
    #: ``"rom"`` (reduced-order Galerkin stepping).  A solve with a basis in
    #: scope still reports ``"lu"`` when it fell back after a residual
    #: breach.
    solver_method: str = "lu"
    #: Dimension of the reduced basis found in scope (0 when none was).
    rom_dim: int = 0
    #: A reduced solve was attempted and rejected by the residual check.
    rom_fallback: bool = False
    #: Worst a-posteriori relative residual of the accepted reduced solve
    #: (0.0 for a pure LU solve).
    rom_residual: float = 0.0

    @property
    def method(self) -> str:
        """Human-readable integrator name."""
        if self.theta == 1.0:
            return "backward_euler"
        if self.theta == 0.5:
            return "crank_nicolson"
        return f"theta({self.theta:g})"

    def summary(self) -> str:
        """One-line human readable summary."""
        return (
            f"{self.method} over {self.total_duration_s:g} s in {self.steps} "
            f"steps of ~{self.dt_s:g} s on {self.n_cells} cells "
            f"({self.factorizations_computed} new factorisation(s))"
        )


@dataclass
class TransientResult:
    """Output of a transient solve: probe series, snapshots, final field."""

    times_s: np.ndarray
    probes: Dict[str, ProbeSeries]
    snapshots: List[TransientSnapshot]
    final_map: ThermalMap
    diagnostics: TransientDiagnostics
    segment_boundaries_s: Tuple[float, ...] = field(default_factory=tuple)

    def probe(self, name: str) -> ProbeSeries:
        """Series of the probe called ``name``."""
        try:
            return self.probes[name]
        except KeyError:
            raise SolverError(f"no probe called {name!r} in this result") from None

    def probe_names(self) -> List[str]:
        """Names of every recorded probe."""
        return list(self.probes)

    def snapshot_nearest(self, time_s: float) -> TransientSnapshot:
        """Snapshot whose time is closest to ``time_s``."""
        if not self.snapshots:
            raise SolverError("the solve recorded no snapshots")
        return min(self.snapshots, key=lambda snap: abs(snap.time_s - time_s))

    def max_over_probes_c(self) -> float:
        """Hottest probe temperature seen at any time."""
        if not self.probes:
            raise SolverError("the solve recorded no probes")
        return max(series.max_c for series in self.probes.values())


def _probe_bounds(spec: ProbeSpec) -> np.ndarray:
    return box_bounds([spec] if isinstance(spec, Box) else spec)


class _ProbeFunctional:
    """A probe compiled into flat cell indices and normalised weights."""

    __slots__ = ("indices", "weights")

    def __init__(self, overlaps: BoxOverlaps) -> None:
        # Mean of per-box averages: each box contributes weights that sum to
        # 1/len(boxes); cells shared by several boxes add up in the deposit.
        volumes = overlaps.volumes
        weights = overlaps.deposit(1.0 / (volumes * volumes.size)).ravel()
        self.indices = np.flatnonzero(weights)
        self.weights = weights[self.indices]

    def value(self, flat_temperatures: np.ndarray) -> float:
        return float(self.weights @ flat_temperatures[self.indices])


@dataclass(frozen=True)
class CompiledProbes:
    """Named probes compiled against one mesh (see :func:`compile_probes`).

    Pass it to :meth:`TransientSolver.solve` in place of the probe specs to
    reuse the compilation across solves and solvers on that mesh.
    """

    mesh: Mesh3D
    functionals: Dict[str, _ProbeFunctional]


def compile_probes(mesh: Mesh3D, specs: Mapping[str, ProbeSpec]) -> CompiledProbes:
    """Compile probes, in order, from one overlap set of all their boxes."""
    bounds = {name: _probe_bounds(spec) for name, spec in specs.items()}
    overlaps = mesh.box_overlaps(np.concatenate([np.empty((0, 6)), *bounds.values()]))
    functionals: Dict[str, _ProbeFunctional] = {}
    stop = 0
    for name, rows in bounds.items():
        part = overlaps.take(np.arange(stop, stop + len(rows)))
        stop += len(rows)
        outside = part.first_empty()
        if len(rows) == 0:
            raise SolverError(f"probe {name!r} has no boxes")
        if outside is not None:
            box = Box(*rows[outside].tolist())
            raise SolverError(f"probe {name!r}: box {box!r} does not overlap the mesh")
        functionals[name] = _ProbeFunctional(part)
    return CompiledProbes(mesh, functionals)


class _SnapshotRecorder:
    """Snapshot bookkeeping shared by the full and reduced integrators.

    Targets are consumed in order; each is snapped to the end of the first
    step at or after it.  The field is obtained from a provider callable
    exactly once per step that records anything, so the reduced path only
    lifts to full space at steps that actually keep a snapshot.  Providers
    must return an array nobody mutates afterwards; :meth:`snapshots` copies
    it (or adds an offset) into each map.
    """

    __slots__ = ("_targets", "_cursor", "_kept")

    def __init__(self, targets: Sequence[float]) -> None:
        self._targets = targets
        self._cursor = 0
        self._kept: List[Tuple[float, float, np.ndarray]] = []

    def record(self, now: float, field_provider, flush: bool = False) -> None:
        field: Optional[np.ndarray] = None
        while self._cursor < len(self._targets) and (
            flush or self._targets[self._cursor] <= now * (1.0 + 1.0e-12)
        ):
            if field is None:
                field = field_provider()
            self._kept.append((now, self._targets[self._cursor], field))
            self._cursor += 1

    def snapshots(
        self, mesh: Mesh3D, offset: Optional[np.ndarray] = None
    ) -> List[TransientSnapshot]:
        """The recorded snapshots, each field plus ``offset`` when given."""
        return [
            TransientSnapshot(
                time_s=now,
                requested_time_s=target,
                thermal_map=ThermalMap(
                    mesh,
                    (field.copy() if offset is None else field + offset).reshape(
                        mesh.shape
                    ),
                ),
            )
            for now, target, field in self._kept
        ]


class TransientSolver:
    """θ-method time integrator on the finite-volume conduction system.

    Parameters
    ----------
    mesh:
        Mesh to solve on.  Meshes produced by :class:`~repro.thermal.mesh.
        MeshBuilder` carry per-cell heat capacities; hand-built meshes must
        either include ``c_volumetric`` or pass ``volumetric_heat_capacity``
        here (a scalar [J/(m^3 K)] applied to every cell).
    boundaries:
        Boundary conditions; like the steady solver, at least one face must
        pin the temperature.
    theta:
        Implicitness of the θ-method; ``1.0`` is backward Euler (default),
        ``0.5`` Crank–Nicolson.  Values in ``[0.5, 1]`` are unconditionally
        stable.
    """

    def __init__(
        self,
        mesh: Mesh3D,
        boundaries: BoundaryConditions,
        theta: float = 1.0,
        volumetric_heat_capacity: Optional[float] = None,
    ) -> None:
        if not 0.5 <= theta <= 1.0:
            raise SolverError(
                f"theta must be within [0.5, 1] for unconditional stability, "
                f"got {theta!r}"
            )
        self._mesh = mesh
        self._boundaries = boundaries
        self._theta = float(theta)
        if volumetric_heat_capacity is not None:
            if volumetric_heat_capacity <= 0.0:
                raise SolverError("volumetric_heat_capacity must be positive")
            self._capacitance = (
                mesh.cell_volumes().ravel() * float(volumetric_heat_capacity)
            )
        else:
            self._capacitance = mesh.capacitance_vector()
        #: Step sizes stepped with so far.  A new one counts as a
        #: factorisation in the diagnostics even when the shared cache held
        #: it, so they stay a function of this solver's own history (which
        #: executor conformance relies on).
        self._step_sizes: set[float] = set()
        #: Galerkin projections (``VᵀKV`` etc.) by basis content key.
        self._rom_models: LruCache[ReducedModel] = LruCache(max_entries=4)
        #: Source-set content -> rasterised load vector [W per cell].  A
        #: schedule projects each segment's sources onto the mesh; sweeps
        #: re-integrating the same trace (and traces revisiting a power
        #: state) skip the rasterisation entirely.
        self._source_loads: LruCache[np.ndarray] = LruCache(max_entries=32)

    # Properties -----------------------------------------------------------------

    @property
    def mesh(self) -> Mesh3D:
        """Mesh the solver operates on."""
        return self._mesh

    @property
    def theta(self) -> float:
        """Implicitness parameter of the θ-method."""
        return self._theta

    # Internal -------------------------------------------------------------------

    def _initial_field(self, initial_temperature_c: InitialField) -> np.ndarray:
        if initial_temperature_c is None:
            ambient = self._ambient_reference_c()
            return np.full(self._mesh.n_cells, ambient, dtype=float)
        if isinstance(initial_temperature_c, ThermalMap):
            values = initial_temperature_c.temperatures_c
        elif isinstance(initial_temperature_c, np.ndarray):
            values = initial_temperature_c
        else:
            return np.full(
                self._mesh.n_cells, float(initial_temperature_c), dtype=float
            )
        if values.shape != self._mesh.shape:
            raise SolverError(
                f"initial temperature field shape {values.shape} does not "
                f"match mesh shape {self._mesh.shape}"
            )
        return np.asarray(values, dtype=float).ravel().copy()

    def _ambient_reference_c(self) -> float:
        """Default initial temperature: mean ambient of the convective faces."""
        ambients = [
            condition.ambient_c
            for condition in (self._boundaries.face(face) for face in FACES)
            if condition.kind == "convective"
        ]
        if not ambients:
            raise SolverError(
                "no convective face to infer an initial temperature from; "
                "pass initial_temperature_c explicitly"
            )
        return sum(ambients) / len(ambients)

    def _segment_steps(self, schedule: Iterable, dt_s: float) -> List[
        Tuple[ScheduleSegment, int, float]
    ]:
        """Per-segment (segment, step count, effective dt) plan.

        ``dt_s`` is the *maximum* step: each segment is divided into the
        smallest number of equal steps not exceeding it, so steps align with
        segment boundaries and the piecewise-constant power is exact.
        Segments of equal duration share the same effective dt — and hence
        the same cached factorisation.  Only the segments' ``duration_s`` is
        read, so an activity trace plans like the schedule built from it.
        """
        plan = []
        for segment in schedule:
            count = max(1, int(math.ceil(segment.duration_s / dt_s - 1.0e-9)))
            plan.append((segment, count, segment.duration_s / count))
        return plan

    def _source_load(self, sources: SourceBatch) -> np.ndarray:
        """Flattened rasterised power load of a source set [W per cell].

        Memoised on the bytes of the box bounds and powers, in order — the
        accumulation order fixes the floating-point rounding — so
        re-integrating a trace or revisiting a power state never re-projects
        the geometry.  Callers must not mutate the returned array (`solve`
        always adds the boundary load, which copies).
        """
        key = sources.bounds.tobytes() + sources.powers.tobytes()
        load = self._source_loads.get(key)
        if load is None:
            load = power_density_field(self._mesh, sources).ravel()
            self._source_loads.put(key, load)
        return load

    def _steppers(
        self, entry: CacheEntry, plan: Sequence[Tuple[ScheduleSegment, int, float]]
    ) -> List[CacheEntry]:
        """The stepper of each segment of ``plan``, from the shared cache
        (built there, or awaited, on a miss); each step size joins this
        solver's history."""
        steppers = []
        with telemetry.span("transient.steppers", segments=len(plan)):
            for _, _, dt_eff in plan:
                self._step_sizes.add(dt_eff)
                steppers.append(
                    shared_cache.stepper(entry, self._capacitance, self._theta, dt_eff)
                )
        return steppers

    # Reduced-order plumbing -------------------------------------------------------

    def _build_basis(
        self,
        key: str,
        entry: CacheEntry,
        trajectory: np.ndarray,
        segment_loads: Sequence[np.ndarray],
    ) -> ReducedBasis:
        """POD basis of a just-computed exact trajectory (plus the
        per-segment steady states, which anchor long-time asymptotes)."""
        factorization, _, _ = shared_cache.factorize(
            entry.operator.matrix, entry.key
        )
        unique_loads: Dict[str, np.ndarray] = {}
        for load in segment_loads:
            unique_loads.setdefault(hashlib.sha256(load.tobytes()).hexdigest(), load)
        steady_states = np.column_stack(
            [factorization.solve(load) for load in unique_loads.values()]
        )
        return build_basis(key, trajectory, steady_states)

    def _steady_field(self, entry: CacheEntry, load: np.ndarray) -> np.ndarray:
        """``K⁻¹ load`` with the cached factor of the operator ``entry``: bit
        for bit the field :class:`~repro.thermal.SteadyStateSolver` solves
        for that load on this mesh."""
        factorization, _, _ = shared_cache.factorize(entry.operator.matrix, entry.key)
        return factorization.solve(load)

    def _integrate_full(
        self,
        entry: CacheEntry,
        steppers: Sequence[CacheEntry],
        plan: Sequence[Tuple[ScheduleSegment, int, float]],
        segment_loads: Sequence[np.ndarray],
        initial: Optional[np.ndarray],
        reference: np.ndarray,
        functionals: Mapping[str, _ProbeFunctional],
        snapshot_targets: Sequence[float],
        total_steps: int,
        collect_trajectory: bool = False,
    ):
        """Full-space integration (the reference path) with the
        :meth:`_steppers` of ``plan``, stepping the deviation ``D`` from the
        start ``T0`` (see the module docstring).

        ``reference`` is ``K T0``; ``initial`` is ``T0``, or ``None`` for the
        steady state of ``reference``, solved once the steps are done so
        they need not wait for the operator's factor.  Probes are recorded
        on ``D`` and offset by their value at ``T0``; fields are kept only
        for snapshots, the final map and, with ``collect_trajectory``, every
        state including the initial field as a column for POD basis
        construction.
        """
        times = np.empty(total_steps + 1, dtype=float)
        times[0] = 0.0
        probe_values = {name: np.zeros(total_steps + 1) for name in functionals}
        rest = np.zeros(self._mesh.n_cells)
        deviation = rest
        recorder = _SnapshotRecorder(snapshot_targets)
        recorder.record(0.0, lambda: rest)
        trajectory = [rest] if collect_trajectory else None

        step_index = 0
        now = 0.0
        boundaries: List[float] = []
        for (segment, count, dt_eff), load, stepper in zip(
            plan, segment_loads, steppers
        ):
            forcing = load - reference
            factorization, explicit = stepper.factor, stepper.explicit
            # From rest under zero forcing every step solves to exactly zero.
            at_rest = deviation is rest and not forcing.any()
            for _ in range(count):
                if not at_rest:
                    deviation = factorization.solve(explicit @ deviation + forcing)
                step_index += 1
                now += dt_eff
                times[step_index] = now
                for name, functional in functionals.items():
                    probe_values[name][step_index] = functional.value(deviation)
                recorder.record(now, lambda: deviation)
                if trajectory is not None:
                    trajectory.append(deviation)
            if not np.all(np.isfinite(deviation)):
                raise SolverError(
                    f"transient solve produced non-finite temperatures in "
                    f"segment {segment.label or len(boundaries)}"
                )
            boundaries.append(now)
        # Targets within the validation tolerance of the schedule end may
        # still be (marginally) beyond the last step time; record them from
        # the final field so every accepted request yields a snapshot.
        recorder.record(now, lambda: deviation, flush=True)
        if initial is None:
            initial = self._steady_field(entry, reference)
        for name, functional in functionals.items():
            probe_values[name] += functional.value(initial)
        return (
            times,
            probe_values,
            recorder.snapshots(self._mesh, offset=initial),
            initial + deviation,
            boundaries,
            (
                np.column_stack(trajectory) + initial[:, None]
                if trajectory is not None
                else None
            ),
        )

    def _integrate_reduced(
        self,
        entry: CacheEntry,
        basis: ReducedBasis,
        plan: Sequence[Tuple[ScheduleSegment, int, float]],
        segment_loads: Sequence[np.ndarray],
        initial: np.ndarray,
        functionals: Mapping[str, _ProbeFunctional],
        snapshot_targets: Sequence[float],
        total_steps: int,
    ):
        """Galerkin integration in the reduced space, or ``None`` on a
        residual breach.

        Probes contract to precomputed ``r``-vectors; full-space fields are
        lifted only for requested snapshots, the final map and the
        a-posteriori check.  At the end of every segment the *full*
        equation's relative residual over the segment's last step is
        evaluated — a breach (or any non-finite value) rejects the whole
        solve so the caller reruns the reference path.
        """
        matrix = entry.operator.matrix
        if basis.n_cells != self._mesh.n_cells:
            raise SolverError(
                f"reduced basis lifts to {basis.n_cells} cells but the mesh "
                f"has {self._mesh.n_cells}"
            )
        model = self._rom_models.get(basis.key)
        if model is None:
            model = ReducedModel(basis, matrix, self._capacitance, self._theta)
            self._rom_models.put(basis.key, model)
        v = basis.matrix
        theta = self._theta

        coefficients = model.reduce(initial)
        times = np.empty(total_steps + 1, dtype=float)
        times[0] = 0.0
        probe_values = {
            name: np.empty(total_steps + 1, dtype=float) for name in functionals
        }
        # The initial probe values come from the exact initial field — it is
        # available for free and keeps step 0 identical to the LU path.
        for name, functional in functionals.items():
            probe_values[name][0] = functional.value(initial)
        reduced_probes = {
            name: v[functional.indices].T @ functional.weights
            for name, functional in functionals.items()
        }
        recorder = _SnapshotRecorder(snapshot_targets)
        recorder.record(0.0, lambda: initial)

        step_index = 0
        now = 0.0
        boundaries: List[float] = []
        max_residual = 0.0
        for (segment, count, dt_eff), load in zip(plan, segment_loads):
            stepper = model.stepper(dt_eff)
            reduced_load = v.T @ load
            previous = coefficients
            for _ in range(count):
                previous = coefficients
                coefficients = model.step(stepper, coefficients, reduced_load)
                step_index += 1
                now += dt_eff
                times[step_index] = now
                for name, row in reduced_probes.items():
                    probe_values[name][step_index] = float(row @ coefficients)
                recorder.record(now, lambda: v @ coefficients)
            x_prev = v @ previous
            x_now = v @ coefficients
            capacitance_over_dt = self._capacitance / dt_eff
            rhs = capacitance_over_dt * x_prev + load
            if theta != 1.0:
                rhs -= (1.0 - theta) * (matrix @ x_prev)
            defect = capacitance_over_dt * x_now + theta * (matrix @ x_now) - rhs
            scale = float(np.linalg.norm(rhs))
            residual = float(np.linalg.norm(defect)) / (scale if scale > 0.0 else 1.0)
            if not math.isfinite(residual) or residual > rom.RESIDUAL_TOL:
                return None
            max_residual = max(max_residual, residual)
            boundaries.append(now)
        final_field = v @ coefficients
        recorder.record(now, lambda: final_field, flush=True)
        return (
            times,
            probe_values,
            recorder.snapshots(self._mesh),
            final_field,
            boundaries,
            max_residual,
        )

    # Public API ------------------------------------------------------------------

    def solve(
        self,
        schedule: SourceSchedule,
        dt_s: float,
        initial_temperature_c: InitialField = None,
        snapshot_times_s: Sequence[float] = (),
        probes: Union[Mapping[str, ProbeSpec], CompiledProbes, None] = None,
    ) -> TransientResult:
        """Integrate the schedule and record probes / snapshots.

        Parameters
        ----------
        schedule:
            Piecewise-constant source schedule (built from an activity trace
            by the methodology layer, or by hand).
        dt_s:
            Maximum time step [s]; segments are subdivided into equal steps
            no longer than this, aligned to segment boundaries.
        initial_temperature_c:
            Starting field: a uniform value, a full array / ThermalMap,
            ``None`` for the mean convective ambient, or ``"steady"`` for
            the steady state of the first segment's load.  The full-space
            path solves that state after its steps, which do not need it,
            so they never wait on the operator's factor while another thread
            builds it; the basis key tags a steady start rather than
            hashing its field, so a reduced solve needs it only just before
            it integrates.
        snapshot_times_s:
            Times at which the full field is kept; each is snapped to the
            end of the first step at or after it.  The final field is always
            available as :attr:`TransientResult.final_map`.
        probes:
            Named regions recorded at *every* step: a ``Box`` (volume
            average) or a sequence of boxes or ``(n, 6)`` bounds array
            (mean of per-box averages), compiled together from one
            overlap set; or probes already compiled on this solver's mesh
            by :func:`compile_probes`.

        The solve integrates in a reduced POD subspace exactly when the
        :class:`~repro.thermal.rom.BasisScope` in scope
        (:func:`~repro.thermal.rom.basis_scope`) holds a basis for this
        problem, and in full space with the direct (banded Cholesky)
        factorisation otherwise.  A reduced solve that fails the
        a-posteriori residual check falls back to the full-space path
        transparently (see :attr:`TransientDiagnostics.rom_fallback`).  In
        a collecting scope, a full-space solve of a problem without a basis
        builds one from its trajectory and adds it to the scope; its result
        is the (bit-exact) full-space one.
        """
        if len(schedule) == 0:
            raise SolverError("the schedule has no segments")
        if not math.isfinite(dt_s) or dt_s <= 0.0:
            raise SolverError(f"dt_s must be a positive finite number, got {dt_s!r}")
        steady = isinstance(initial_temperature_c, str)
        if steady and initial_temperature_c != "steady":
            raise SolverError(
                f"unknown initial temperature {initial_temperature_c!r}; a "
                "string start must be 'steady'"
            )
        total_duration = schedule.total_duration_s
        snapshot_targets = sorted(float(t) for t in snapshot_times_s)
        if snapshot_targets and (
            snapshot_targets[0] < 0.0
            or snapshot_targets[-1] > total_duration * (1.0 + 1.0e-9)
        ):
            raise SolverError(
                "snapshot times must lie within the schedule duration "
                f"[0, {total_duration!r}]"
            )

        entry = shared_cache.operator(self._mesh, self._boundaries)
        boundary_load = boundary_rhs(entry.operator, self._boundaries)
        if not isinstance(probes, CompiledProbes):
            probes = compile_probes(self._mesh, probes or {})
        elif probes.mesh is not self._mesh:
            raise SolverError("the probes were compiled on another mesh")
        functionals = probes.functionals

        plan = self._segment_steps(schedule, dt_s)
        total_steps = sum(count for _, count, _ in plan)
        factorizations_before = len(self._step_sizes)
        segment_loads = [
            self._source_load(segment.sources) + boundary_load
            for segment, _, _ in plan
        ]
        scope = rom.active_scope()
        steppers = self._steppers(entry, plan) if scope is None else None
        initial = None if steady else self._initial_field(initial_temperature_c)

        basis: Optional[ReducedBasis] = None
        basis_key = ""
        rom_fallback = False
        rom_dim = 0
        if scope is not None:
            basis_key = basis_content_key(
                entry.matrix_key,
                self._capacitance,
                self._theta,
                "steady" if initial is None else initial,
                [
                    (count, dt_eff, load)
                    for (_, count, dt_eff), load in zip(plan, segment_loads)
                ],
            )
            basis = scope.bases.get(basis_key)

        if basis is not None:
            rom_dim = basis.dim
            if initial is None:
                initial = self._steady_field(entry, segment_loads[0])
            reduced = self._integrate_reduced(
                entry,
                basis,
                plan,
                segment_loads,
                initial,
                functionals,
                snapshot_targets,
                total_steps,
            )
            if reduced is not None:
                times, probe_values, snapshots, final, boundaries, residual = reduced
                return self._assemble_result(
                    times=times,
                    probe_values=probe_values,
                    snapshots=snapshots,
                    final_field=final,
                    boundaries=boundaries,
                    plan=plan,
                    dt_s=dt_s,
                    total_duration=total_duration,
                    factorizations_before=factorizations_before,
                    rom_dim=rom_dim,
                    rom_fallback=False,
                    rom_residual=residual,
                )
            rom_fallback = True
            logger.warning(
                "reduced-order solve rejected by the residual check "
                "(basis %s..., dim %d); falling back to full LU integration",
                basis_key[:12],
                rom_dim,
            )

        collect = scope is not None and scope.collect and basis is None
        # ``K T0``: for a steady start the first load itself, exactly.
        reference = segment_loads[0] if steady else entry.operator.matrix @ initial
        times, probe_values, snapshots, final, boundaries, trajectory = (
            self._integrate_full(
                entry,
                steppers or self._steppers(entry, plan),
                plan,
                segment_loads,
                initial,
                reference,
                functionals,
                snapshot_targets,
                total_steps,
                collect_trajectory=collect,
            )
        )
        if collect:
            assert scope is not None and trajectory is not None
            scope.bases[basis_key] = self._build_basis(
                basis_key, entry, trajectory, segment_loads
            )
        return self._assemble_result(
            times=times,
            probe_values=probe_values,
            snapshots=snapshots,
            final_field=final,
            boundaries=boundaries,
            plan=plan,
            dt_s=dt_s,
            total_duration=total_duration,
            factorizations_before=factorizations_before,
            rom_dim=rom_dim,
            rom_fallback=rom_fallback,
            rom_residual=None,
        )

    def _assemble_result(
        self,
        times: np.ndarray,
        probe_values: Mapping[str, np.ndarray],
        snapshots: List[TransientSnapshot],
        final_field: np.ndarray,
        boundaries: List[float],
        plan: Sequence[Tuple[ScheduleSegment, int, float]],
        dt_s: float,
        total_duration: float,
        factorizations_before: int,
        rom_dim: int,
        rom_fallback: bool,
        rom_residual: Optional[float],
    ) -> TransientResult:
        """The result of a solve; ``rom_residual`` is that of the accepted
        reduced solve, or ``None`` when the full-space path produced it."""
        final_map = ThermalMap(self._mesh, final_field.reshape(self._mesh.shape))
        diagnostics = TransientDiagnostics(
            n_cells=self._mesh.n_cells,
            steps=int(times.size - 1),
            theta=self._theta,
            dt_s=dt_s,
            total_duration_s=total_duration,
            factorizations_computed=len(self._step_sizes) - factorizations_before,
            distinct_steps=len({dt_eff for _, _, dt_eff in plan}),
            solver_method="lu" if rom_residual is None else "rom",
            rom_dim=rom_dim,
            rom_fallback=rom_fallback,
            rom_residual=rom_residual or 0.0,
        )
        probe_series = {
            name: ProbeSeries(name=name, times_s=times, temperatures_c=values)
            for name, values in probe_values.items()
        }
        return TransientResult(
            times_s=times,
            probes=probe_series,
            snapshots=snapshots,
            final_map=final_map,
            diagnostics=diagnostics,
            segment_boundaries_s=tuple(boundaries),
        )
