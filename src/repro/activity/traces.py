"""Synthetic activity traces.

The paper's methodology mentions running the thermal analysis under different
activities (uniform, diagonal, random, benchmark).  Real benchmark power
traces are not available offline, so this module provides *synthetic traces*:
sequences of activity phases whose statistics mimic typical multi-programmed
workloads (stable phases, migrations, ramps).  A steady-state analysis can
then be run per phase, or the phases can be averaged into an effective
activity.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Union

from ..errors import ConfigurationError
from ..geometry import Floorplan
from ..thermal import HeatSource, SourceBatch, SourceSchedule
from ..thermal.transient import piecewise_segment_index
from .patterns import ActivityPattern, from_mapping, uniform_activity


@dataclass(frozen=True)
class TracePhase:
    """One phase of a trace: an activity held for a duration."""

    activity: ActivityPattern
    duration_s: float

    def __post_init__(self) -> None:
        if not isinstance(self.activity, ActivityPattern):
            raise ConfigurationError(
                f"phase activity must be an ActivityPattern, got {self.activity!r}"
            )
        if not math.isfinite(self.duration_s) or self.duration_s <= 0.0:
            raise ConfigurationError(
                "phase duration must be a positive finite number, got "
                f"{self.duration_s!r}"
            )


@dataclass
class ActivityTrace:
    """A sequence of activity phases."""

    name: str
    phases: List[TracePhase] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("trace name must be non-empty")

    def add_phase(self, activity: ActivityPattern, duration_s: float) -> None:
        """Append a phase to the trace.

        ``duration_s`` must be a positive finite number (NaN, infinities and
        non-positive values are rejected).
        """
        self.phases.append(TracePhase(activity=activity, duration_s=duration_s))

    def __len__(self) -> int:
        return len(self.phases)

    def __iter__(self) -> Iterator[TracePhase]:
        return iter(self.phases)

    @property
    def total_duration_s(self) -> float:
        """Total trace duration [s]."""
        return sum(phase.duration_s for phase in self.phases)

    @property
    def phase_boundaries_s(self) -> List[float]:
        """Cumulative end time of every phase [s]."""
        boundaries: List[float] = []
        elapsed = 0.0
        for phase in self.phases:
            elapsed += phase.duration_s
            boundaries.append(elapsed)
        return boundaries

    def phase_at(self, t: float) -> TracePhase:
        """Phase active at time ``t`` (phases own ``[start, end)``).

        ``t`` equal to the total duration maps to the last phase, so the
        trace's endpoint is always queryable.  The boundary semantics are
        shared with :meth:`~repro.thermal.SourceSchedule.segment_at` through
        :func:`repro.thermal.transient.piecewise_segment_index`, which the
        transient scheduler uses to align steps with phase boundaries.
        """
        if not self.phases:
            raise ConfigurationError("the trace has no phases")
        try:
            index = piecewise_segment_index(
                [phase.duration_s for phase in self.phases], t
            )
        except ValueError as error:
            raise ConfigurationError(str(error)) from None
        return self.phases[index]

    def power_at(self, t: float) -> float:
        """Total instantaneous power dissipated at time ``t`` [W]."""
        return self.phase_at(t).activity.total_power_w

    def to_schedule(
        self,
        floorplan: Floorplan,
        z_min: float,
        z_max: float,
        static_sources: Union[SourceBatch, Sequence[HeatSource]] = (),
        group: str = "chip",
    ) -> SourceSchedule:
        """Piecewise-constant :class:`~repro.thermal.SourceSchedule` of the trace.

        Each phase becomes one segment: the phase's activity projected onto
        ``floorplan`` in the ``[z_min, z_max]`` layer, plus ``static_sources``
        (e.g. the constant ONI devices) repeated in every segment.  Segment
        boundaries land exactly on the phase boundaries, so the transient
        solver represents the trace's power exactly.
        """
        if not self.phases:
            raise ConfigurationError("the trace has no phases")
        static = SourceBatch.of(static_sources)
        schedule = SourceSchedule()
        for phase in self.phases:
            sources = phase.activity.source_batch(floorplan, z_min, z_max, group=group)
            schedule.add_segment(
                phase.duration_s,
                SourceBatch.concatenate([sources, static]),
                label=phase.activity.name,
            )
        return schedule

    def peak_power_w(self) -> float:
        """Maximum instantaneous total power over the trace [W]."""
        if not self.phases:
            raise ConfigurationError("the trace has no phases")
        return max(phase.activity.total_power_w for phase in self.phases)

    def average_power_w(self) -> float:
        """Time-weighted average total power [W]."""
        if not self.phases:
            raise ConfigurationError("the trace has no phases")
        total_energy = sum(
            phase.activity.total_power_w * phase.duration_s for phase in self.phases
        )
        return total_energy / self.total_duration_s

    def time_averaged_activity(self) -> ActivityPattern:
        """Single activity whose tile powers are the time-weighted averages."""
        if not self.phases:
            raise ConfigurationError("the trace has no phases")
        accumulated: Dict[str, float] = {}
        for phase in self.phases:
            for tile, power in phase.activity.tile_powers_w.items():
                accumulated[tile] = accumulated.get(tile, 0.0) + power * phase.duration_s
        duration = self.total_duration_s
        averaged = {tile: value / duration for tile, value in accumulated.items()}
        return from_mapping(f"{self.name}_avg", averaged)

    def worst_phase(self) -> TracePhase:
        """Phase with the highest total power (thermally most stressful)."""
        if not self.phases:
            raise ConfigurationError("the trace has no phases")
        return max(self.phases, key=lambda phase: phase.activity.total_power_w)


class SyntheticTraceGenerator:
    """Generates reproducible synthetic multi-phase traces.

    Seed contract
    -------------
    Every generator method draws from its own random stream, derived from
    ``(seed, method name)``.  Consequently:

    * the same ``(floorplan, seed, method, arguments)`` always produces the
      identical trace — across processes, Python versions and releases of
      this library that keep the same drawing logic;
    * calls are *order independent*: invoking other methods on the same
      generator instance (in any order, any number of times) never changes
      what a method returns;
    * different methods with the same seed use *distinct* streams, so e.g. a
      random-walk trace and a migration trace built from seed 0 are not
      correlated through shared draws.
    """

    def __init__(self, floorplan: Floorplan, seed: int = 0, kind: Optional[str] = "tile") -> None:
        self._floorplan = floorplan
        self._seed = seed
        self._kind = kind

    @property
    def seed(self) -> int:
        """Seed every per-method random stream is derived from."""
        return self._seed

    def _rng(self, method: str) -> random.Random:
        """Fresh random stream for one generator method (see class docstring).

        Seeding with a string routes through :mod:`random`'s stable SHA-512
        path, so the stream depends only on ``(seed, method)`` — never on
        hash randomisation or on previous calls.
        """
        return random.Random(f"{self._seed}:{method}")

    def _tile_names(self) -> List[str]:
        instances = (
            list(self._floorplan)
            if self._kind is None
            else self._floorplan.instances_of_kind(self._kind)
        )
        if not instances:
            raise ConfigurationError("the floorplan has no tiles")
        return [instance.name for instance in instances]

    def random_walk_trace(
        self,
        phases: int,
        mean_power_w: float,
        phase_duration_s: float = 1.0,
        volatility: float = 0.2,
    ) -> ActivityTrace:
        """Trace whose per-tile powers follow a bounded random walk."""
        if phases <= 0:
            raise ConfigurationError("phases must be positive")
        if mean_power_w <= 0.0:
            raise ConfigurationError("mean power must be positive")
        if not 0.0 <= volatility <= 1.0:
            raise ConfigurationError("volatility must be within [0, 1]")
        generator = self._rng("random_walk")
        tiles = self._tile_names()
        per_tile = mean_power_w / len(tiles)
        current = {name: per_tile for name in tiles}
        trace = ActivityTrace(name=f"random_walk_seed{self._seed}")
        for phase_index in range(phases):
            updated: Dict[str, float] = {}
            for name in tiles:
                factor = 1.0 + volatility * (2.0 * generator.random() - 1.0)
                updated[name] = max(current[name] * factor, 0.0)
            current = updated
            trace.add_phase(
                from_mapping(f"phase{phase_index}", dict(current)), phase_duration_s
            )
        return trace

    def migration_trace(
        self,
        total_power_w: float,
        phases: int = 4,
        phase_duration_s: float = 5.0,
        active_fraction: float = 0.25,
    ) -> ActivityTrace:
        """Trace mimicking workload migration: the busy region moves each phase."""
        if phases <= 0:
            raise ConfigurationError("phases must be positive")
        if not 0.0 < active_fraction <= 1.0:
            raise ConfigurationError("active_fraction must be in (0, 1]")
        tiles = self._tile_names()
        active_count = max(1, int(round(active_fraction * len(tiles))))
        generator = self._rng("migration")
        trace = ActivityTrace(name=f"migration_seed{self._seed}")
        background = 0.1 * total_power_w / len(tiles)
        for phase_index in range(phases):
            active = generator.sample(tiles, active_count)
            powers = {name: background for name in tiles}
            boost = 0.9 * total_power_w / active_count
            for name in active:
                powers[name] += boost
            trace.add_phase(
                from_mapping(f"migration_phase{phase_index}", powers), phase_duration_s
            )
        return trace

    def ramp_trace(
        self,
        floor_power_w: float,
        peak_power_w: float,
        phases: int = 5,
        phase_duration_s: float = 2.0,
    ) -> ActivityTrace:
        """Trace ramping the uniform activity from a floor power to a peak."""
        if phases <= 1:
            raise ConfigurationError("ramp traces need at least two phases")
        if peak_power_w < floor_power_w:
            raise ConfigurationError("peak power must be >= floor power")
        trace = ActivityTrace(name="ramp")
        for phase_index in range(phases):
            fraction = phase_index / (phases - 1)
            power = floor_power_w + fraction * (peak_power_w - floor_power_w)
            trace.add_phase(
                uniform_activity(self._floorplan, power, kind=self._kind),
                phase_duration_s,
            )
        return trace
