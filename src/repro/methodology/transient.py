"""Transient design-point evaluation: traces through the flow, time-resolved SNR.

This module is the methodology-layer face of the transient thermal engine
(:mod:`repro.thermal.transient`):

* :class:`TransientRequest` describes one transient design point — an
  :class:`~repro.activity.ActivityTrace`, an ONI operating point and the
  integrator settings; :func:`transient_request_key` derives the hashable
  content key the sweep engine caches it under (the request object itself
  holds a mutable trace and is not hashable);
* :class:`TransientEvaluation` carries the solved trace: the raw
  :class:`~repro.thermal.TransientResult` plus per-ONI temperature series
  (footprint average, VCSEL cluster, microring cluster) sampled at every
  step;
* :class:`SnrTimeSeries` is the chained SNR half: the per-ONI series are
  stacked into one batch of thermal states per time sample and pushed
  through the vectorized :meth:`~repro.snr.analysis.SnrAnalyzer.analyze_many`
  in a single call, yielding worst-case-over-time SNR per link and the time
  each link spends below an SNR floor — scenario classes a steady-state
  analysis cannot express.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..activity import ActivityTrace
from ..errors import AnalysisError, ConfigurationError
from ..oni import OniPowerConfig
from ..snr import BatchSnrReport, OniThermalState
from ..snr.analysis import first_worst_index
from ..thermal import TransientResult


@dataclass(frozen=True)
class TransientRequest:
    """One transient design point, as consumed by the batched flow API.

    ``initial`` selects the starting field: ``"ambient"`` (uniform at the
    convective ambient — the package powering on), ``"steady"`` (the steady
    state of the first phase — the workload already running), or an explicit
    uniform temperature in degC.
    """

    trace: ActivityTrace
    power: Optional[OniPowerConfig] = None
    dt_s: float = 0.1
    theta: float = 1.0
    initial: Union[str, float] = "ambient"
    snapshot_times_s: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.initial, str) and self.initial not in (
            "ambient",
            "steady",
        ):
            raise ConfigurationError(
                "initial must be 'ambient', 'steady' or a temperature in degC, "
                f"got {self.initial!r}"
            )
        # Accept any sequence of times but store a tuple: the request must
        # stay hashable-by-content for the sweep engine's cache key.
        object.__setattr__(
            self, "snapshot_times_s", tuple(self.snapshot_times_s)
        )


@dataclass(frozen=True)
class OniTemperatureSeries:
    """Temperatures of one ONI at every time step of a transient solve."""

    name: str
    times_s: np.ndarray
    average_c: np.ndarray
    laser_c: np.ndarray
    microring_c: np.ndarray

    def state_at(self, index: int) -> OniThermalState:
        """Thermal state of the ONI at time sample ``index``."""
        return OniThermalState(
            name=self.name,
            average_temperature_c=float(self.average_c[index]),
            laser_temperature_c=float(self.laser_c[index]),
            microring_temperature_c=float(self.microring_c[index]),
        )

    @property
    def max_average_c(self) -> float:
        """Hottest footprint-average temperature over the trace [degC]."""
        return float(self.average_c.max())

    @property
    def final_average_c(self) -> float:
        """Footprint-average temperature at the end of the trace [degC]."""
        return float(self.average_c[-1])


@dataclass
class TransientEvaluation:
    """Result of the transient thermal step for one design point."""

    trace: ActivityTrace
    power: OniPowerConfig
    result: TransientResult
    oni_series: Dict[str, OniTemperatureSeries]

    @property
    def times_s(self) -> np.ndarray:
        """Recorded step times [s], including t = 0."""
        return self.result.times_s

    @property
    def max_oni_temperature_c(self) -> float:
        """Hottest per-ONI average temperature seen at any time."""
        return max(series.max_average_c for series in self.oni_series.values())

    @property
    def final_oni_spread_c(self) -> float:
        """Spread of the per-ONI averages at the end of the trace."""
        finals = [series.final_average_c for series in self.oni_series.values()]
        return max(finals) - min(finals)

    def states_at(self, index: int) -> List[OniThermalState]:
        """Per-ONI thermal states at time sample ``index`` (for SNR)."""
        return [series.state_at(index) for series in self.oni_series.values()]

    def time_above_c(self, oni_name: str, threshold_c: float) -> float:
        """Time the ONI's footprint average spends above ``threshold_c`` [s]."""
        return self.result.probe(f"{oni_name}:avg").time_above_c(threshold_c)

    def settling_time_s(
        self, oni_name: str, tolerance_c: float
    ) -> Optional[float]:
        """Settling time of the ONI's footprint average (see
        :meth:`~repro.thermal.ProbeSeries.settling_time_s`)."""
        return self.result.probe(f"{oni_name}:avg").settling_time_s(tolerance_c)

    def summary_dict(self) -> Dict[str, object]:
        """Plain-dict summary of the transient step (scenario artifacts).

        Trace-level aggregates plus the per-ONI peak and final footprint
        averages; every value is a JSON-serialisable primitive.
        """
        times = self.times_s
        return {
            "trace": self.trace.name,
            "duration_s": float(times[-1]),
            "recorded_steps": int(times.size - 1),
            "max_oni_temperature_c": self.max_oni_temperature_c,
            "final_oni_spread_c": self.final_oni_spread_c,
            "oni": {
                name: {
                    "max_average_c": series.max_average_c,
                    "final_average_c": series.final_average_c,
                }
                for name, series in self.oni_series.items()
            },
        }


@dataclass
class SnrTimeSeries:
    """Time-resolved SNR of a routed network along a transient solve.

    ``batch`` holds one vectorized SNR evaluation per time sample, in time
    order; every per-link array is ``(T, S)`` with links in the engine's
    canonical order.
    """

    times_s: np.ndarray
    batch: BatchSnrReport

    def __post_init__(self) -> None:
        if self.times_s.size != self.batch.batch_size:
            raise AnalysisError(
                f"time axis of {self.times_s.size} samples does not match the "
                f"SNR batch of {self.batch.batch_size} states"
            )

    @property
    def link_names(self) -> Tuple[str, ...]:
        """Communication names in canonical link order."""
        return self.batch.link_names

    @property
    def snr_db(self) -> np.ndarray:
        """Per-sample, per-link SNR [dB], shape ``(T, S)``."""
        return self.batch.snr_db

    @property
    def worst_case_snr_db(self) -> np.ndarray:
        """Worst-case SNR across links at each time sample [dB], ``(T,)``."""
        return self.batch.worst_case_snr_db

    def worst_over_time_db(self) -> Dict[str, float]:
        """Worst SNR each link sees at any time of the trace [dB]."""
        minima = np.min(self.batch.snr_db, axis=0)
        return {
            name: float(value) for name, value in zip(self.link_names, minima)
        }

    @property
    def overall_worst_snr_db(self) -> float:
        """Single worst SNR over every link and every time sample [dB]."""
        return float(np.min(self.batch.snr_db))

    def time_below_floor_s(self, floor_db: float) -> Dict[str, float]:
        """Time each link spends below ``floor_db`` [s].

        Like :meth:`~repro.thermal.ProbeSeries.time_above_c`, each step
        interval counts fully when the SNR at its end is below the floor;
        the initial sample carries no duration.
        """
        durations = np.diff(self.times_s)
        below = self.batch.snr_db[1:, :] < floor_db
        per_link = durations @ below
        return {
            name: float(value) for name, value in zip(self.link_names, per_link)
        }

    def any_time_below_floor_s(self, floor_db: float) -> float:
        """Time during which *some* link is below ``floor_db`` [s]."""
        durations = np.diff(self.times_s)
        below_any = (self.batch.snr_db[1:, :] < floor_db).any(axis=1)
        return float(durations[below_any].sum())

    def summary_dict(self, floor_db: float) -> Dict[str, object]:
        """Plain-dict summary of the time-resolved SNR (scenario artifacts)."""
        worst_time, worst_link, worst_db = self.worst_sample()
        return {
            "samples": int(self.times_s.size),
            "overall_worst_snr_db": self.overall_worst_snr_db,
            "final_worst_case_snr_db": float(self.worst_case_snr_db[-1]),
            "worst_sample": {
                "time_s": worst_time,
                "link": worst_link,
                "snr_db": worst_db,
            },
            "floor_db": floor_db,
            "any_time_below_floor_s": self.any_time_below_floor_s(floor_db),
        }

    def worst_sample(self) -> Tuple[float, str, float]:
        """(time, link name, SNR) of the globally worst sample.

        Samples within :data:`repro.snr.SNR_TIE_ULPS` units in the last place
        of the minimum are ties, resolved to the earliest time (then the
        first link in canonical order).  Otherwise the last bits of round-off would pick
        which of several equal samples is reported, e.g. along a plateau
        where the temperatures stop changing.
        """
        snr = self.batch.snr_db
        flat = int(first_worst_index(snr.ravel()))
        t_index, s_index = np.unravel_index(flat, snr.shape)
        return (
            float(self.times_s[t_index]),
            self.link_names[s_index],
            float(self.batch.snr_db[t_index, s_index]),
        )


def transient_request_key(request: TransientRequest) -> Tuple:
    """Content-derived cache key of a transient request.

    Two requests with the same key run the same integration on the same
    flow: the trace's phases (tile powers and durations), the ONI operating
    point and every integrator knob are folded in.
    """
    power = request.power
    power_key = (
        None
        if power is None
        else (power.vcsel_power_w, power.heater_power_w, power.driver_power_w)
    )
    phases_key = tuple(
        (
            phase.duration_s,
            phase.activity.name,
            tuple(sorted(phase.activity.tile_powers_w.items())),
        )
        for phase in request.trace
    )
    return (
        request.trace.name,
        phases_key,
        power_key,
        request.dt_s,
        request.theta,
        request.initial,
        request.snapshot_times_s,
    )
