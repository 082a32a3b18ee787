"""Design-space exploration sweeps (paper Section V.B / V.C).

Each helper reproduces the data behind one of the paper's figures:

* :func:`sweep_average_temperature` — Figure 9-a (ONI average temperature
  versus ``PVCSEL`` for several chip activities);
* :func:`sweep_heater_power` — Figure 9-b (intra-ONI gradient versus
  ``Pheater`` for several ``PVCSEL``);
* :func:`compare_heater_options` — Figure 10 (average and gradient
  temperature with and without the MR heater);
* :func:`snr_across_scenarios` — Figure 12 (worst-case SNR of the three ONI
  placements under several activities).

All helpers plan their grid up front and execute it on the shared
:class:`~repro.methodology.engine.SweepEngine`, which deduplicates repeated
(activity, operating-point) evaluations and hands the rest to the flow in
one batch: superposed from a small design's response basis, or stacked
into multi-right-hand-side calls against the flow's cached factorisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from ..activity import ActivityPattern, standard_activities, uniform_activity
from ..casestudy import OniRingScenario, SccArchitecture
from ..errors import ConfigurationError
from ..oni import OniPowerConfig
from ..snr import LaserDriveConfig
from ..units import w_to_mw
from .engine import SweepEngine
from .flow import ThermalAwareDesignFlow, ThermalRequest


@dataclass(frozen=True)
class TemperatureSweepPoint:
    """One point of the Figure 9-a sweep."""

    chip_power_w: float
    vcsel_power_mw: float
    average_oni_temperature_c: float
    laser_temperature_c: float


@dataclass(frozen=True)
class HeaterSweepPoint:
    """One point of the Figure 9-b sweep."""

    vcsel_power_mw: float
    heater_power_mw: float
    gradient_c: float
    average_oni_temperature_c: float


@dataclass(frozen=True)
class HeaterComparisonPoint:
    """One point of the Figure 10 comparison."""

    vcsel_power_mw: float
    heater_ratio: float
    with_heater_gradient_c: float
    without_heater_gradient_c: float
    with_heater_average_c: float
    without_heater_average_c: float


@dataclass(frozen=True)
class ScenarioSnrPoint:
    """One bar group of Figure 12."""

    scenario: str
    ring_length_mm: float
    activity: str
    worst_case_snr_db: float
    average_snr_db: float
    min_signal_power_mw: float
    max_crosstalk_power_mw: float
    oni_temperature_min_c: float
    oni_temperature_max_c: float
    all_detected: bool


def _zoom_setting(fast: bool) -> Optional[str]:
    return None if fast else "auto"


def sweep_average_temperature(
    flow: ThermalAwareDesignFlow,
    chip_powers_w: Sequence[float],
    vcsel_powers_mw: Sequence[float],
    heater_ratio: float = 0.0,
    fast: bool = False,
) -> List[TemperatureSweepPoint]:
    """Figure 9-a: ONI average temperature vs ``PVCSEL`` for several chip powers.

    ``fast`` skips the zoom solve (the average temperature does not need it).
    """
    if not chip_powers_w or not vcsel_powers_mw:
        raise ConfigurationError("chip_powers_w and vcsel_powers_mw must be non-empty")
    grid: List[tuple] = []
    requests: List[ThermalRequest] = []
    for chip_power in chip_powers_w:
        activity = uniform_activity(flow.architecture.floorplan, chip_power)
        for vcsel_mw in vcsel_powers_mw:
            power = OniPowerConfig(vcsel_power_w=vcsel_mw * 1.0e-3).with_heater_ratio(
                heater_ratio
            )
            grid.append((chip_power, vcsel_mw))
            requests.append(
                ThermalRequest(
                    activity=activity, power=power, zoom_oni=_zoom_setting(fast)
                )
            )
    evaluations = SweepEngine.shared(flow).evaluate(requests)

    points: List[TemperatureSweepPoint] = []
    for (chip_power, vcsel_mw), evaluation in zip(grid, evaluations):
        zoom_name = evaluation.zoomed_oni or flow.default_zoom_oni()
        summary = evaluation.oni_summaries[zoom_name]
        points.append(
            TemperatureSweepPoint(
                chip_power_w=chip_power,
                vcsel_power_mw=vcsel_mw,
                average_oni_temperature_c=summary.average_c,
                laser_temperature_c=summary.laser_c,
            )
        )
    return points


def sweep_heater_power(
    flow: ThermalAwareDesignFlow,
    activity: ActivityPattern,
    vcsel_powers_mw: Sequence[float],
    heater_powers_mw: Sequence[float],
) -> List[HeaterSweepPoint]:
    """Figure 9-b: intra-ONI gradient vs ``Pheater`` for several ``PVCSEL``."""
    if not vcsel_powers_mw or not heater_powers_mw:
        raise ConfigurationError("power sweeps must be non-empty")
    grid: List[tuple] = []
    requests: List[ThermalRequest] = []
    for vcsel_mw in vcsel_powers_mw:
        for heater_mw in heater_powers_mw:
            power = OniPowerConfig(
                vcsel_power_w=vcsel_mw * 1.0e-3,
                heater_power_w=heater_mw * 1.0e-3,
            )
            grid.append((vcsel_mw, heater_mw))
            requests.append(
                ThermalRequest(activity=activity, power=power, zoom_oni="auto")
            )
    evaluations = SweepEngine.shared(flow).evaluate(requests)

    points: List[HeaterSweepPoint] = []
    for (vcsel_mw, heater_mw), evaluation in zip(grid, evaluations):
        summary = evaluation.oni_summaries[evaluation.zoomed_oni]
        points.append(
            HeaterSweepPoint(
                vcsel_power_mw=vcsel_mw,
                heater_power_mw=heater_mw,
                gradient_c=evaluation.gradient_c,
                average_oni_temperature_c=summary.average_c,
            )
        )
    return points


def compare_heater_options(
    flow: ThermalAwareDesignFlow,
    activity: ActivityPattern,
    vcsel_powers_mw: Sequence[float],
    heater_ratio: float = 0.3,
) -> List[HeaterComparisonPoint]:
    """Figure 10: average and gradient temperature with and without MR heaters."""
    if not vcsel_powers_mw:
        raise ConfigurationError("vcsel_powers_mw must be non-empty")
    if heater_ratio < 0.0:
        raise ConfigurationError("heater_ratio must be >= 0")
    requests: List[ThermalRequest] = []
    for vcsel_mw in vcsel_powers_mw:
        base = OniPowerConfig(vcsel_power_w=vcsel_mw * 1.0e-3, heater_power_w=0.0)
        requests.append(ThermalRequest(activity=activity, power=base, zoom_oni="auto"))
        requests.append(
            ThermalRequest(
                activity=activity,
                power=base.with_heater_ratio(heater_ratio),
                zoom_oni="auto",
            )
        )
    evaluations = SweepEngine.shared(flow).evaluate(requests)

    points: List[HeaterComparisonPoint] = []
    for index, vcsel_mw in enumerate(vcsel_powers_mw):
        without_eval = evaluations[2 * index]
        with_eval = evaluations[2 * index + 1]
        without_summary = without_eval.oni_summaries[without_eval.zoomed_oni]
        with_summary = with_eval.oni_summaries[with_eval.zoomed_oni]
        points.append(
            HeaterComparisonPoint(
                vcsel_power_mw=vcsel_mw,
                heater_ratio=heater_ratio,
                with_heater_gradient_c=with_eval.gradient_c,
                without_heater_gradient_c=without_eval.gradient_c,
                with_heater_average_c=with_summary.laser_c,
                without_heater_average_c=without_summary.laser_c,
            )
        )
    return points


def gradient_slope_c_per_mw(points: Sequence[HeaterComparisonPoint]) -> float:
    """Least-squares slope of the no-heater gradient versus ``PVCSEL`` [degC/mW].

    The paper quotes ~1.7 degC/mW for the case study (Section V.B).
    """
    if len(points) < 2:
        raise ConfigurationError("at least two points are needed to fit a slope")
    xs = [p.vcsel_power_mw for p in points]
    ys = [p.without_heater_gradient_c for p in points]
    n = float(len(xs))
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    denominator = sum((x - mean_x) ** 2 for x in xs)
    if denominator == 0.0:
        raise ConfigurationError("all sweep points share the same PVCSEL")
    return numerator / denominator


def snr_across_scenarios(
    architecture: SccArchitecture,
    scenarios: Dict[str, OniRingScenario] | Iterable[OniRingScenario],
    activities: Optional[Dict[str, ActivityPattern]] = None,
    power: Optional[OniPowerConfig] = None,
    drive: Optional[LaserDriveConfig] = None,
    chip_power_w: float = 25.0,
    zoom: bool = False,
) -> List[ScenarioSnrPoint]:
    """Figure 12: SNR of each placement scenario under each activity.

    ``power`` defaults to the paper's operating point (PVCSEL = 3.6 mW,
    Pheater = 1.08 mW) and ``drive`` to the matching dissipated-power drive.
    """
    if isinstance(scenarios, dict):
        scenario_list = list(scenarios.values())
    else:
        scenario_list = list(scenarios)
    if not scenario_list:
        raise ConfigurationError("at least one scenario is required")
    operating_power = power or OniPowerConfig(
        vcsel_power_w=3.6e-3, heater_power_w=1.08e-3
    )
    operating_drive = drive or LaserDriveConfig(
        dissipated_power_w=operating_power.vcsel_power_w
    )
    activity_map = activities or standard_activities(
        architecture.floorplan, chip_power_w
    )

    requests = [
        ThermalRequest(
            activity=activity,
            power=operating_power,
            zoom_oni="auto" if zoom else None,
        )
        for activity in activity_map.values()
    ]
    points: List[ScenarioSnrPoint] = []
    for scenario in scenario_list:
        # Each placement is its own mesh; its engine deduplicates/batches
        # the thermal half, and the SNR half runs as one vectorized pass over
        # all its activities (its thermal work served from the cache).
        engine = SweepEngine(ThermalAwareDesignFlow(architecture, scenario))
        evaluations = engine.evaluate(requests)
        reports = engine.evaluate_snr(requests, operating_drive)
        for activity_name, evaluation, report in zip(
            activity_map, evaluations, reports
        ):
            averages = [s.average_c for s in evaluation.oni_summaries.values()]
            points.append(
                ScenarioSnrPoint(
                    scenario=scenario.name,
                    ring_length_mm=scenario.ring_length_mm,
                    activity=activity_name,
                    worst_case_snr_db=report.worst_case_snr_db,
                    average_snr_db=report.average_snr_db,
                    min_signal_power_mw=w_to_mw(report.min_signal_power_w),
                    max_crosstalk_power_mw=w_to_mw(report.max_crosstalk_power_w),
                    oni_temperature_min_c=min(averages),
                    oni_temperature_max_c=max(averages),
                    all_detected=report.all_detected,
                )
            )
    return points
