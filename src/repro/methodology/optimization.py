"""Optimisation helpers built on top of the design flow.

Two optimisation problems appear in the paper:

* find the MR heater power minimising the intra-ONI gradient for a given
  ``PVCSEL`` (the paper reports the optimum near ``Pheater = 0.3 x PVCSEL``);
* find the smallest ``PVCSEL`` that still meets an SNR (or detection) target,
  trading interconnect reliability for power (Section V.C, last paragraph).

Both use scipy's scalar optimisers / root finders on top of
:class:`~repro.methodology.flow.ThermalAwareDesignFlow`.  Every objective
evaluation goes through the flow's shared
:class:`~repro.methodology.engine.SweepEngine`, so design points revisited by
the optimiser (or already solved by a prior sweep on the same flow) are
served from the evaluation caches — both the thermal evaluations and the
SNR reports (``evaluate_snr``) — instead of being re-simulated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..activity import ActivityPattern
from ..errors import AnalysisError, ConfigurationError
from ..oni import OniPowerConfig
from ..snr import LaserDriveConfig
from .engine import SweepEngine
from .flow import ThermalAwareDesignFlow, ThermalRequest


@dataclass
class HeaterOptimizationResult:
    """Result of the heater-ratio optimisation."""

    vcsel_power_mw: float
    optimal_ratio: float
    optimal_heater_power_mw: float
    optimal_gradient_c: float
    evaluations: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def evaluation_count(self) -> int:
        """Number of thermal simulations performed."""
        return len(self.evaluations)


def find_optimal_heater_ratio(
    flow: ThermalAwareDesignFlow,
    activity: ActivityPattern,
    vcsel_power_mw: float,
    ratio_bounds: Tuple[float, float] = (0.0, 1.0),
    tolerance: float = 0.02,
    max_evaluations: int = 25,
) -> HeaterOptimizationResult:
    """Heater-to-VCSEL power ratio minimising the intra-ONI gradient.

    Uses scipy's bounded scalar minimisation; every objective evaluation is a
    full thermal simulation (coarse + zoom), so the tolerance is expressed on
    the ratio rather than on the gradient.
    """
    if vcsel_power_mw <= 0.0:
        raise ConfigurationError("vcsel_power_mw must be positive")
    low, high = ratio_bounds
    if not 0.0 <= low < high:
        raise ConfigurationError("ratio bounds must satisfy 0 <= low < high")
    evaluations: List[Tuple[float, float]] = []
    engine = SweepEngine.shared(flow)

    def objective(ratio: float) -> float:
        power = OniPowerConfig(vcsel_power_w=vcsel_power_mw * 1.0e-3).with_heater_ratio(
            float(ratio)
        )
        evaluation = engine.evaluate_one(
            ThermalRequest(activity=activity, power=power, zoom_oni="auto")
        )
        gradient = evaluation.gradient_c
        evaluations.append((float(ratio), gradient))
        return gradient

    from scipy.optimize import minimize_scalar  # slow to import; needed here only

    result = minimize_scalar(
        objective,
        bounds=(low, high),
        method="bounded",
        options={"xatol": tolerance, "maxiter": max_evaluations},
    )
    optimal_ratio = float(result.x)
    optimal_gradient = float(result.fun)
    return HeaterOptimizationResult(
        vcsel_power_mw=vcsel_power_mw,
        optimal_ratio=optimal_ratio,
        optimal_heater_power_mw=optimal_ratio * vcsel_power_mw,
        optimal_gradient_c=optimal_gradient,
        evaluations=evaluations,
    )


@dataclass
class PowerMinimizationResult:
    """Result of the minimum-PVCSEL search."""

    target_snr_db: float
    minimum_vcsel_power_mw: float
    achieved_snr_db: float
    heater_ratio: float
    evaluations: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def evaluation_count(self) -> int:
        """Number of design-point evaluations performed."""
        return len(self.evaluations)


def find_minimum_vcsel_power(
    flow: ThermalAwareDesignFlow,
    activity: ActivityPattern,
    target_snr_db: float,
    heater_ratio: float = 0.3,
    power_bounds_mw: Tuple[float, float] = (0.5, 6.0),
    tolerance_mw: float = 0.1,
    max_iterations: int = 20,
) -> PowerMinimizationResult:
    """Smallest ``PVCSEL`` whose worst-case SNR still meets ``target_snr_db``.

    The worst-case SNR is monotonically increasing with ``PVCSEL`` over the
    practical range (more optical power means a stronger received signal), so
    a bisection on the sign of ``SNR(PVCSEL) - target`` converges; the search
    raises :class:`AnalysisError` when even the upper bound misses the target.
    """
    low, high = power_bounds_mw
    if not 0.0 < low < high:
        raise ConfigurationError("power bounds must satisfy 0 < low < high")
    if tolerance_mw <= 0.0:
        raise ConfigurationError("tolerance_mw must be positive")
    evaluations: List[Tuple[float, float]] = []
    engine = SweepEngine.shared(flow)

    def snr_at(power_mw: float) -> float:
        power = OniPowerConfig(vcsel_power_w=power_mw * 1.0e-3).with_heater_ratio(
            heater_ratio
        )
        drive = LaserDriveConfig(dissipated_power_w=power.vcsel_power_w)
        report = engine.evaluate_snr(
            [ThermalRequest(activity=activity, power=power, zoom_oni=None)], drive
        )[0]
        snr = report.worst_case_snr_db
        evaluations.append((power_mw, snr))
        return snr

    snr_high = snr_at(high)
    if snr_high < target_snr_db:
        raise AnalysisError(
            f"the SNR target of {target_snr_db:.1f} dB is not reachable even at "
            f"PVCSEL = {high:.2f} mW (achieved {snr_high:.1f} dB)"
        )
    snr_low = snr_at(low)
    if snr_low >= target_snr_db:
        return PowerMinimizationResult(
            target_snr_db=target_snr_db,
            minimum_vcsel_power_mw=low,
            achieved_snr_db=snr_low,
            heater_ratio=heater_ratio,
            evaluations=evaluations,
        )

    lower, upper = low, high
    achieved = snr_high
    for _ in range(max_iterations):
        if upper - lower <= tolerance_mw:
            break
        middle = 0.5 * (lower + upper)
        snr_middle = snr_at(middle)
        if snr_middle >= target_snr_db:
            upper = middle
            achieved = snr_middle
        else:
            lower = middle
    return PowerMinimizationResult(
        target_snr_db=target_snr_db,
        minimum_vcsel_power_mw=upper,
        achieved_snr_db=achieved,
        heater_ratio=heater_ratio,
        evaluations=evaluations,
    )


def calibrate_heat_sink(
    build_flow: Callable[[float], float],
    target_temperature_c: float,
    coefficient_bounds: Tuple[float, float] = (500.0, 10000.0),
    tolerance_c: float = 0.25,
    max_iterations: int = 30,
) -> float:
    """Find the heat-sink coefficient that hits a target average temperature.

    ``build_flow`` maps a convective coefficient [W/(m^2 K)] to the resulting
    average ONI temperature [degC]; the function performs a bisection, which
    is valid because the temperature decreases monotonically with the
    coefficient.  This utility supports the calibration described in
    DESIGN.md (matching the paper's Figure 9-a operating range).
    """
    low, high = coefficient_bounds
    if not 0.0 < low < high:
        raise ConfigurationError("coefficient bounds must satisfy 0 < low < high")
    temperature_low = build_flow(low)
    temperature_high = build_flow(high)
    if not temperature_high <= target_temperature_c <= temperature_low:
        raise AnalysisError(
            "the target temperature is outside the range reachable with the "
            f"given coefficient bounds ([{temperature_high:.1f}, {temperature_low:.1f}] degC)"
        )
    for _ in range(max_iterations):
        middle = 0.5 * (low + high)
        temperature = build_flow(middle)
        if abs(temperature - target_temperature_c) <= tolerance_c:
            return middle
        if temperature > target_temperature_c:
            low = middle
        else:
            high = middle
    return 0.5 * (low + high)
