"""Thermal-aware design methodology: flow, sweep engine, exploration, optimisation."""

from .engine import (
    ENGINE_COUNTERS,
    SweepEngine,
    SweepPoint,
    add_engine_counters,
    evaluation_key,
)
from .exploration import (
    HeaterComparisonPoint,
    HeaterSweepPoint,
    ScenarioSnrPoint,
    TemperatureSweepPoint,
    compare_heater_options,
    gradient_slope_c_per_mw,
    snr_across_scenarios,
    sweep_average_temperature,
    sweep_heater_power,
)
from .flow import (
    DesignPointResult,
    OniThermalSummary,
    ThermalAwareDesignFlow,
    ThermalEvaluation,
    ThermalRequest,
)
from .power import NetworkPowerModel, NetworkPowerReport
from .transient import (
    OniTemperatureSeries,
    SnrTimeSeries,
    TransientEvaluation,
    TransientRequest,
    transient_request_key,
)
from .optimization import (
    HeaterOptimizationResult,
    PowerMinimizationResult,
    calibrate_heat_sink,
    find_minimum_vcsel_power,
    find_optimal_heater_ratio,
)
from .reporting import format_table, pivot, rows_from_dataclasses, write_csv

__all__ = [
    "ThermalAwareDesignFlow",
    "ThermalEvaluation",
    "ThermalRequest",
    "OniThermalSummary",
    "DesignPointResult",
    "SweepEngine",
    "SweepPoint",
    "ENGINE_COUNTERS",
    "add_engine_counters",
    "evaluation_key",
    "TemperatureSweepPoint",
    "HeaterSweepPoint",
    "HeaterComparisonPoint",
    "ScenarioSnrPoint",
    "sweep_average_temperature",
    "sweep_heater_power",
    "compare_heater_options",
    "gradient_slope_c_per_mw",
    "snr_across_scenarios",
    "NetworkPowerModel",
    "NetworkPowerReport",
    "OniTemperatureSeries",
    "SnrTimeSeries",
    "TransientEvaluation",
    "TransientRequest",
    "transient_request_key",
    "HeaterOptimizationResult",
    "PowerMinimizationResult",
    "find_optimal_heater_ratio",
    "find_minimum_vcsel_power",
    "calibrate_heat_sink",
    "format_table",
    "pivot",
    "rows_from_dataclasses",
    "write_csv",
]
