"""Worst-case SNR analysis of the optical interconnect."""

from .analysis import SNR_TIE_ULPS, BatchSnrReport, LinkResult, SnrAnalyzer, SnrReport
from .engine import OpticalLinkEngine, PropagationBatch, ThermalStateBatch
from .state import LaserDriveConfig, OniThermalState, states_by_name
from .transmission import PropagationTrace, WaveguidePropagator

__all__ = [
    "SNR_TIE_ULPS",
    "BatchSnrReport",
    "LinkResult",
    "SnrAnalyzer",
    "SnrReport",
    "OpticalLinkEngine",
    "PropagationBatch",
    "ThermalStateBatch",
    "LaserDriveConfig",
    "OniThermalState",
    "states_by_name",
    "PropagationTrace",
    "WaveguidePropagator",
]
