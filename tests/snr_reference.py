"""Pure-Python reference walk of the SNR analysis: the parity oracle of
:meth:`repro.snr.SnrAnalyzer.analyze_many`.

:func:`analyze_scalar` walks the ring ONI by ONI through the analyzer's
:class:`~repro.snr.transmission.WaveguidePropagator`, exactly as the
original model did.  It matches the vectorized engine to ~1e-6 relative
(the scalar VCSEL inversion uses a looser root-finder tolerance);
everything else about the physics is identical.  One trace-bookkeeping
difference: when a signal is fully extinguished mid-loop, this walk stops
early (fewer ``rings_crossed``, no zero-power crosstalk keys) while the
engine records every interaction event with a zero dropped power — all
*powers* still agree.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.errors import AnalysisError
from repro.onoc import Communication
from repro.snr import (
    LaserDriveConfig,
    LinkResult,
    OniThermalState,
    PropagationTrace,
    SnrAnalyzer,
    SnrReport,
    states_by_name,
)


def injected_power_w(
    analyzer: SnrAnalyzer,
    communication: Communication,
    state: OniThermalState,
    drive: LaserDriveConfig,
) -> float:
    """Optical power injected into the waveguide by a communication (OPnet)."""
    temperature = state.laser_c
    if drive.current_a is not None:
        optical = analyzer._vcsel.operating_point(
            drive.current_a, temperature
        ).optical_power_w
    else:
        optical = analyzer._vcsel.optical_power_from_dissipated(
            drive.dissipated_power_w, temperature
        )
    return optical * analyzer._technology.taper_coupling_efficiency


def _snr_db(signal_power_w: float, noise_power_w: float) -> float:
    """SNR in dB: ``-inf`` without signal, ``+inf`` for a signal without noise."""
    if signal_power_w <= 0.0:
        return float("-inf")
    if noise_power_w <= 0.0:
        return float("inf")
    return 10.0 * math.log10(signal_power_w / noise_power_w)


def analyze_scalar(analyzer: SnrAnalyzer, states, drive: LaserDriveConfig) -> SnrReport:
    """Reference counterpart of ``analyzer.analyze(states, drive)``."""
    network = analyzer._network
    state_map = states_by_name(states)
    injected: Dict[str, float] = {}
    for communication in network.assigned_communications():
        state = state_map.get(communication.source)
        if state is None:
            raise AnalysisError(
                f"no thermal state provided for ONI {communication.source!r}"
            )
        injected[communication.name] = injected_power_w(
            analyzer, communication, state, drive
        )

    links: List[LinkResult] = []
    traces: List[PropagationTrace] = []
    waveguides = {c.waveguide_index for c in network.assigned_communications()}
    for waveguide_index in sorted(waveguides):
        signal, crosstalk, wg_traces = analyzer.propagator.propagate_waveguide(
            waveguide_index, injected, state_map
        )
        traces.extend(wg_traces)
        for communication in network.communications_on_waveguide(waveguide_index):
            name = communication.name
            signal_power = signal.get(name, 0.0)
            crosstalk_power = crosstalk.get(name, 0.0)
            links.append(
                LinkResult(
                    communication=communication,
                    injected_power_w=injected[name],
                    signal_power_w=signal_power,
                    crosstalk_power_w=crosstalk_power,
                    snr_db=_snr_db(
                        signal_power, crosstalk_power + analyzer._noise_floor_w
                    ),
                    detected=analyzer._photodetector.detects(signal_power),
                    laser_temperature_c=state_map[communication.source].laser_c,
                    path_length_m=network.ring.path_length_m(
                        communication.source,
                        communication.destination,
                        communication.direction,
                    ),
                )
            )
    return SnrReport(links=links, traces=traces)
