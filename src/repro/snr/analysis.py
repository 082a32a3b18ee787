"""Worst-case SNR analysis of a routed ORNoC network (paper Section IV.C).

For every communication ``C_sd`` the analyzer computes

``SNR_sd = 10 log10( OP_sd[sd] / sum_ij X_ij[sd] )``

where ``OP_sd[sd]`` is the signal power actually dropped into the receiver
``R_sd`` (after propagation losses and thermally-induced misalignment) and
``X_ij[sd]`` is the power other communications deposit into the same receiver
because of their own misalignment.  The injected power of each signal comes
from the VCSEL model evaluated at the source ONI's laser temperature, times
the taper coupling efficiency — exactly the chain of Figure 2 of the paper.

Evaluation runs on the vectorized :class:`~repro.snr.engine.OpticalLinkEngine`:
the routed network is compiled into NumPy arrays once, then
:meth:`SnrAnalyzer.analyze_many` evaluates a whole batch of thermal states in
one array pass and :meth:`SnrAnalyzer.analyze` is the batch of one (so the
two always agree exactly).  The original pure-Python walk survives in the
test suite as the parity oracle of the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import TechnologyParameters
from ..devices import (
    MicroringModel,
    PhotodetectorModel,
    VcselModel,
    WaveguideModel,
)
from ..errors import AnalysisError
from ..onoc import Communication, OrnocNetwork
from ..units import safe_mw_to_dbm, w_to_mw
from .engine import OpticalLinkEngine, PropagationBatch, ThermalStateBatch
from .state import LaserDriveConfig, OniThermalState
from .transmission import PropagationTrace, WaveguidePropagator

#: Tie window of the reported worst link and worst sample, in units in the
#: last place of the worst SNR.  Sized to solver round-off: samples along a
#: temperature plateau scatter by up to ~100 ulp across backward-stable
#: solvers (1024 ulp is ~3.6e-12 dB at 18.5 dB), while a sample that really
#: differs sits thousands of ulp away.
SNR_TIE_ULPS = 1024


def first_worst_index(snr_db: np.ndarray) -> np.ndarray:
    """Index along the last axis of the first SNR within :data:`SNR_TIE_ULPS`
    of the minimum (an exact argmin when the minimum is not finite).

    So the last bits of round-off never pick which of several equal links
    or samples is reported: symmetric links, or a plateau where the
    temperatures stop changing, report the first in canonical order.
    """
    exact = np.argmin(snr_db, axis=-1)
    worst = np.take_along_axis(snr_db, exact[..., None], axis=-1)
    finite = np.isfinite(worst)
    slack = SNR_TIE_ULPS * np.spacing(np.abs(np.where(finite, worst, 0.0)))
    tied = np.argmax(snr_db <= worst + slack, axis=-1)
    return np.where(finite[..., 0], tied, exact)


@dataclass(frozen=True)
class LinkResult:
    """SNR figures of one communication."""

    communication: Communication
    injected_power_w: float
    signal_power_w: float
    crosstalk_power_w: float
    snr_db: float
    detected: bool
    laser_temperature_c: float
    path_length_m: float

    @property
    def signal_power_dbm(self) -> float:
        """Received signal power [dBm]."""
        return safe_mw_to_dbm(w_to_mw(self.signal_power_w))

    @property
    def crosstalk_power_dbm(self) -> float:
        """Received crosstalk power [dBm]."""
        return safe_mw_to_dbm(w_to_mw(self.crosstalk_power_w))


@dataclass
class SnrReport:
    """Aggregate SNR report of a routed network under one thermal state."""

    links: List[LinkResult]
    traces: List[PropagationTrace]

    def __post_init__(self) -> None:
        if not self.links:
            raise AnalysisError("an SNR report needs at least one link")
        self._link_index: Optional[Dict[str, LinkResult]] = None

    def worst_case(self) -> LinkResult:
        """Link with the lowest SNR: the first in canonical order within
        :data:`SNR_TIE_ULPS` of the minimum."""
        snr = np.array([link.snr_db for link in self.links])
        return self.links[int(first_worst_index(snr))]

    @property
    def worst_case_snr_db(self) -> float:
        """Worst-case SNR over all communications [dB] (the exact minimum)."""
        return min(link.snr_db for link in self.links)

    @property
    def average_snr_db(self) -> float:
        """Average SNR over all communications [dB]."""
        return sum(link.snr_db for link in self.links) / len(self.links)

    @property
    def min_signal_power_w(self) -> float:
        """Weakest received signal power [W]."""
        return min(link.signal_power_w for link in self.links)

    @property
    def max_crosstalk_power_w(self) -> float:
        """Strongest received crosstalk power [W]."""
        return max(link.crosstalk_power_w for link in self.links)

    @property
    def all_detected(self) -> bool:
        """Whether every link is above the photodetector sensitivity."""
        return all(link.detected for link in self.links)

    def link(self, name: str) -> LinkResult:
        """Result of the communication called ``name`` (O(1) via a cached index)."""
        if self._link_index is None:
            self._link_index = {
                result.communication.name: result for result in self.links
            }
        try:
            return self._link_index[name]
        except KeyError:
            raise AnalysisError(f"no link called {name!r} in this report") from None

    def summary_dict(self) -> Dict[str, object]:
        """Plain-dict summary of the report (scenario artifacts, reports).

        Aggregates plus the per-link SNR, keyed by communication name; every
        value is a JSON-serialisable primitive.
        """
        worst = self.worst_case()
        return {
            "worst_case_snr_db": self.worst_case_snr_db,
            "average_snr_db": self.average_snr_db,
            "worst_link": worst.communication.name,
            "all_detected": self.all_detected,
            "links": {
                link.communication.name: link.snr_db for link in self.links
            },
        }

    def as_rows(self) -> List[Dict[str, float | str | bool]]:
        """Tabular view (one dict per link) for reports and benchmarks.

        Rows follow ``self.links`` order, which is guaranteed to be the
        analyzer's canonical link order: ascending waveguide index, then
        channel-assignment order within each waveguide.  The ordering is
        stable across :meth:`SnrAnalyzer.analyze`,
        :meth:`SnrAnalyzer.analyze_many` and repeated calls on the same
        routed network.
        """
        return [
            {
                "communication": link.communication.name,
                "signal_mw": w_to_mw(link.signal_power_w),
                "crosstalk_mw": w_to_mw(link.crosstalk_power_w),
                "snr_db": link.snr_db,
                "detected": link.detected,
                "path_length_mm": link.path_length_m * 1.0e3,
            }
            for link in self.links
        ]


@dataclass
class BatchSnrReport:
    """SNR figures of a routed network under a batch of ``B`` thermal states.

    Every per-link array is ``(B, S)`` with links in the canonical order
    (ascending waveguide index, channel-assignment order within), matching
    the ``links`` order of the scalar :class:`SnrReport`.  Aggregates return
    one value per thermal state; :meth:`report` materialises the full scalar
    report (links and traces) of one state.
    """

    communications: Tuple[Communication, ...]
    injected_power_w: np.ndarray
    signal_power_w: np.ndarray
    crosstalk_power_w: np.ndarray
    snr_db: np.ndarray
    detected: np.ndarray
    laser_temperature_c: np.ndarray
    path_length_m: np.ndarray
    noise_floor_w: float
    propagation: PropagationBatch
    engine: OpticalLinkEngine

    @property
    def batch_size(self) -> int:
        """Number of thermal states evaluated."""
        return int(self.signal_power_w.shape[0])

    @property
    def link_names(self) -> Tuple[str, ...]:
        """Communication names in canonical link order."""
        return self.engine.link_names

    @property
    def worst_case_snr_db(self) -> np.ndarray:
        """Worst-case SNR of each thermal state [dB], ``(B,)``."""
        return np.min(self.snr_db, axis=1)

    @property
    def average_snr_db(self) -> np.ndarray:
        """Average SNR of each thermal state [dB], ``(B,)``."""
        return np.mean(self.snr_db, axis=1)

    @property
    def min_signal_power_w(self) -> np.ndarray:
        """Weakest received signal power of each thermal state [W], ``(B,)``."""
        return np.min(self.signal_power_w, axis=1)

    @property
    def max_crosstalk_power_w(self) -> np.ndarray:
        """Strongest received crosstalk of each thermal state [W], ``(B,)``."""
        return np.max(self.crosstalk_power_w, axis=1)

    @property
    def all_detected(self) -> np.ndarray:
        """Whether every link of each thermal state is detected, ``(B,)``."""
        return np.all(self.detected, axis=1)

    def worst_case_links(self) -> List[str]:
        """Name of the worst-SNR link of each thermal state (the first in
        canonical order within :data:`SNR_TIE_ULPS` of its minimum)."""
        indices = first_worst_index(self.snr_db)
        return [self.link_names[index] for index in indices]

    def report(self, index: int) -> SnrReport:
        """Full scalar :class:`SnrReport` (links + traces) of one state.

        Trace bookkeeping counts every compiled interaction event
        (``rings_crossed`` is static per link); a fully extinguished signal
        keeps its downstream events with zero dropped power rather than
        stopping early as the pure-Python walk does.
        """
        if not -self.batch_size <= index < self.batch_size:
            raise AnalysisError(
                f"state index {index} outside batch of {self.batch_size}"
            )
        links: List[LinkResult] = []
        traces: List[PropagationTrace] = []
        engine = self.engine
        dropped = self.propagation.event_dropped_w[index]
        for s, communication in enumerate(self.communications):
            links.append(
                LinkResult(
                    communication=communication,
                    injected_power_w=float(self.injected_power_w[index, s]),
                    signal_power_w=float(self.signal_power_w[index, s]),
                    crosstalk_power_w=float(self.crosstalk_power_w[index, s]),
                    snr_db=float(self.snr_db[index, s]),
                    detected=bool(self.detected[index, s]),
                    laser_temperature_c=float(self.laser_temperature_c[index, s]),
                    path_length_m=float(self.path_length_m[s]),
                )
            )
            trace = PropagationTrace(
                communication=communication,
                injected_power_w=float(self.injected_power_w[index, s]),
                signal_power_w=float(self.signal_power_w[index, s]),
                residual_power_w=float(
                    self.propagation.residual_power_w[index, s]
                ),
                rings_crossed=int(engine.rings_crossed[s]),
            )
            own_name = communication.name
            for k, victim in engine.event_receivers(s):
                if victim == own_name:
                    continue
                trace.crosstalk_contributions_w[victim] = (
                    trace.crosstalk_contributions_w.get(victim, 0.0)
                    + float(dropped[s, k])
                )
            traces.append(trace)
        return SnrReport(links=links, traces=traces)

    def reports(self) -> List[SnrReport]:
        """Scalar reports of every thermal state, in batch order."""
        return [self.report(index) for index in range(self.batch_size)]


class SnrAnalyzer:
    """Evaluates the SNR of every communication of a routed ORNoC network."""

    def __init__(
        self,
        network: OrnocNetwork,
        technology: Optional[TechnologyParameters] = None,
        vcsel: Optional[VcselModel] = None,
        microring: Optional[MicroringModel] = None,
        waveguide: Optional[WaveguideModel] = None,
        photodetector: Optional[PhotodetectorModel] = None,
        noise_floor_w: float = 1.0e-9,
        interaction_model: str = "same_channel",
    ) -> None:
        if noise_floor_w < 0.0:
            raise AnalysisError("noise floor must be >= 0")
        self._network = network
        self._technology = technology or network.technology
        self._vcsel = vcsel or VcselModel()
        self._photodetector = photodetector or PhotodetectorModel()
        self._noise_floor_w = noise_floor_w
        self._propagator = WaveguidePropagator(
            network,
            technology=self._technology,
            microring=microring,
            waveguide=waveguide,
            interaction_model=interaction_model,
        )
        self._engine: Optional[OpticalLinkEngine] = None

    @property
    def propagator(self) -> WaveguidePropagator:
        """Scalar propagation reference (useful for detailed inspection)."""
        return self._propagator

    @property
    def engine(self) -> OpticalLinkEngine:
        """Compiled vectorized link engine (built lazily, then reused)."""
        if self._engine is None:
            self._engine = OpticalLinkEngine(
                self._network,
                technology=self._technology,
                microring=self._propagator.microring,
                waveguide=self._propagator.waveguide,
                interaction_model=self._propagator.interaction_model,
            )
        return self._engine

    # Analysis ------------------------------------------------------------------------

    def _injected_powers_many(
        self, laser_c: np.ndarray, drive: LaserDriveConfig
    ) -> np.ndarray:
        """Injected power (OPnet) of every signal of every state [W],
        ``(B, S)``: the VCSEL operating points of all (state, signal) pairs
        are solved in one batched call, times the taper coupling efficiency.
        """
        if drive.current_a is not None:
            optical = self._vcsel.operating_points(
                drive.current_a, laser_c
            ).optical_power_w
        else:
            optical = self._vcsel.optical_powers_from_dissipated(
                drive.dissipated_power_w, laser_c
            )
        return optical * self._technology.taper_coupling_efficiency

    def analyze_many(
        self,
        states_batch: Sequence[Dict[str, OniThermalState] | List[OniThermalState]],
        drive: LaserDriveConfig,
    ) -> BatchSnrReport:
        """SNR analysis of a whole batch of thermal states in one array pass.

        ``states_batch[b]`` is the per-ONI thermal state of design point
        ``b`` (any form :func:`~repro.snr.state.states_by_name` accepts).
        Element ``b`` of the result equals ``analyze(states_batch[b],
        drive)`` exactly — batching never changes the numbers.
        """
        engine = self.engine
        if engine.signal_count == 0:
            raise AnalysisError("an SNR report needs at least one link")
        states = engine.states_batch(states_batch)
        laser_c = engine.source_laser_c(states)
        injected = self._injected_powers_many(laser_c, drive)
        propagation = engine.propagate_many(states, injected)

        signal = propagation.signal_power_w
        noise = propagation.crosstalk_power_w + self._noise_floor_w
        snr_db = np.full(signal.shape, -np.inf)
        positive = signal > 0.0
        finite = positive & (noise > 0.0)
        with np.errstate(divide="ignore"):
            snr_db[finite] = 10.0 * np.log10(signal[finite] / noise[finite])
        snr_db[positive & ~(noise > 0.0)] = np.inf
        detected = signal >= self._photodetector.sensitivity_w
        return BatchSnrReport(
            communications=engine.communications,
            injected_power_w=injected,
            signal_power_w=signal,
            crosstalk_power_w=propagation.crosstalk_power_w,
            snr_db=snr_db,
            detected=detected,
            laser_temperature_c=laser_c,
            path_length_m=engine.path_length_m,
            noise_floor_w=self._noise_floor_w,
            propagation=propagation,
            engine=engine,
        )

    def analyze(
        self,
        states: Dict[str, OniThermalState] | List[OniThermalState],
        drive: LaserDriveConfig,
    ) -> SnrReport:
        """Full SNR analysis under the given per-ONI temperatures and drive.

        This is :meth:`analyze_many` with a batch of one, so the scalar and
        batched paths always agree exactly.
        """
        return self.analyze_many([states], drive).report(0)
