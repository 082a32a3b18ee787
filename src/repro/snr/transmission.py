"""Per-waveguide signal propagation with thermally detuned microrings.

This implements the physical core of the paper's Section IV.C model: each
signal injected on a waveguide propagates around the ring, losing power to
propagation and, at every ONI it crosses, to the receiver microrings parked
on the waveguide.  The fraction deposited into each ring follows the
Lorentzian drop response evaluated at the *actual* detuning, which combines
the design channel spacing with the thermo-optic drift of both the source
laser and the ring.  Power deposited into a communication's own receiver is
its signal; power deposited into any other receiver is crosstalk.

The detuning is formed as the channel gap plus ``drift·(T_ring − T_laser)``
(:meth:`WaveguidePropagator.detuning_nm`), never as the difference of two
absolute wavelengths near 1550 nm: one ulp of those (2.3e-13 nm) moves a
near-resonant ring's drop fraction far more than the round-off of the
temperatures that set it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..config import TechnologyParameters
from ..devices import MicroringModel, MicroringParameters, WaveguideModel, WaveguideParameters
from ..errors import AnalysisError
from ..onoc import Communication, OrnocNetwork
from .state import OniThermalState


@dataclass
class PropagationTrace:
    """Power bookkeeping of one signal as it travels around the ring."""

    communication: Communication
    injected_power_w: float
    #: Power deposited into the communication's own receiver [W].
    signal_power_w: float = 0.0
    #: Power deposited into other receivers, keyed by victim communication name [W].
    crosstalk_contributions_w: Dict[str, float] = field(default_factory=dict)
    #: Residual power still on the waveguide after the full loop [W].
    residual_power_w: float = 0.0
    #: Number of microrings the signal interacted with.
    rings_crossed: int = 0


class WaveguidePropagator:
    """Propagates all signals of one waveguide and accumulates crosstalk."""

    #: Supported receiver/signal interaction models.
    INTERACTION_MODELS = ("same_channel", "lineshape")

    def __init__(
        self,
        network: OrnocNetwork,
        technology: Optional[TechnologyParameters] = None,
        microring: Optional[MicroringModel] = None,
        waveguide: Optional[WaveguideModel] = None,
        interaction_model: str = "same_channel",
    ) -> None:
        if interaction_model not in self.INTERACTION_MODELS:
            raise AnalysisError(
                f"interaction_model must be one of {self.INTERACTION_MODELS}, "
                f"got {interaction_model!r}"
            )
        self._interaction_model = interaction_model
        self._network = network
        self._technology = technology or network.technology
        self._microring = microring or MicroringModel(
            MicroringParameters(
                bandwidth_3db_nm=self._technology.mr_bandwidth_3db_nm,
                thermal_drift_nm_per_c=self._technology.thermal_sensitivity_nm_per_c,
                drop_loss_db=self._technology.mr_drop_loss_db,
                through_loss_db=self._technology.mr_through_loss_db,
            )
        )
        self._waveguide = waveguide or WaveguideModel(
            WaveguideParameters(
                propagation_loss_db_per_cm=self._technology.propagation_loss_db_per_cm
            )
        )

    @property
    def microring(self) -> MicroringModel:
        """Receiver microring model used for drop/through fractions."""
        return self._microring

    @property
    def waveguide(self) -> WaveguideModel:
        """Waveguide loss model used for propagation."""
        return self._waveguide

    @property
    def interaction_model(self) -> str:
        """Active receiver/signal interaction model."""
        return self._interaction_model

    # Wavelength bookkeeping ------------------------------------------------------

    def signal_wavelength_nm(
        self, communication: Communication, states: Dict[str, OniThermalState]
    ) -> float:
        """Actual emitted wavelength of a communication's VCSEL [nm].

        The design (cold) wavelength is the assigned channel wavelength; the
        laser drifts with the source ONI temperature at the same rate as the
        microrings, as assumed by the paper.
        """
        if communication.wavelength_nm is None:
            raise AnalysisError(
                f"{communication.name} has no assigned wavelength; route the network first"
            )
        state = self._state_of(communication.source, states)
        reference = self._microring.parameters.reference_temperature_c
        drift = self._technology.thermal_sensitivity_nm_per_c
        return communication.wavelength_nm + drift * (state.laser_c - reference)

    def receiver_resonance_nm(
        self, communication: Communication, states: Dict[str, OniThermalState]
    ) -> float:
        """Actual resonance of the receiving microring of a communication [nm]."""
        if communication.wavelength_nm is None:
            raise AnalysisError(
                f"{communication.name} has no assigned wavelength; route the network first"
            )
        state = self._state_of(communication.destination, states)
        reference = self._microring.parameters.reference_temperature_c
        drift = self._technology.thermal_sensitivity_nm_per_c
        return communication.wavelength_nm + drift * (state.microring_c - reference)

    def detuning_nm(
        self,
        receiver: Communication,
        communication: Communication,
        states: Dict[str, OniThermalState],
    ) -> float:
        """Detuning of ``receiver``'s microring from ``communication``'s
        signal [nm]: ``receiver_resonance_nm - signal_wavelength_nm``, formed
        as the design channel gap plus ``drift·(T_ring − T_laser)`` so it is
        exact to the temperatures' round-off."""
        for link in (receiver, communication):
            if link.wavelength_nm is None:
                raise AnalysisError(
                    f"{link.name} has no assigned wavelength; route the network first"
                )
        ring_c = self._state_of(receiver.destination, states).microring_c
        laser_c = self._state_of(communication.source, states).laser_c
        drift = self._technology.thermal_sensitivity_nm_per_c
        gap = receiver.wavelength_nm - communication.wavelength_nm
        return gap + drift * (ring_c - laser_c)

    @staticmethod
    def _state_of(name: str, states: Dict[str, OniThermalState]) -> OniThermalState:
        try:
            return states[name]
        except KeyError:
            raise AnalysisError(f"no thermal state provided for ONI {name!r}") from None

    # Propagation --------------------------------------------------------------------

    def propagate_signal(
        self,
        communication: Communication,
        injected_power_w: float,
        states: Dict[str, OniThermalState],
    ) -> PropagationTrace:
        """Propagate one signal around the ring and record where its power goes."""
        if injected_power_w < 0.0:
            raise AnalysisError("injected power must be >= 0")
        ring = self._network.ring
        trace = PropagationTrace(
            communication=communication, injected_power_w=injected_power_w
        )
        # Raises for an unrouted communication or a missing source state.
        self.signal_wavelength_nm(communication, states)

        power = injected_power_w
        previous = communication.source
        for oni_name in ring.traversal_order(communication.source, communication.direction):
            segment_m = ring.segment_length_m(previous, oni_name, communication.direction)
            power *= self._waveguide.transmission(segment_m)
            previous = oni_name
            receivers = self._network.receivers_at(oni_name, communication.waveguide_index)
            for receiver in receivers:
                if (
                    self._interaction_model == "same_channel"
                    and receiver.channel_index != communication.channel_index
                ):
                    # Paper model (Section IV.C): receivers parked on other
                    # WDM channels are ideally isolated; only same-channel
                    # signals (wavelength reuse) interact, through the
                    # thermally-induced misalignment.
                    continue
                detuning = self.detuning_nm(receiver, communication, states)
                dropped = power * self._microring.drop_fraction(detuning)
                if receiver.name == communication.name:
                    trace.signal_power_w += dropped
                else:
                    trace.crosstalk_contributions_w[receiver.name] = (
                        trace.crosstalk_contributions_w.get(receiver.name, 0.0) + dropped
                    )
                power *= self._microring.through_fraction(detuning)
                trace.rings_crossed += 1
            if power <= 0.0:
                break
        trace.residual_power_w = power
        return trace

    def propagate_waveguide(
        self,
        waveguide_index: int,
        injected_powers_w: Dict[str, float],
        states: Dict[str, OniThermalState],
    ) -> Tuple[Dict[str, float], Dict[str, float], List[PropagationTrace]]:
        """Propagate every signal of one waveguide.

        ``injected_powers_w`` maps communication names to the optical power
        injected into the waveguide (``OPnet``).  Returns the per-receiver
        signal powers, the per-receiver total crosstalk powers, and the raw
        traces.
        """
        communications = self._network.communications_on_waveguide(waveguide_index)
        signal: Dict[str, float] = {}
        crosstalk: Dict[str, float] = {c.name: 0.0 for c in communications}
        traces: List[PropagationTrace] = []
        for communication in communications:
            if communication.name not in injected_powers_w:
                raise AnalysisError(
                    f"no injected power provided for {communication.name}"
                )
            trace = self.propagate_signal(
                communication, injected_powers_w[communication.name], states
            )
            traces.append(trace)
            signal[communication.name] = trace.signal_power_w
            for victim, power in trace.crosstalk_contributions_w.items():
                crosstalk[victim] = crosstalk.get(victim, 0.0) + power
        return signal, crosstalk, traces
