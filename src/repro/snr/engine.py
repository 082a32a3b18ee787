"""Vectorized optical-link engine: compile the ORNoC once, evaluate many states.

The scalar :class:`~repro.snr.transmission.WaveguidePropagator` walks the
ring ONI-by-ONI and ring-by-ring in pure Python for every thermal state.
Everything it looks up along the way — traversal orders, segment lengths,
which receivers sit on which waveguide, which signal/receiver pairs interact
under the chosen interaction model — depends only on the *routed network*,
not on the thermal state.  This module therefore splits the model into two
phases:

* **compilation** (:meth:`OpticalLinkEngine.compile`) — walk the routed
  :class:`~repro.onoc.OrnocNetwork` once and freeze it into immutable NumPy
  arrays: per-signal source/destination ONI indices and design wavelengths,
  the padded ``(signals, events)`` table of microring interactions in
  traversal order with the cumulative waveguide transmission up to each
  event, and the receiver incidence matrix that scatters dropped powers into
  per-receiver crosstalk totals;
* **evaluation** (:meth:`OpticalLinkEngine.propagate_many`) — given a
  :class:`ThermalStateBatch` of ``B`` thermal states and the injected powers,
  compute every signal, crosstalk and residual power of all ``B`` states in
  a handful of array operations (detunings → Lorentzian drop/through
  fractions → an exclusive cumulative through-product per signal → one
  matmul against the incidence matrix).

Element ``b`` of a batched evaluation is computed by exactly the same
element-wise operations as a batch of one, so batching never changes the
numbers.  The physics is identical to the scalar walk; the detunings are
formed as it forms them (the compiled channel gap plus
``drift·(T_ring − T_laser)``, see
:meth:`~repro.snr.transmission.WaveguidePropagator.detuning_nm`), and only
the association order of the floating-point products differs (≲1e-12
relative).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import TechnologyParameters
from ..devices import (
    MicroringModel,
    MicroringParameters,
    WaveguideModel,
    WaveguideParameters,
)
from ..errors import AnalysisError
from ..onoc import Communication, OrnocNetwork
from ..units import db_loss_to_transmission
from .state import OniThermalState, states_by_name

#: Supported receiver/signal interaction models (mirrors WaveguidePropagator).
INTERACTION_MODELS = ("same_channel", "lineshape")


@dataclass(frozen=True)
class ThermalStateBatch:
    """Per-ONI laser / microring temperatures of ``B`` thermal states.

    ``laser_c`` and ``microring_c`` are ``(B, n_onis)`` arrays whose columns
    follow ``oni_names``.  Entries for ONIs that carry no transmitter or
    receiver may be NaN (they are never read by the engine).
    """

    oni_names: Tuple[str, ...]
    laser_c: np.ndarray
    microring_c: np.ndarray

    def __post_init__(self) -> None:
        expected = (self.batch_size, len(self.oni_names))
        if self.laser_c.shape != expected or self.microring_c.shape != expected:
            raise AnalysisError(
                f"state arrays must have shape {expected}, got "
                f"{self.laser_c.shape} / {self.microring_c.shape}"
            )

    @property
    def batch_size(self) -> int:
        """Number of thermal states in the batch."""
        return self.laser_c.shape[0]

    @classmethod
    def from_states(
        cls,
        states_batch: Sequence[Dict[str, OniThermalState] | List[OniThermalState]],
        oni_names: Sequence[str],
    ) -> "ThermalStateBatch":
        """Stack per-state dicts/lists of :class:`OniThermalState` into arrays.

        Every state must provide all of ``oni_names``; a missing ONI raises
        the same :class:`AnalysisError` as the scalar path.
        """
        names = tuple(oni_names)
        batch = len(states_batch)
        laser = np.empty((batch, len(names)), dtype=float)
        microring = np.empty((batch, len(names)), dtype=float)
        for row, states in enumerate(states_batch):
            state_map = states_by_name(states)
            for column, name in enumerate(names):
                state = state_map.get(name)
                if state is None:
                    raise AnalysisError(
                        f"no thermal state provided for ONI {name!r}"
                    )
                laser[row, column] = state.laser_c
                microring[row, column] = state.microring_c
        return cls(oni_names=names, laser_c=laser, microring_c=microring)


@dataclass(frozen=True)
class PropagationBatch:
    """Raw per-link power arrays of one batched propagation.

    All link-indexed arrays follow the engine's canonical link order
    (ascending waveguide index, channel-assignment order within).
    """

    #: Power dropped into each communication's own receiver [W], ``(B, S)``.
    signal_power_w: np.ndarray
    #: Total crosstalk deposited into each receiver [W], ``(B, S)``.
    crosstalk_power_w: np.ndarray
    #: Power left on the waveguide after the full loop [W], ``(B, S)``.
    residual_power_w: np.ndarray
    #: Actual emitted wavelength of each signal [nm], ``(B, S)``.
    signal_wavelength_nm: np.ndarray
    #: Power dropped at every interaction event [W], ``(B, S, K)`` — the
    #: per-event detail traces are rebuilt from.
    event_dropped_w: np.ndarray


class OpticalLinkEngine:
    """A routed ORNoC network compiled into immutable evaluation arrays."""

    def __init__(
        self,
        network: OrnocNetwork,
        technology: Optional[TechnologyParameters] = None,
        microring: Optional[MicroringModel] = None,
        waveguide: Optional[WaveguideModel] = None,
        interaction_model: str = "same_channel",
    ) -> None:
        if interaction_model not in INTERACTION_MODELS:
            raise AnalysisError(
                f"interaction_model must be one of {INTERACTION_MODELS}, "
                f"got {interaction_model!r}"
            )
        technology = technology or network.technology
        microring = microring or MicroringModel(
            MicroringParameters(
                bandwidth_3db_nm=technology.mr_bandwidth_3db_nm,
                thermal_drift_nm_per_c=technology.thermal_sensitivity_nm_per_c,
                drop_loss_db=technology.mr_drop_loss_db,
                through_loss_db=technology.mr_through_loss_db,
            )
        )
        waveguide = waveguide or WaveguideModel(
            WaveguideParameters(
                propagation_loss_db_per_cm=technology.propagation_loss_db_per_cm
            )
        )
        self.network = network
        self.technology = technology
        self.microring = microring
        self.waveguide = waveguide
        self.interaction_model = interaction_model
        self._compile()

    # Compilation -----------------------------------------------------------------

    def _compile(self) -> None:
        """Walk the routed network once and freeze it into arrays."""
        network = self.network
        ring = network.ring

        # Canonical link order: the order the scalar analyzer reports links
        # in — waveguides ascending, channel-assignment order within each.
        communications: List[Communication] = []
        for waveguide_index in sorted(
            {c.waveguide_index for c in network.assigned_communications()}
        ):
            communications.extend(
                network.communications_on_waveguide(waveguide_index)
            )
        for communication in communications:
            if communication.wavelength_nm is None:
                raise AnalysisError(
                    f"{communication.name} has no assigned wavelength; "
                    "route the network first"
                )
        link_index = {c.name: s for s, c in enumerate(communications)}

        # ONIs actually used as a source or destination; the engine only
        # ever reads temperatures of these.
        used_names = sorted(
            {c.source for c in communications} | {c.destination for c in communications}
        )
        oni_index = {name: i for i, name in enumerate(used_names)}

        signals = len(communications)
        source_index = np.zeros(signals, dtype=np.intp)
        dest_index = np.zeros(signals, dtype=np.intp)
        wavelength_nm = np.zeros(signals, dtype=float)
        path_length_m = np.zeros(signals, dtype=float)
        total_wg_transmission = np.zeros(signals, dtype=float)

        # Per-signal interaction events in traversal order: the receiver hit
        # and the cumulative waveguide transmission from the source up to the
        # receiver's ONI (through-fractions of earlier rings excluded — they
        # are thermal-state-dependent and applied at evaluation time).
        event_lists: List[List[Tuple[float, int]]] = []
        for s, communication in enumerate(communications):
            source_index[s] = oni_index[communication.source]
            dest_index[s] = oni_index[communication.destination]
            wavelength_nm[s] = communication.wavelength_nm
            path_length_m[s] = ring.path_length_m(
                communication.source, communication.destination, communication.direction
            )
            events: List[Tuple[float, int]] = []
            cumulative = 1.0
            previous = communication.source
            for oni_name in ring.traversal_order(
                communication.source, communication.direction
            ):
                segment_m = ring.segment_length_m(
                    previous, oni_name, communication.direction
                )
                cumulative *= self.waveguide.transmission(segment_m)
                previous = oni_name
                for receiver in network.receivers_at(
                    oni_name, communication.waveguide_index
                ):
                    if (
                        self.interaction_model == "same_channel"
                        and receiver.channel_index != communication.channel_index
                    ):
                        # Paper model (Section IV.C): receivers parked on
                        # other WDM channels are ideally isolated.
                        continue
                    events.append((cumulative, link_index[receiver.name]))
            total_wg_transmission[s] = cumulative
            event_lists.append(events)

        max_events = max((len(events) for events in event_lists), default=0)
        event_cum_wg = np.ones((signals, max_events), dtype=float)
        event_receiver = np.zeros((signals, max_events), dtype=np.intp)
        event_valid = np.zeros((signals, max_events), dtype=bool)
        for s, events in enumerate(event_lists):
            for k, (cumulative, receiver) in enumerate(events):
                event_cum_wg[s, k] = cumulative
                event_receiver[s, k] = receiver
                event_valid[s, k] = True
        own_event = event_valid & (
            event_receiver == np.arange(signals, dtype=np.intp)[:, None]
        )
        # Design channel gap of every event: the receiver's wavelength less
        # the signal's, a constant of the routed network.
        event_gap_nm = wavelength_nm[event_receiver] - wavelength_nm[:, None]

        # Receiver incidence: scatters the flattened (signal, event) dropped
        # powers into per-receiver crosstalk totals (own-receiver events
        # excluded — those are the signal).
        incidence = np.zeros((signals * max_events, signals), dtype=float)
        flat = (event_valid & ~own_event).ravel()
        incidence[np.flatnonzero(flat), event_receiver.ravel()[flat]] = 1.0

        self.communications: Tuple[Communication, ...] = tuple(communications)
        self.link_names: Tuple[str, ...] = tuple(c.name for c in communications)
        self.oni_names: Tuple[str, ...] = tuple(used_names)
        self.source_index = source_index
        self.dest_index = dest_index
        self.wavelength_nm = wavelength_nm
        self.path_length_m = path_length_m
        self.rings_crossed = event_valid.sum(axis=1)
        self._event_cum_wg = event_cum_wg
        self._event_receiver = event_receiver
        self._event_valid = event_valid
        self._own_event = own_event
        self._event_gap_nm = event_gap_nm
        self._incidence = incidence
        self._total_wg_transmission = total_wg_transmission
        # Peak drop/through fractions, identical to MicroringModel's.
        self._drop_peak = db_loss_to_transmission(
            self.microring.parameters.drop_loss_db
        )
        self._through_peak = db_loss_to_transmission(
            self.microring.parameters.through_loss_db
        )

    @property
    def signal_count(self) -> int:
        """Number of routed communications (links)."""
        return len(self.communications)

    @property
    def event_count(self) -> int:
        """Width K of the padded per-signal interaction-event table."""
        return self._event_valid.shape[1]

    # Evaluation ------------------------------------------------------------------

    def states_batch(
        self,
        states_batch: Sequence[Dict[str, OniThermalState] | List[OniThermalState]],
    ) -> ThermalStateBatch:
        """Stack per-state mappings into the engine's ONI column order."""
        return ThermalStateBatch.from_states(states_batch, self.oni_names)

    def signal_wavelengths_nm(self, states: ThermalStateBatch) -> np.ndarray:
        """Actual emitted wavelength of every signal [nm], ``(B, S)``.

        Design channel wavelength plus the thermo-optic drift of the source
        ONI's laser, exactly as the scalar
        :meth:`~repro.snr.transmission.WaveguidePropagator.signal_wavelength_nm`.
        """
        reference = self.microring.parameters.reference_temperature_c
        drift = self.technology.thermal_sensitivity_nm_per_c
        return self.wavelength_nm[None, :] + drift * (
            states.laser_c[:, self.source_index] - reference
        )

    def source_laser_c(self, states: ThermalStateBatch) -> np.ndarray:
        """Laser temperature of every signal's source ONI [degC], ``(B, S)``."""
        return states.laser_c[:, self.source_index]

    def propagate_many(
        self, states: ThermalStateBatch, injected_power_w: np.ndarray
    ) -> PropagationBatch:
        """Propagate every signal of every thermal state in one array pass.

        ``injected_power_w`` is ``(B, S)`` in canonical link order.  Element
        ``[b, s]`` of every output matches the scalar walk of signal ``s``
        under thermal state ``b``.
        """
        batch = states.batch_size
        signals = self.signal_count
        injected = np.asarray(injected_power_w, dtype=float)
        if injected.shape != (batch, signals):
            raise AnalysisError(
                f"injected powers must have shape {(batch, signals)}, "
                f"got {injected.shape}"
            )
        if np.any(injected < 0.0):
            raise AnalysisError("injected power must be >= 0")

        # Detuning of every (signal, interaction event): the receiver hit at
        # event k of signal s is itself a link, so its ring temperature is a
        # column gather of the per-link ones.  Channel gap plus drift, as
        # the scalar walk forms it: the difference of two absolute
        # wavelengths would carry their round-off, ~2.3e-13 nm an ulp.
        drift = self.technology.thermal_sensitivity_nm_per_c
        ring_c = states.microring_c[:, self.dest_index][:, self._event_receiver]
        laser_c = self.source_laser_c(states)[:, :, None]
        detuning = self._event_gap_nm[None, :, :] + drift * (ring_c - laser_c)
        shape = self.microring.lineshape(detuning)
        drop = self._drop_peak * shape
        through = self._through_peak * (1.0 - shape)
        valid = self._event_valid[None, :, :]
        drop = np.where(valid, drop, 0.0)
        through = np.where(valid, through, 1.0)

        # Power arriving at event k = injected x waveguide transmission up
        # to the event's ONI x through-fractions of all earlier rings.
        if self.event_count:
            cumulative_through = np.cumprod(through, axis=2)
            exclusive = np.empty_like(cumulative_through)
            exclusive[:, :, 0] = 1.0
            exclusive[:, :, 1:] = cumulative_through[:, :, :-1]
            final_through = cumulative_through[:, :, -1]
        else:
            exclusive = np.ones((batch, signals, 0), dtype=float)
            final_through = np.ones((batch, signals), dtype=float)

        power_at_event = (
            injected[:, :, None] * self._event_cum_wg[None, :, :] * exclusive
        )
        dropped = power_at_event * drop
        signal = np.sum(dropped, axis=2, where=self._own_event[None, :, :])
        crosstalk = dropped.reshape(batch, signals * self.event_count) @ self._incidence
        residual = injected * self._total_wg_transmission[None, :] * final_through
        return PropagationBatch(
            signal_power_w=signal,
            crosstalk_power_w=crosstalk,
            residual_power_w=residual,
            signal_wavelength_nm=self.signal_wavelengths_nm(states),
            event_dropped_w=dropped,
        )

    # Trace detail ----------------------------------------------------------------

    def event_receivers(self, signal_index: int) -> List[Tuple[int, str]]:
        """Valid interaction events of one signal, in traversal order.

        Returns ``(event_column, receiver_link_name)`` pairs; the event
        column indexes the ``K`` axis of
        :attr:`PropagationBatch.event_dropped_w`.
        """
        receivers = self._event_receiver[signal_index]
        valid = self._event_valid[signal_index]
        return [
            (int(k), self.link_names[receivers[k]]) for k in np.flatnonzero(valid)
        ]
