"""CMOS-compatible VCSEL model.

The paper's methodology consumes two device characteristics (Figure 8):

* the wall-plug efficiency as a function of bias current and temperature
  (Figure 8-b), quoted to drop from ~15 % at 40 degC to ~4 % at 60 degC;
* the emitted optical power as a function of the dissipated electrical power
  and temperature (Figure 8-c).

We model the VCSEL with the standard empirical laser description: a
temperature-dependent threshold current (exponential in temperature), a
temperature-dependent differential slope efficiency (linear decay), an ohmic
electrical characteristic, and junction self-heating through a device-level
thermal resistance.  Self-heating is resolved with a damped fixed-point
iteration, which naturally produces the thermal roll-over of Figure 8-c.
The inverse problem the paper sweeps (current and optical power at a given
dissipated power) needs no iteration: the dissipated power fixes the
junction temperature, which leaves one quadratic in the current.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .. import constants
from ..errors import DeviceError

#: Scalar-or-array input accepted by the vectorized methods.
ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class VcselParameters:
    """Empirical parameters of a CMOS-compatible VCSEL.

    The default values are calibrated so the wall-plug efficiency at the
    nominal 6 mA bias is ~15 % at a 40 degC base temperature and ~4 % at
    60 degC, the two anchors quoted in Section III.C of the paper.
    """

    #: Threshold current at the reference temperature [A].
    threshold_current_a: float = 1.0e-3
    #: Characteristic temperature of the threshold increase [K]
    #: (``Ith(T) = Ith_ref * exp((T - Tref) / T0)``).
    threshold_t0_k: float = 40.0
    #: Differential slope efficiency at the reference temperature [W/A].
    slope_efficiency_w_per_a: float = 0.45
    #: Temperature span over which the slope efficiency decays to zero [K].
    slope_decay_span_k: float = 62.0
    #: Diode turn-on voltage [V].
    turn_on_voltage_v: float = 0.9
    #: Series resistance [ohm].
    series_resistance_ohm: float = 50.0
    #: Device-level thermal resistance (junction self-heating) [K/W].
    thermal_resistance_k_per_w: float = 1000.0
    #: Reference temperature of the parameters above [degC].
    reference_temperature_c: float = 20.0
    #: Emission wavelength at the reference temperature [nm].
    wavelength_nm: float = constants.DEFAULT_WAVELENGTH_NM
    #: Emission wavelength drift with temperature [nm/degC].
    wavelength_drift_nm_per_c: float = constants.DEFAULT_THERMAL_SENSITIVITY_NM_PER_C
    #: 3 dB linewidth of the emitted signal [nm].
    linewidth_3db_nm: float = constants.DEFAULT_VCSEL_LINEWIDTH_NM
    #: Direct modulation bandwidth [GHz].
    modulation_bandwidth_ghz: float = constants.DEFAULT_VCSEL_MODULATION_BANDWIDTH_GHZ
    #: Maximum drive current [A].
    max_current_a: float = 15.0e-3
    #: Footprint (width, length) [um].
    footprint_um: tuple[float, float] = constants.VCSEL_FOOTPRINT_UM
    #: Device thickness [um] (below 4 um for CMOS compatibility).
    thickness_um: float = 4.0

    def __post_init__(self) -> None:
        if self.threshold_current_a <= 0.0:
            raise DeviceError("threshold current must be positive")
        if self.threshold_t0_k <= 0.0:
            raise DeviceError("threshold characteristic temperature must be positive")
        if self.slope_efficiency_w_per_a <= 0.0:
            raise DeviceError("slope efficiency must be positive")
        if self.slope_efficiency_w_per_a > constants.quantum_slope_efficiency_w_per_a(
            self.wavelength_nm
        ):
            raise DeviceError(
                "slope efficiency exceeds the quantum limit at this wavelength"
            )
        if self.slope_decay_span_k <= 0.0:
            raise DeviceError("slope decay span must be positive")
        if self.series_resistance_ohm < 0.0:
            raise DeviceError("series resistance must be >= 0")
        if self.turn_on_voltage_v < 0.0:
            raise DeviceError("turn-on voltage must be >= 0")
        if self.thermal_resistance_k_per_w < 0.0:
            raise DeviceError("thermal resistance must be >= 0")
        if self.max_current_a <= 0.0:
            raise DeviceError("maximum current must be positive")

    def with_thermal_resistance(self, value_k_per_w: float) -> "VcselParameters":
        """Copy of the parameters with a different self-heating resistance."""
        return replace(self, thermal_resistance_k_per_w=value_k_per_w)


@dataclass(frozen=True)
class VcselOperatingPoint:
    """Self-consistent operating point of a VCSEL."""

    current_a: float
    base_temperature_c: float
    junction_temperature_c: float
    optical_power_w: float
    electrical_power_w: float
    dissipated_power_w: float
    wall_plug_efficiency: float

    @property
    def is_lasing(self) -> bool:
        """Whether the device is above threshold (emits optical power)."""
        return self.optical_power_w > 0.0


@dataclass(frozen=True)
class VcselOperatingPointBatch:
    """Self-consistent operating points of a VCSEL over an array of inputs.

    Every field is an array of the common broadcast shape of the
    ``current_a`` / ``base_temperature_c`` inputs; element ``i`` equals the
    scalar :class:`VcselOperatingPoint` at ``(current_a[i],
    base_temperature_c[i])``.
    """

    current_a: np.ndarray
    base_temperature_c: np.ndarray
    junction_temperature_c: np.ndarray
    optical_power_w: np.ndarray
    electrical_power_w: np.ndarray
    dissipated_power_w: np.ndarray
    wall_plug_efficiency: np.ndarray

    def __getitem__(self, index) -> VcselOperatingPoint:
        """Scalar operating point at ``index`` (for spot checks)."""
        return VcselOperatingPoint(
            current_a=float(self.current_a[index]),
            base_temperature_c=float(self.base_temperature_c[index]),
            junction_temperature_c=float(self.junction_temperature_c[index]),
            optical_power_w=float(self.optical_power_w[index]),
            electrical_power_w=float(self.electrical_power_w[index]),
            dissipated_power_w=float(self.dissipated_power_w[index]),
            wall_plug_efficiency=float(self.wall_plug_efficiency[index]),
        )


class VcselModel:
    """Temperature-aware VCSEL model built on :class:`VcselParameters`."""

    def __init__(self, parameters: Optional[VcselParameters] = None) -> None:
        self._p = parameters or VcselParameters()

    @property
    def parameters(self) -> VcselParameters:
        """Underlying parameter set."""
        return self._p

    # Elementary characteristics -------------------------------------------------

    def threshold_current_a(self, temperature_c: float) -> float:
        """Threshold current at the given junction temperature [A]."""
        delta = temperature_c - self._p.reference_temperature_c
        return self._p.threshold_current_a * math.exp(delta / self._p.threshold_t0_k)

    def slope_efficiency_w_per_a(self, temperature_c: float) -> float:
        """Differential slope efficiency at the given junction temperature [W/A]."""
        delta = temperature_c - self._p.reference_temperature_c
        factor = 1.0 - delta / self._p.slope_decay_span_k
        return max(0.0, self._p.slope_efficiency_w_per_a * factor)

    def voltage_v(self, current_a: float) -> float:
        """Terminal voltage at the given drive current [V]."""
        if current_a < 0.0:
            raise DeviceError("drive current must be >= 0")
        return self._p.turn_on_voltage_v + self._p.series_resistance_ohm * current_a

    def electrical_power_w(self, current_a: float) -> float:
        """Electrical power drawn at the given drive current [W]."""
        return current_a * self.voltage_v(current_a)

    def emission_wavelength_nm(self, temperature_c: float) -> float:
        """Emission wavelength at the given junction temperature [nm]."""
        delta = temperature_c - self._p.reference_temperature_c
        return self._p.wavelength_nm + self._p.wavelength_drift_nm_per_c * delta

    def _optical_power_at_junction(self, current_a: float, junction_c: float) -> float:
        threshold = self.threshold_current_a(junction_c)
        slope = self.slope_efficiency_w_per_a(junction_c)
        power = slope * (current_a - threshold)
        return max(0.0, power)

    # Self-consistent operating point ----------------------------------------------

    def operating_point(
        self,
        current_a: float,
        base_temperature_c: float,
        max_iterations: int = 200,
        tolerance_c: float = 1.0e-6,
    ) -> VcselOperatingPoint:
        """Solve the self-heating fixed point at a given bias and base temperature.

        ``base_temperature_c`` is the temperature of the VCSEL environment
        (the optical layer under the device), typically obtained from the
        thermal simulation.  The junction temperature adds the self-heating
        term ``Rth * Pdiss``.
        """
        if current_a < 0.0:
            raise DeviceError("drive current must be >= 0")
        if current_a > self._p.max_current_a:
            raise DeviceError(
                f"drive current {current_a * 1e3:.2f} mA exceeds the device maximum "
                f"of {self._p.max_current_a * 1e3:.2f} mA"
            )
        electrical = self.electrical_power_w(current_a)
        junction = base_temperature_c
        damping = 0.5
        for _ in range(max_iterations):
            optical = self._optical_power_at_junction(current_a, junction)
            dissipated = max(electrical - optical, 0.0)
            target = base_temperature_c + self._p.thermal_resistance_k_per_w * dissipated
            new_junction = junction + damping * (target - junction)
            if abs(new_junction - junction) < tolerance_c:
                junction = new_junction
                break
            junction = new_junction
        else:
            raise DeviceError(
                "VCSEL self-heating iteration did not converge; check the "
                "thermal resistance and bias current"
            )
        optical = self._optical_power_at_junction(current_a, junction)
        dissipated = max(electrical - optical, 0.0)
        efficiency = optical / electrical if electrical > 0.0 else 0.0
        return VcselOperatingPoint(
            current_a=current_a,
            base_temperature_c=base_temperature_c,
            junction_temperature_c=junction,
            optical_power_w=optical,
            electrical_power_w=electrical,
            dissipated_power_w=dissipated,
            wall_plug_efficiency=efficiency,
        )

    def wall_plug_efficiency(self, current_a: float, base_temperature_c: float) -> float:
        """Wall-plug efficiency at a bias current and base temperature."""
        return self.operating_point(current_a, base_temperature_c).wall_plug_efficiency

    def optical_power_w(self, current_a: float, base_temperature_c: float) -> float:
        """Emitted optical power at a bias current and base temperature [W]."""
        return self.operating_point(current_a, base_temperature_c).optical_power_w

    def dissipated_power_w(self, current_a: float, base_temperature_c: float) -> float:
        """Heat dissipated in the device at a bias and base temperature [W]."""
        return self.operating_point(current_a, base_temperature_c).dissipated_power_w

    # Inverse problems ------------------------------------------------------------------

    def current_for_dissipated_power(
        self, dissipated_power_w: float, base_temperature_c: float
    ) -> float:
        """Bias current that dissipates ``dissipated_power_w`` [A].

        This inverts the paper's sweep variable: Figures 9 and 10 sweep
        ``PVCSEL`` (the dissipated power) rather than the bias current.
        Scalar form of :meth:`currents_for_dissipated_power`.
        """
        return float(
            self.currents_for_dissipated_power(dissipated_power_w, base_temperature_c)
        )

    def current_for_optical_power(
        self, optical_power_w: float, base_temperature_c: float
    ) -> float:
        """Bias current that emits ``optical_power_w`` [A]."""
        if optical_power_w < 0.0:
            raise DeviceError("optical power must be >= 0")
        if optical_power_w == 0.0:
            return 0.0
        maximum = self._p.max_current_a

        def objective(current_a: float) -> float:
            return (
                self.operating_point(current_a, base_temperature_c).optical_power_w
                - optical_power_w
            )

        top = objective(maximum)
        if top < 0.0:
            raise DeviceError(
                f"requested optical power {optical_power_w * 1e3:.3f} mW is not "
                "reachable below the maximum drive current (thermal roll-over)"
            )
        # Imported here: scipy.optimize costs a large share of ``import repro``.
        from scipy.optimize import brentq

        return float(brentq(objective, 0.0, maximum, xtol=1.0e-9))

    def optical_power_from_dissipated(
        self, dissipated_power_w: float, base_temperature_c: float
    ) -> float:
        """Emitted optical power when the device dissipates ``dissipated_power_w``.

        This reproduces the x-axis convention of the paper's Figure 8-c
        (``OPVCSEL`` versus ``PVCSEL``).  Scalar form of
        :meth:`optical_powers_from_dissipated`.
        """
        return float(
            self.optical_powers_from_dissipated(dissipated_power_w, base_temperature_c)
        )

    # Batched evaluation ----------------------------------------------------------------

    def _optical_power_at_junction_array(
        self, current_a: np.ndarray, junction_c: np.ndarray
    ) -> np.ndarray:
        """Array version of :meth:`_optical_power_at_junction`."""
        delta = junction_c - self._p.reference_temperature_c
        threshold = self._p.threshold_current_a * np.exp(delta / self._p.threshold_t0_k)
        slope = np.maximum(
            0.0,
            self._p.slope_efficiency_w_per_a * (1.0 - delta / self._p.slope_decay_span_k),
        )
        return np.maximum(0.0, slope * (current_a - threshold))

    def operating_points(
        self,
        current_a: ArrayLike,
        base_temperature_c: ArrayLike,
        max_iterations: int = 200,
        tolerance_c: float = 1.0e-6,
    ) -> VcselOperatingPointBatch:
        """Vectorized :meth:`operating_point` over broadcastable input arrays.

        The damped self-heating fixed point runs element-wise: each element
        is frozen as soon as its own junction temperature converges, so every
        element follows exactly the iteration it would follow under the
        scalar method, independent of the other batch elements.
        """
        current = np.asarray(current_a, dtype=float)
        base = np.asarray(base_temperature_c, dtype=float)
        current, base = np.broadcast_arrays(current, base)
        current = np.ascontiguousarray(current)
        base = np.ascontiguousarray(base)
        if np.any(current < 0.0):
            raise DeviceError("drive current must be >= 0")
        if np.any(current > self._p.max_current_a):
            worst = float(np.max(current))
            raise DeviceError(
                f"drive current {worst * 1e3:.2f} mA exceeds the device maximum "
                f"of {self._p.max_current_a * 1e3:.2f} mA"
            )
        electrical = current * (
            self._p.turn_on_voltage_v + self._p.series_resistance_ohm * current
        )
        junction = base.copy()
        active = np.ones(junction.shape, dtype=bool)
        damping = 0.5
        for _ in range(max_iterations):
            if not active.any():
                break
            optical = self._optical_power_at_junction_array(
                current[active], junction[active]
            )
            dissipated = np.maximum(electrical[active] - optical, 0.0)
            target = base[active] + self._p.thermal_resistance_k_per_w * dissipated
            new_junction = junction[active] + damping * (target - junction[active])
            converged = np.abs(new_junction - junction[active]) < tolerance_c
            junction[active] = new_junction
            flat_active = active.reshape(-1)
            flat_active[np.flatnonzero(flat_active)[converged]] = False
        if active.any():
            raise DeviceError(
                "VCSEL self-heating iteration did not converge; check the "
                "thermal resistance and bias current"
            )
        optical = self._optical_power_at_junction_array(current, junction)
        dissipated = np.maximum(electrical - optical, 0.0)
        efficiency = np.divide(
            optical,
            electrical,
            out=np.zeros_like(optical),
            where=electrical > 0.0,
        )
        return VcselOperatingPointBatch(
            current_a=current,
            base_temperature_c=base,
            junction_temperature_c=junction,
            optical_power_w=optical,
            electrical_power_w=electrical,
            dissipated_power_w=dissipated,
            wall_plug_efficiency=efficiency,
        )

    def _dissipated_power_inversion(
        self, dissipated_power_w: ArrayLike, base_temperature_c: ArrayLike
    ) -> tuple[np.ndarray, np.ndarray]:
        """Closed-form inversion of the dissipated power: ``(current, optical)``.

        At the operating point that dissipates ``P`` the junction sits at
        ``Tj = Tb + Rth * P``, which fixes the threshold ``Ith`` and slope
        ``s``; the current is then the root of ``I (V0 + R I) = P`` below
        threshold, or of ``R I^2 + (V0 - s) I + s Ith - P = 0`` above it.
        Below threshold the dissipation rises strictly with the current and,
        above it, the quadratic is convex and negative at ``Ith``; so the
        result is the smallest current dissipating ``P`` at that junction
        temperature.  Both roots use the cancellation-free form, which
        degrades to the linear root when ``R = 0``.  A target with no root
        below the maximum drive current raises :class:`DeviceError`.
        """
        target = np.asarray(dissipated_power_w, dtype=float)
        base = np.asarray(base_temperature_c, dtype=float)
        target, base = np.broadcast_arrays(target, base)
        if np.any(target < 0.0):
            raise DeviceError("dissipated power must be >= 0")
        p = self._p
        junction = base + p.thermal_resistance_k_per_w * target
        delta = junction - p.reference_temperature_c
        threshold = p.threshold_current_a * np.exp(delta / p.threshold_t0_k)
        slope = np.maximum(
            0.0, p.slope_efficiency_w_per_a * (1.0 - delta / p.slope_decay_span_k)
        )
        v0, r = p.turn_on_voltage_v, p.series_resistance_ohm
        with np.errstate(divide="ignore", invalid="ignore"):
            below = 2.0 * target / (v0 + np.sqrt(v0 * v0 + 4.0 * r * target))
            b = v0 - slope
            c = slope * threshold - target
            root = np.sqrt(b * b - 4.0 * r * c)
            above = np.where(
                b >= 0.0, -2.0 * c / (b + root), (root - b) / (2.0 * r)
            )
        at_threshold = threshold * (v0 + r * threshold)
        current = np.where(target <= at_threshold, below, above)
        current = np.where(target == 0.0, 0.0, current)
        unreachable = ~(current <= p.max_current_a)
        if np.any(unreachable):
            worst = float(np.max(target[unreachable]))
            raise DeviceError(
                f"requested dissipated power {worst * 1e3:.2f} mW is not "
                "reachable below the maximum drive current"
            )
        return current, np.maximum(0.0, slope * (current - threshold))

    def currents_for_dissipated_power(
        self, dissipated_power_w: ArrayLike, base_temperature_c: ArrayLike
    ) -> np.ndarray:
        """Vectorized :meth:`current_for_dissipated_power` (closed form)."""
        current, _ = self._dissipated_power_inversion(
            dissipated_power_w, base_temperature_c
        )
        return current

    def optical_powers_from_dissipated(
        self,
        dissipated_power_w: ArrayLike,
        base_temperature_c: ArrayLike,
    ) -> np.ndarray:
        """Vectorized :meth:`optical_power_from_dissipated` (closed form)."""
        _, optical = self._dissipated_power_inversion(
            dissipated_power_w, base_temperature_c
        )
        return optical
