"""Instantiated Optical Network Interfaces (ONIs).

An :class:`OpticalNetworkInterface` is an ONI layout placed at an absolute
position on the optical layer, together with its electrical operating point
(per-VCSEL dissipated power, per-microring heater power, per-driver power).
Its geometry is array-native: the layout's compiled ``(devices, 4)`` rects
plus the origin give every device box (:meth:`device_bounds`), from which
come the source rows consumed by the thermal solver
(:meth:`device_sources`) and the query rows of average / gradient
temperatures (:meth:`query_bounds`).  ``heat_sources``, ``device_boxes``
and the per-quantity temperature methods are the object edge, built from
those arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError, GeometryError
from ..geometry import Box, Rect
from ..geometry.box import box_bounds, extrude_rects
from ..thermal import HeatSource, SourceBatch, ThermalMap
from .layout import OniLayout, OniLayoutParameters, generate_chessboard_layout


@dataclass(frozen=True)
class OniPowerConfig:
    """Electrical operating point of one ONI.

    Powers are per device: an ONI with 16 VCSELs at ``vcsel_power_w = 6 mW``
    injects 96 mW into the optical layer.  ``driver_power_w = None`` applies
    the paper's worst-case assumption ``Pdriver = PVCSEL``.
    """

    vcsel_power_w: float = 3.6e-3
    heater_power_w: float = 1.08e-3
    driver_power_w: Optional[float] = None

    def __post_init__(self) -> None:
        if self.vcsel_power_w < 0.0:
            raise ConfigurationError("vcsel_power_w must be >= 0")
        if self.heater_power_w < 0.0:
            raise ConfigurationError("heater_power_w must be >= 0")
        if self.driver_power_w is not None and self.driver_power_w < 0.0:
            raise ConfigurationError("driver_power_w must be >= 0")

    @property
    def effective_driver_power_w(self) -> float:
        """Driver power, defaulting to the worst case ``Pdriver = PVCSEL``."""
        if self.driver_power_w is None:
            return self.vcsel_power_w
        return self.driver_power_w

    def with_heater_ratio(self, ratio: float) -> "OniPowerConfig":
        """Copy with ``Pheater = ratio * PVCSEL`` (the paper's design knob)."""
        if ratio < 0.0:
            raise ConfigurationError("heater ratio must be >= 0")
        return replace(self, heater_power_w=ratio * self.vcsel_power_w)

    def with_vcsel_power(self, vcsel_power_w: float) -> "OniPowerConfig":
        """Copy with a different per-VCSEL dissipated power."""
        return replace(self, vcsel_power_w=vcsel_power_w)


class OpticalNetworkInterface:
    """An ONI instantiated at an absolute position on the die."""

    def __init__(
        self,
        name: str,
        origin: Tuple[float, float],
        layout: Optional[OniLayout] = None,
        power: Optional[OniPowerConfig] = None,
    ) -> None:
        if not name:
            raise GeometryError("ONI name must be non-empty")
        self.name = name
        self.origin = origin
        self.layout = layout or generate_chessboard_layout()
        self.power = power or OniPowerConfig()

    # Geometry -------------------------------------------------------------

    @property
    def footprint(self) -> Rect:
        """Absolute footprint of the ONI on the optical layer."""
        return self.layout.footprint.translated(self.origin[0], self.origin[1])

    @property
    def center(self) -> Tuple[float, float]:
        """Centre of the ONI footprint."""
        return self.footprint.center

    def device_bounds(self, kind: str, z_range: Tuple[float, float]) -> np.ndarray:
        """Bounds ``(n, 6)`` of every device of a kind over a z-range.

        The footprints are the layout's rects plus the origin: the float
        operations of :meth:`Rect.translated`.
        """
        x, y = self.origin
        rects = self.layout.rects[self.layout.indices_of_kind(kind)] + np.array([x, y, x, y])
        return extrude_rects(rects, z_range[0], z_range[1])

    def vcsel_count(self) -> int:
        """Number of VCSELs in the ONI."""
        return self.layout.count_of_kind("vcsel")

    def microring_count(self) -> int:
        """Number of microrings in the ONI."""
        return self.layout.count_of_kind("microring")

    # Power ----------------------------------------------------------------

    def with_power(self, power: OniPowerConfig) -> "OpticalNetworkInterface":
        """Copy of the ONI with a different operating point."""
        return OpticalNetworkInterface(
            name=self.name, origin=self.origin, layout=self.layout, power=power
        )

    def total_optical_layer_power_w(self) -> float:
        """Power dissipated in the optical layer (VCSELs + heaters) [W]."""
        return (
            self.vcsel_count() * self.power.vcsel_power_w
            + self.microring_count() * self.power.heater_power_w
        )

    def total_driver_power_w(self) -> float:
        """Power dissipated by the CMOS drivers in the electrical layer [W]."""
        return self.vcsel_count() * self.power.effective_driver_power_w

    def total_power_w(self) -> float:
        """Total ONI power (optical layer + drivers) [W]."""
        return self.total_optical_layer_power_w() + self.total_driver_power_w()

    # Heat sources -----------------------------------------------------------

    def device_sources(
        self,
        optical_z_range: Tuple[float, float],
        driver_z_range: Optional[Tuple[float, float]] = None,
    ) -> SourceBatch:
        """Every VCSEL, then heater, then driver (with a ``driver_z_range``)
        of the ONI as source rows at the ONI's powers, zero included."""
        kinds = [
            ("vcsel", optical_z_range, self.power.vcsel_power_w),
            ("heater", optical_z_range, self.power.heater_power_w),
        ]
        if driver_z_range is not None:
            kinds.append(("driver", driver_z_range, self.power.effective_driver_power_w))
        bounds, powers, groups, labels = [], [], [], []
        for kind, z_range, power in kinds:
            placements = self.layout.devices_of_kind(kind)
            bounds.append(self.device_bounds(kind, z_range))
            powers += [power] * len(placements)
            groups += [kind] * len(placements)
            labels += [placement.name for placement in placements]
        return SourceBatch(
            np.concatenate(bounds), powers, groups, [self.name] * len(labels), labels
        )

    def heat_sources(
        self,
        optical_z_range: Tuple[float, float],
        driver_z_range: Optional[Tuple[float, float]] = None,
    ) -> List[HeatSource]:
        """Heat sources of the ONI for the thermal solver.

        ``optical_z_range`` is the (z_min, z_max) of the optical layer and
        ``driver_z_range`` of the electrical (BEOL) layer; when the latter is
        omitted the driver power is not modelled (e.g. when it is already part
        of the chip activity map).  Devices without power are left out.
        """
        sources = self.device_sources(optical_z_range, driver_z_range)
        return sources.take(np.flatnonzero(sources.powers > 0.0)).heat_sources()

    # Thermal queries ---------------------------------------------------------

    def region_box(self, z_range: Tuple[float, float]) -> Box:
        """Box covering the whole ONI footprint over a z-range."""
        return Box.from_rect(self.footprint, z_range[0], z_range[1])

    def device_boxes(self, kind: str, z_range: Tuple[float, float]) -> List[Box]:
        """Boxes of every device of a kind over a z-range."""
        return [Box(*row) for row in self.device_bounds(kind, z_range).tolist()]

    def query_bounds(self, z_range: Tuple[float, float]) -> np.ndarray:
        """Bounds of the footprint, the VCSELs and the microrings, in turn."""
        return np.concatenate(
            [box_bounds([self.region_box(z_range)])]
            + [self.device_bounds(kind, z_range) for kind in ("vcsel", "microring")]
        )

    def query_blocks(self, offset: int = 0) -> List[slice]:
        """Rows of the footprint, the VCSELs and the microrings in
        :meth:`query_bounds` (shifted by ``offset``): the blocks that the
        per-quantity methods below query alone."""
        vcsels = offset + 1 + self.vcsel_count()
        rings = vcsels + self.microring_count()
        return [slice(offset, offset + 1), slice(offset + 1, vcsels), slice(vcsels, rings)]

    def query_temperatures(self, averages: List[float]) -> Tuple[float, float, float, float]:
        """``(average, laser, microring, gradient)`` from the averages over the
        :meth:`query_bounds` rows, with the per-quantity methods' arithmetic."""
        _, laser_rows, ring_rows = self.query_blocks()
        lasers, rings = averages[laser_rows], averages[ring_rows]
        laser_c = self._mean(lasers, "VCSELs")
        ring_c = self._mean(rings, "microrings")
        return averages[0], laser_c, ring_c, max(lasers + rings) - min(lasers + rings)

    def average_temperature_c(
        self, thermal_map: ThermalMap, z_range: Tuple[float, float]
    ) -> float:
        """Average temperature of the ONI footprint."""
        return thermal_map.average_over(self.region_box(z_range))

    def device_temperatures_c(
        self, thermal_map: ThermalMap, kind: str, z_range: Tuple[float, float]
    ) -> List[float]:
        """Average temperature of each device of the given kind."""
        return thermal_map.averages_over(self.device_bounds(kind, z_range)).tolist()

    def gradient_temperature_c(
        self, thermal_map: ThermalMap, z_range: Tuple[float, float]
    ) -> float:
        """Intra-ONI gradient: max difference between VCSEL and microring temperatures.

        This is the quantity the paper constrains below 1 degC (Section IV.C):
        the spread between the hottest laser and the coldest microring (or
        vice versa) of the interface.
        """
        vcsel_temps = self.device_temperatures_c(thermal_map, "vcsel", z_range)
        mr_temps = self.device_temperatures_c(thermal_map, "microring", z_range)
        temperatures = vcsel_temps + mr_temps
        if not temperatures:
            raise GeometryError(f"ONI {self.name!r} has no VCSEL or microring devices")
        return max(temperatures) - min(temperatures)

    def laser_temperature_c(
        self, thermal_map: ThermalMap, z_range: Tuple[float, float]
    ) -> float:
        """Average temperature of the ONI's VCSELs."""
        return self._mean(
            self.device_temperatures_c(thermal_map, "vcsel", z_range), "VCSELs"
        )

    def microring_temperature_c(
        self, thermal_map: ThermalMap, z_range: Tuple[float, float]
    ) -> float:
        """Average temperature of the ONI's microrings."""
        return self._mean(
            self.device_temperatures_c(thermal_map, "microring", z_range), "microrings"
        )

    def _mean(self, temperatures: List[float], devices: str) -> float:
        if not temperatures:
            raise GeometryError(f"ONI {self.name!r} has no {devices}")
        return sum(temperatures) / len(temperatures)

    def summary(self) -> Dict[str, float]:
        """Power summary of the interface."""
        return {
            "vcsel_count": float(self.vcsel_count()),
            "microring_count": float(self.microring_count()),
            "vcsel_power_w": self.power.vcsel_power_w,
            "heater_power_w": self.power.heater_power_w,
            "driver_power_w": self.power.effective_driver_power_w,
            "optical_layer_power_w": self.total_optical_layer_power_w(),
            "total_power_w": self.total_power_w(),
        }


def place_onis(
    names_and_origins: List[Tuple[str, Tuple[float, float]]],
    layout_parameters: Optional[OniLayoutParameters] = None,
    power: Optional[OniPowerConfig] = None,
) -> List[OpticalNetworkInterface]:
    """Instantiate several ONIs sharing the same layout and operating point."""
    layout = generate_chessboard_layout(layout_parameters)
    return [
        OpticalNetworkInterface(name=name, origin=origin, layout=layout, power=power)
        for name, origin in names_and_origins
    ]
