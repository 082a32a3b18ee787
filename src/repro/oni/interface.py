"""Instantiated Optical Network Interfaces (ONIs).

An :class:`OpticalNetworkInterface` is an ONI layout placed at an absolute
position on the optical layer, together with its electrical operating point
(per-VCSEL dissipated power, per-microring heater power, per-driver power).
It exports the heat sources consumed by the thermal solver and the boxes used
to query average / gradient temperatures from a thermal map.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError, GeometryError
from ..geometry import Box, Rect
from ..thermal import HeatSource, ThermalMap
from .layout import DevicePlacement, OniLayout, OniLayoutParameters, generate_chessboard_layout


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

    def device_rect(self, placement: DevicePlacement) -> Rect:
        """Absolute footprint of one device placement."""
        return placement.rect.translated(self.origin[0], self.origin[1])

    def device_rects_of_kind(self, kind: str) -> List[Rect]:
        """Absolute footprints of every device of the given kind."""
        return [self.device_rect(p) for p in self.layout.devices_of_kind(kind)]

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

    def heat_sources(
        self,
        optical_z_range: Tuple[float, float],
        driver_z_range: Optional[Tuple[float, float]] = None,
    ) -> List[HeatSource]:
        """Heat sources of the ONI for the thermal solver.

        ``optical_z_range`` is the (z_min, z_max) of the optical layer and
        ``driver_z_range`` of the electrical (BEOL) layer; when the latter is
        omitted the driver power is not modelled (e.g. when it is already part
        of the chip activity map).
        """
        z_min, z_max = optical_z_range
        sources: List[HeatSource] = []
        for placement in self.layout.devices_of_kind("vcsel"):
            if self.power.vcsel_power_w > 0.0:
                sources.append(
                    HeatSource.from_rect(
                        f"{self.name}:{placement.name}",
                        self.device_rect(placement),
                        z_min,
                        z_max,
                        self.power.vcsel_power_w,
                        group="vcsel",
                    )
                )
        for placement in self.layout.devices_of_kind("heater"):
            if self.power.heater_power_w > 0.0:
                sources.append(
                    HeatSource.from_rect(
                        f"{self.name}:{placement.name}",
                        self.device_rect(placement),
                        z_min,
                        z_max,
                        self.power.heater_power_w,
                        group="heater",
                    )
                )
        if driver_z_range is not None and self.power.effective_driver_power_w > 0.0:
            driver_z_min, driver_z_max = driver_z_range
            for placement in self.layout.devices_of_kind("driver"):
                sources.append(
                    HeatSource.from_rect(
                        f"{self.name}:{placement.name}",
                        self.device_rect(placement),
                        driver_z_min,
                        driver_z_max,
                        self.power.effective_driver_power_w,
                        group="driver",
                    )
                )
        return sources

    # Thermal queries ---------------------------------------------------------

    def region_box(self, z_range: Tuple[float, float]) -> Box:
        """Box covering the whole ONI footprint over a z-range."""
        return Box.from_rect(self.footprint, z_range[0], z_range[1])

    def device_boxes(self, kind: str, z_range: Tuple[float, float]) -> List[Box]:
        """Boxes of every device of a kind over a z-range."""
        return [
            Box.from_rect(rect, z_range[0], z_range[1])
            for rect in self.device_rects_of_kind(kind)
        ]

    def average_temperature_c(
        self, thermal_map: ThermalMap, z_range: Tuple[float, float]
    ) -> float:
        """Average temperature of the ONI footprint."""
        return thermal_map.average_over(self.region_box(z_range))

    def device_temperatures_c(
        self, thermal_map: ThermalMap, kind: str, z_range: Tuple[float, float]
    ) -> List[float]:
        """Average temperature of each device of the given kind."""
        return thermal_map.averages_over(self.device_boxes(kind, z_range)).tolist()

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
        temperatures = self.device_temperatures_c(thermal_map, "vcsel", z_range)
        if not temperatures:
            raise GeometryError(f"ONI {self.name!r} has no VCSELs")
        return sum(temperatures) / len(temperatures)

    def microring_temperature_c(
        self, thermal_map: ThermalMap, z_range: Tuple[float, float]
    ) -> float:
        """Average temperature of the ONI's microrings."""
        temperatures = self.device_temperatures_c(thermal_map, "microring", z_range)
        if not temperatures:
            raise GeometryError(f"ONI {self.name!r} has no microrings")
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
