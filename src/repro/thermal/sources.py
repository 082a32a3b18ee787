"""Heat sources and their projection onto the thermal mesh.

A heat source is a box (footprint x z-range) dissipating a given power.  The
power is distributed over the mesh cells proportionally to the overlap volume
so that total power is conserved regardless of the mesh resolution — the same
scheme used by finite-volume simulators such as IcTherm when the source
geometry does not line up with the mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional

import numpy as np

from ..errors import GeometryError, SolverError
from ..geometry import Box, Rect
from .mesh import Mesh3D


@dataclass(frozen=True)
class HeatSource:
    """A rectangular volumetric heat source.

    Attributes
    ----------
    name:
        Identifier, used in reports and error messages.
    box:
        Region over which the power is dissipated.
    power_w:
        Total dissipated power [W]; must be >= 0.
    group:
        Optional tag ("chip", "vcsel", "heater", "driver"...) used to scale or
        filter sources collectively.
    """

    name: str
    box: Box
    power_w: float
    group: str = "chip"

    def __post_init__(self) -> None:
        if not self.name:
            raise GeometryError("heat source name must be non-empty")
        if self.power_w < 0.0:
            raise GeometryError(
                f"heat source {self.name!r}: power must be >= 0, got {self.power_w!r}"
            )
        if self.box.volume <= 0.0:
            raise GeometryError(
                f"heat source {self.name!r}: the source box must have a positive volume"
            )

    @classmethod
    def from_rect(
        cls,
        name: str,
        rect: Rect,
        z_min: float,
        z_max: float,
        power_w: float,
        group: str = "chip",
    ) -> "HeatSource":
        """Build a source from a footprint and a z-range."""
        return cls(name=name, box=Box.from_rect(rect, z_min, z_max), power_w=power_w, group=group)

    def with_power(self, power_w: float) -> "HeatSource":
        """Copy of the source with a different power."""
        return replace(self, power_w=power_w)

    def scaled(self, factor: float) -> "HeatSource":
        """Copy of the source with the power multiplied by ``factor``."""
        if factor < 0.0:
            raise GeometryError("scaling factor must be >= 0")
        return replace(self, power_w=self.power_w * factor)


class HeatSourceSet:
    """A named collection of heat sources with group-level operations."""

    def __init__(self, sources: Iterable[HeatSource] = ()) -> None:
        self._sources: List[HeatSource] = []
        self._names: set[str] = set()
        for source in sources:
            self.add(source)

    def add(self, source: HeatSource) -> HeatSource:
        """Add a source; names must be unique within the set."""
        if source.name in self._names:
            raise GeometryError(f"duplicate heat source name {source.name!r}")
        self._names.add(source.name)
        self._sources.append(source)
        return source

    def extend(self, sources: Iterable[HeatSource]) -> None:
        """Add several sources."""
        for source in sources:
            self.add(source)

    def __len__(self) -> int:
        return len(self._sources)

    def __iter__(self):
        return iter(self._sources)

    def sources(self) -> List[HeatSource]:
        """All sources, in insertion order."""
        return list(self._sources)

    def total_power_w(self, group: Optional[str] = None) -> float:
        """Total power of all sources, optionally restricted to a group."""
        return sum(
            source.power_w
            for source in self._sources
            if group is None or source.group == group
        )

    def groups(self) -> List[str]:
        """Sorted list of distinct group tags present in the set."""
        return sorted({source.group for source in self._sources})

    def by_group(self) -> Dict[str, List[HeatSource]]:
        """Sources split by group tag."""
        grouped: Dict[str, List[HeatSource]] = {}
        for source in self._sources:
            grouped.setdefault(source.group, []).append(source)
        return grouped

    def scaled_group(self, group: str, factor: float) -> "HeatSourceSet":
        """New set with the power of every source in ``group`` scaled."""
        return HeatSourceSet(
            source.scaled(factor) if source.group == group else source
            for source in self._sources
        )

    def with_group_power(self, group: str, total_power_w: float) -> "HeatSourceSet":
        """New set where the group's total power is rescaled to ``total_power_w``.

        The relative distribution among the group's sources is preserved.
        """
        current = self.total_power_w(group)
        if current <= 0.0:
            raise SolverError(
                f"cannot rescale group {group!r}: its current total power is zero"
            )
        return self.scaled_group(group, total_power_w / current)

    def merged_with(self, other: "HeatSourceSet") -> "HeatSourceSet":
        """New set combining this set and ``other``."""
        merged = HeatSourceSet(self._sources)
        merged.extend(other.sources())
        return merged


def power_density_field(mesh: Mesh3D, sources: Iterable[HeatSource]) -> np.ndarray:
    """Per-cell dissipated power [W], shape ``(nx, ny, nz)``.

    Power of each source is split over cells proportionally to the overlap
    volume, all sources in one batched deposit (:meth:`Mesh3D.box_overlaps`);
    a source entirely outside the mesh raises :class:`SolverError` because
    silently dropping power would corrupt the energy balance.
    """
    powered = [source for source in sources if source.power_w != 0.0]
    overlaps = mesh.box_overlaps([source.box for source in powered])
    outside = overlaps.first_empty()
    if outside is not None:
        raise SolverError(
            f"heat source {powered[outside].name!r} does not overlap the thermal mesh"
        )
    powers = np.array([source.power_w for source in powered], dtype=float)
    return overlaps.deposit(powers / overlaps.volumes)
