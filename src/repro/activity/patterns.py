"""Chip activity patterns.

The paper evaluates the interconnect under synthetic chip activities
(Section V): *uniform* (every tile dissipates the same power), *diagonal*
(opposite quadrants dissipate different powers) and *random*.  An activity is
a mapping from floorplan tile names to dissipated powers; helpers convert it
to the heat sources consumed by the thermal solver.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..geometry import Floorplan, FloorplanInstance
from ..geometry.box import extrude_rects
from ..thermal import HeatSource, SourceBatch


@dataclass
class ActivityPattern:
    """A named distribution of power over the tiles of a floorplan."""

    name: str
    tile_powers_w: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("activity name must be non-empty")
        for tile, power in self.tile_powers_w.items():
            if power < 0.0:
                raise ConfigurationError(
                    f"activity {self.name!r}: tile {tile!r} has a negative power"
                )

    @property
    def total_power_w(self) -> float:
        """Total dissipated power of the pattern [W]."""
        return sum(self.tile_powers_w.values())

    def power_of(self, tile_name: str) -> float:
        """Power assigned to one tile (0 if absent)."""
        return self.tile_powers_w.get(tile_name, 0.0)

    def scaled_to(self, total_power_w: float) -> "ActivityPattern":
        """Copy rescaled so the total power equals ``total_power_w``."""
        current = self.total_power_w
        if current <= 0.0:
            raise ConfigurationError(
                f"activity {self.name!r} has zero total power and cannot be rescaled"
            )
        factor = total_power_w / current
        return ActivityPattern(
            name=self.name,
            tile_powers_w={tile: power * factor for tile, power in self.tile_powers_w.items()},
        )

    def source_batch(
        self,
        floorplan: Floorplan,
        z_min: float,
        z_max: float,
        group: str = "chip",
    ) -> SourceBatch:
        """Source rows of the pattern in the given z-range (BEOL layer): one
        per powered tile, named ``"<pattern>:<tile>"``."""
        rows = [(t, p, floorplan.get(t).rect) for t, p in self.tile_powers_w.items()]
        rows = [row for row in rows if not row[1] <= 0.0]
        rects = [(r.x_min, r.y_min, r.x_max, r.y_max) for _, _, r in rows]
        return SourceBatch(
            extrude_rects(np.array(rects, dtype=float).reshape(-1, 4), z_min, z_max),
            [power for _, power, _ in rows],
            [group] * len(rows),
            [self.name] * len(rows),
            [tile for tile, _, _ in rows],
        )

    def heat_sources(
        self,
        floorplan: Floorplan,
        z_min: float,
        z_max: float,
        group: str = "chip",
    ) -> List[HeatSource]:
        """Heat sources of the pattern placed in the given z-range (BEOL layer)."""
        return self.source_batch(floorplan, z_min, z_max, group).heat_sources()

    def imbalance(self) -> float:
        """Max-to-mean power ratio (1.0 for a perfectly uniform pattern)."""
        if not self.tile_powers_w:
            return 0.0
        mean = self.total_power_w / len(self.tile_powers_w)
        if mean <= 0.0:
            return 0.0
        return max(self.tile_powers_w.values()) / mean

    def merged_with(self, other: "ActivityPattern", name: Optional[str] = None) -> "ActivityPattern":
        """Pattern combining the powers of this pattern and ``other``.

        Powers of blocks present in both patterns are added.
        """
        combined = dict(self.tile_powers_w)
        for tile, power in other.tile_powers_w.items():
            combined[tile] = combined.get(tile, 0.0) + power
        return ActivityPattern(name=name or self.name, tile_powers_w=combined)


def _tiles(floorplan: Floorplan, kind: Optional[str]) -> List[FloorplanInstance]:
    instances = list(floorplan) if kind is None else floorplan.instances_of_kind(kind)
    if not instances:
        raise ConfigurationError("the floorplan has no tiles to assign power to")
    return instances


def uniform_activity(
    floorplan: Floorplan, total_power_w: float, kind: Optional[str] = "tile"
) -> ActivityPattern:
    """Uniform activity: every tile dissipates the same power."""
    if total_power_w < 0.0:
        raise ConfigurationError("total power must be >= 0")
    tiles = _tiles(floorplan, kind)
    per_tile = total_power_w / len(tiles)
    return ActivityPattern(
        name="uniform",
        tile_powers_w={instance.name: per_tile for instance in tiles},
    )


def diagonal_activity(
    floorplan: Floorplan,
    low_quadrant_power_w: float = 4.0,
    high_quadrant_power_w: float = 8.0,
    kind: Optional[str] = "tile",
) -> ActivityPattern:
    """Diagonal activity (paper Section V.C).

    The upper-right and bottom-left quadrants dissipate
    ``low_quadrant_power_w`` each, the upper-left and bottom-right quadrants
    ``high_quadrant_power_w`` each.
    """
    if low_quadrant_power_w < 0.0 or high_quadrant_power_w < 0.0:
        raise ConfigurationError("quadrant powers must be >= 0")
    tiles = _tiles(floorplan, kind)
    outline = floorplan.outline
    center_x, center_y = outline.center

    quadrants: Dict[str, List[FloorplanInstance]] = {
        "upper_right": [],
        "bottom_left": [],
        "upper_left": [],
        "bottom_right": [],
    }
    for instance in tiles:
        tile_x, tile_y = instance.rect.center
        right = tile_x >= center_x
        upper = tile_y >= center_y
        if upper and right:
            quadrants["upper_right"].append(instance)
        elif not upper and not right:
            quadrants["bottom_left"].append(instance)
        elif upper and not right:
            quadrants["upper_left"].append(instance)
        else:
            quadrants["bottom_right"].append(instance)

    powers: Dict[str, float] = {}
    for quadrant_name, members in quadrants.items():
        quadrant_power = (
            low_quadrant_power_w
            if quadrant_name in ("upper_right", "bottom_left")
            else high_quadrant_power_w
        )
        if not members:
            continue
        per_tile = quadrant_power / len(members)
        for instance in members:
            powers[instance.name] = per_tile
    return ActivityPattern(name="diagonal", tile_powers_w=powers)


def random_activity(
    floorplan: Floorplan,
    total_power_w: float,
    seed: int = 0,
    kind: Optional[str] = "tile",
) -> ActivityPattern:
    """Random activity: tile powers drawn uniformly then rescaled to the total."""
    if total_power_w < 0.0:
        raise ConfigurationError("total power must be >= 0")
    tiles = _tiles(floorplan, kind)
    generator = random.Random(seed)
    raw = {instance.name: generator.random() for instance in tiles}
    raw_total = sum(raw.values())
    powers = {name: value / raw_total * total_power_w for name, value in raw.items()}
    return ActivityPattern(name=f"random_seed{seed}", tile_powers_w=powers)


def hotspot_activity(
    floorplan: Floorplan,
    total_power_w: float,
    hotspot_fraction: float = 0.5,
    hotspot_tiles: int = 2,
    kind: Optional[str] = "tile",
) -> ActivityPattern:
    """Hotspot activity: a few central tiles concentrate a fraction of the power."""
    if not 0.0 <= hotspot_fraction <= 1.0:
        raise ConfigurationError("hotspot_fraction must be within [0, 1]")
    tiles = _tiles(floorplan, kind)
    if hotspot_tiles <= 0 or hotspot_tiles > len(tiles):
        raise ConfigurationError("hotspot_tiles must be within [1, number of tiles]")
    center_x, center_y = floorplan.outline.center
    ranked = sorted(
        tiles,
        key=lambda inst: (inst.rect.center[0] - center_x) ** 2
        + (inst.rect.center[1] - center_y) ** 2,
    )
    hot = ranked[:hotspot_tiles]
    cold = ranked[hotspot_tiles:]
    powers: Dict[str, float] = {}
    for instance in hot:
        powers[instance.name] = total_power_w * hotspot_fraction / len(hot)
    if cold:
        for instance in cold:
            powers[instance.name] = total_power_w * (1.0 - hotspot_fraction) / len(cold)
    return ActivityPattern(name="hotspot", tile_powers_w=powers)


def checkerboard_activity(
    floorplan: Floorplan,
    total_power_w: float,
    contrast: float = 3.0,
    kind: Optional[str] = "tile",
) -> ActivityPattern:
    """Checkerboard activity: alternate tiles dissipate ``contrast`` times more."""
    if contrast <= 0.0:
        raise ConfigurationError("contrast must be positive")
    tiles = _tiles(floorplan, kind)
    weights: Dict[str, float] = {}
    for index, instance in enumerate(tiles):
        weights[instance.name] = contrast if index % 2 == 0 else 1.0
    weight_total = sum(weights.values())
    powers = {
        name: weight / weight_total * total_power_w for name, weight in weights.items()
    }
    return ActivityPattern(name="checkerboard", tile_powers_w=powers)


def gradient_activity(
    floorplan: Floorplan,
    total_power_w: float,
    axis: str = "x",
    kind: Optional[str] = "tile",
) -> ActivityPattern:
    """Linear power gradient across the die along ``axis`` ('x' or 'y')."""
    if axis not in ("x", "y"):
        raise ConfigurationError("axis must be 'x' or 'y'")
    tiles = _tiles(floorplan, kind)
    outline = floorplan.outline
    weights: Dict[str, float] = {}
    for instance in tiles:
        tile_x, tile_y = instance.rect.center
        if axis == "x":
            fraction = (tile_x - outline.x_min) / outline.width
        else:
            fraction = (tile_y - outline.y_min) / outline.height
        weights[instance.name] = 0.25 + fraction
    weight_total = sum(weights.values())
    powers = {
        name: weight / weight_total * total_power_w for name, weight in weights.items()
    }
    return ActivityPattern(name=f"gradient_{axis}", tile_powers_w=powers)


def from_mapping(name: str, tile_powers_w: Mapping[str, float]) -> ActivityPattern:
    """Wrap an explicit tile → power mapping into an :class:`ActivityPattern`."""
    return ActivityPattern(name=name, tile_powers_w=dict(tile_powers_w))


def infrastructure_activity(
    floorplan: Floorplan,
    total_power_w: float,
    kinds: Tuple[str, ...] = ("memory_controller", "system_interface"),
) -> ActivityPattern:
    """Static power of the die infrastructure (memory controllers, IO).

    The power is split over the infrastructure blocks proportionally to their
    area; floorplans without such blocks yield an empty (zero-power) pattern.
    """
    if total_power_w < 0.0:
        raise ConfigurationError("total power must be >= 0")
    instances = [
        instance for kind in kinds for instance in floorplan.instances_of_kind(kind)
    ]
    if not instances or total_power_w == 0.0:
        return ActivityPattern(name="infrastructure", tile_powers_w={})
    total_area = sum(instance.rect.area for instance in instances)
    powers = {
        instance.name: total_power_w * instance.rect.area / total_area
        for instance in instances
    }
    return ActivityPattern(name="infrastructure", tile_powers_w=powers)


def standard_activities(
    floorplan: Floorplan,
    total_power_w: float,
    seed: int = 0,
    infrastructure_fraction: float = 0.35,
) -> Dict[str, ActivityPattern]:
    """The three activities of the paper's evaluation, keyed by name.

    ``infrastructure_fraction`` of the total power goes to the asymmetric
    infrastructure blocks (memory controllers, system interface) when the
    floorplan has them — this is what makes the per-ONI temperatures uneven
    even under "uniform" activity, as the paper observes for the real SCC.
    The rest is distributed over the tiles by the pattern itself; the diagonal
    pattern follows the paper's 4 W / 8 W quadrant split, rescaled.
    """
    if not 0.0 <= infrastructure_fraction < 1.0:
        raise ConfigurationError("infrastructure_fraction must be within [0, 1)")
    has_infrastructure = bool(
        floorplan.instances_of_kind("memory_controller")
        or floorplan.instances_of_kind("system_interface")
    )
    fraction = infrastructure_fraction if has_infrastructure else 0.0
    tile_power = total_power_w * (1.0 - fraction)
    static = infrastructure_activity(floorplan, total_power_w * fraction)

    def with_static(pattern: ActivityPattern) -> ActivityPattern:
        if not static.tile_powers_w:
            return pattern
        return pattern.merged_with(static, name=pattern.name)

    diagonal = diagonal_activity(floorplan).scaled_to(tile_power)
    return {
        "uniform": with_static(uniform_activity(floorplan, tile_power)),
        "diagonal": with_static(diagonal),
        "random": with_static(random_activity(floorplan, tile_power, seed=seed)),
    }
