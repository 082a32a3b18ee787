"""Axis-aligned rectangles and boxes.

All geometric quantities are stored in metres.  Helper constructors accept
micrometres / millimetres so callers can use the units of the paper directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple, Union

import numpy as np

from ..errors import GeometryError
from ..units import mm_to_m, um_to_m


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in the (x, y) plane, coordinates in metres."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise GeometryError(
                f"degenerate rectangle: ({self.x_min}, {self.y_min}) .. "
                f"({self.x_max}, {self.y_max})"
            )

    # Constructors ------------------------------------------------------

    @classmethod
    def from_size(cls, x_min: float, y_min: float, width: float, height: float) -> "Rect":
        """Build a rectangle from its lower-left corner and its size."""
        if width < 0.0 or height < 0.0:
            raise GeometryError("width and height must be non-negative")
        return cls(x_min, y_min, x_min + width, y_min + height)

    @classmethod
    def from_center(cls, x_center: float, y_center: float, width: float, height: float) -> "Rect":
        """Build a rectangle from its centre point and its size."""
        if width < 0.0 or height < 0.0:
            raise GeometryError("width and height must be non-negative")
        return cls(
            x_center - width / 2.0,
            y_center - height / 2.0,
            x_center + width / 2.0,
            y_center + height / 2.0,
        )

    @classmethod
    def from_size_mm(cls, x_min_mm: float, y_min_mm: float, width_mm: float, height_mm: float) -> "Rect":
        """Same as :meth:`from_size` with arguments in millimetres."""
        return cls.from_size(
            mm_to_m(x_min_mm), mm_to_m(y_min_mm), mm_to_m(width_mm), mm_to_m(height_mm)
        )

    @classmethod
    def from_size_um(cls, x_min_um: float, y_min_um: float, width_um: float, height_um: float) -> "Rect":
        """Same as :meth:`from_size` with arguments in micrometres."""
        return cls.from_size(
            um_to_m(x_min_um), um_to_m(y_min_um), um_to_m(width_um), um_to_m(height_um)
        )

    # Properties --------------------------------------------------------

    @property
    def width(self) -> float:
        """Extent along x [m]."""
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        """Extent along y [m]."""
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        """Area [m^2]."""
        return self.width * self.height

    @property
    def center(self) -> Tuple[float, float]:
        """Centre point (x, y) [m]."""
        return ((self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0)

    # Operations --------------------------------------------------------

    def contains_point(self, x: float, y: float) -> bool:
        """Whether the point lies inside the rectangle (borders included)."""
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max

    def contains_rect(self, other: "Rect") -> bool:
        """Whether ``other`` lies entirely inside this rectangle."""
        return (
            self.x_min <= other.x_min
            and self.y_min <= other.y_min
            and self.x_max >= other.x_max
            and self.y_max >= other.y_max
        )

    def intersects(self, other: "Rect") -> bool:
        """Whether the two rectangles overlap with non-zero area."""
        return (
            self.x_min < other.x_max
            and other.x_min < self.x_max
            and self.y_min < other.y_max
            and other.y_min < self.y_max
        )

    def intersection(self, other: "Rect") -> "Rect | None":
        """Overlapping rectangle, or ``None`` when the overlap has zero area."""
        x_min = max(self.x_min, other.x_min)
        y_min = max(self.y_min, other.y_min)
        x_max = min(self.x_max, other.x_max)
        y_max = min(self.y_max, other.y_max)
        if x_max <= x_min or y_max <= y_min:
            return None
        return Rect(x_min, y_min, x_max, y_max)

    def overlap_area(self, other: "Rect") -> float:
        """Area of the overlap with ``other`` [m^2]."""
        overlap = self.intersection(other)
        return 0.0 if overlap is None else overlap.area

    def expanded(self, margin: float) -> "Rect":
        """Rectangle grown by ``margin`` on every side."""
        if margin < 0.0 and (self.width < -2 * margin or self.height < -2 * margin):
            raise GeometryError("cannot shrink rectangle below zero size")
        return Rect(
            self.x_min - margin,
            self.y_min - margin,
            self.x_max + margin,
            self.y_max + margin,
        )

    def translated(self, dx: float, dy: float) -> "Rect":
        """Rectangle shifted by (dx, dy)."""
        return Rect(self.x_min + dx, self.y_min + dy, self.x_max + dx, self.y_max + dy)

    def grid_cells(self, columns: int, rows: int) -> Iterator["Rect"]:
        """Yield ``columns x rows`` equal sub-rectangles, row-major order."""
        if columns <= 0 or rows <= 0:
            raise GeometryError("grid dimensions must be positive")
        cell_width = self.width / columns
        cell_height = self.height / rows
        for row in range(rows):
            for column in range(columns):
                yield Rect.from_size(
                    self.x_min + column * cell_width,
                    self.y_min + row * cell_height,
                    cell_width,
                    cell_height,
                )


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in 3D, coordinates in metres."""

    x_min: float
    y_min: float
    z_min: float
    x_max: float
    y_max: float
    z_max: float

    def __post_init__(self) -> None:
        if (
            self.x_max < self.x_min
            or self.y_max < self.y_min
            or self.z_max < self.z_min
        ):
            raise GeometryError("degenerate box: max corner below min corner")

    @classmethod
    def from_rect(cls, rect: Rect, z_min: float, z_max: float) -> "Box":
        """Extrude a rectangle between two z planes."""
        if z_max < z_min:
            raise GeometryError("z_max must be >= z_min")
        return cls(rect.x_min, rect.y_min, z_min, rect.x_max, rect.y_max, z_max)

    @property
    def footprint(self) -> Rect:
        """Projection onto the (x, y) plane."""
        return Rect(self.x_min, self.y_min, self.x_max, self.y_max)

    @property
    def width(self) -> float:
        """Extent along x [m]."""
        return self.x_max - self.x_min

    @property
    def depth(self) -> float:
        """Extent along y [m]."""
        return self.y_max - self.y_min

    @property
    def thickness(self) -> float:
        """Extent along z [m]."""
        return self.z_max - self.z_min

    @property
    def volume(self) -> float:
        """Volume [m^3]."""
        return self.width * self.depth * self.thickness

    @property
    def center(self) -> Tuple[float, float, float]:
        """Centre point (x, y, z) [m]."""
        return (
            (self.x_min + self.x_max) / 2.0,
            (self.y_min + self.y_max) / 2.0,
            (self.z_min + self.z_max) / 2.0,
        )

    def contains_point(self, x: float, y: float, z: float) -> bool:
        """Whether the point lies inside the box (borders included)."""
        return (
            self.x_min <= x <= self.x_max
            and self.y_min <= y <= self.y_max
            and self.z_min <= z <= self.z_max
        )

    def intersection(self, other: "Box") -> "Box | None":
        """Overlapping box, or ``None`` when the overlap has zero volume."""
        x_min = max(self.x_min, other.x_min)
        y_min = max(self.y_min, other.y_min)
        z_min = max(self.z_min, other.z_min)
        x_max = min(self.x_max, other.x_max)
        y_max = min(self.y_max, other.y_max)
        z_max = min(self.z_max, other.z_max)
        if x_max <= x_min or y_max <= y_min or z_max <= z_min:
            return None
        return Box(x_min, y_min, z_min, x_max, y_max, z_max)

    def overlap_volume(self, other: "Box") -> float:
        """Volume of the overlap with ``other`` [m^3]."""
        overlap = self.intersection(other)
        return 0.0 if overlap is None else overlap.volume

    def overlap_fraction(self, other: "Box") -> float:
        """Fraction of this box's volume that lies inside ``other``."""
        if self.volume == 0.0:
            return 0.0
        return self.overlap_volume(other) / self.volume



def box_bounds(boxes: Union[Sequence[Box], np.ndarray]) -> np.ndarray:
    """Bounds ``(n, 6)`` of boxes, columns in :class:`Box` field order (an
    array of bounds passes through)."""
    if isinstance(boxes, np.ndarray):
        return np.asarray(boxes, dtype=float).reshape(-1, 6)
    fields = [(b.x_min, b.y_min, b.z_min, b.x_max, b.y_max, b.z_max) for b in boxes]
    return np.array(fields, dtype=float).reshape(-1, 6)


def extrude_rects(rects: np.ndarray, z_min: float, z_max: float) -> np.ndarray:
    """Bounds ``(n, 6)`` of rects ``(n, 4)`` between two z planes: the array
    twin of :meth:`Box.from_rect`, with the same check."""
    if len(rects) and z_max < z_min:
        raise GeometryError("z_max must be >= z_min")
    z = np.broadcast_to([z_min, z_max], (len(rects), 2))
    return np.column_stack([rects[:, :2], z[:, :1], rects[:, 2:], z[:, 1:]])
