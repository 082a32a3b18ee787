"""Thermal maps: the output of a steady-state solve and its spatial queries.

The paper's methodology consumes two quantities per Optical Network Interface
(ONI): the *average temperature* (which sets the VCSEL efficiency) and the
*gradient temperature* (maximum difference between any two points of the ONI,
or between specific devices such as a VCSEL and a microring).  The
:class:`ThermalMap` provides volume-weighted averages, extrema and gradient
queries over arbitrary boxes or footprints.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import AnalysisError
from ..geometry import Box, Rect
from .mesh import BoxOverlaps, Mesh3D


class ThermalMap:
    """Cell-centred temperature field on a :class:`Mesh3D` [degC]."""

    def __init__(self, mesh: Mesh3D, temperatures_c: np.ndarray) -> None:
        if temperatures_c.shape != mesh.shape:
            raise AnalysisError(
                f"temperature field shape {temperatures_c.shape} does not match "
                f"mesh shape {mesh.shape}"
            )
        self._mesh = mesh
        self._temperatures = np.asarray(temperatures_c, dtype=float)

    # Basic access -------------------------------------------------------------

    @property
    def mesh(self) -> Mesh3D:
        """Mesh the field is defined on."""
        return self._mesh

    @property
    def temperatures_c(self) -> np.ndarray:
        """Raw cell temperature array, shape ``(nx, ny, nz)``."""
        return self._temperatures

    def temperature_at(self, x: float, y: float, z: float) -> float:
        """Temperature of the cell containing the point (x, y, z)."""
        i, j, k = self._mesh.locate(x, y, z)
        return float(self._temperatures[i, j, k])

    def clamped_temperatures_at(self, x, y, z) -> np.ndarray:
        """Temperatures of the cells containing points given as coordinate arrays.

        Points outside the mesh take the temperature of the nearest boundary
        cell (see :meth:`Mesh3D.nearest_cells`).
        """
        return self._temperatures[self._mesh.nearest_cells(x, y, z)]

    def global_min(self) -> float:
        """Minimum temperature over the whole domain."""
        return float(self._temperatures.min())

    def global_max(self) -> float:
        """Maximum temperature over the whole domain."""
        return float(self._temperatures.max())

    # Box queries ---------------------------------------------------------------

    def overlaps(self, boxes: Union[Sequence[Box], np.ndarray]) -> BoxOverlaps:
        """Overlaps of boxes (or their ``(N, 6)`` bounds) with the mesh, to
        query repeatedly; :class:`AnalysisError` names a box outside it."""
        overlaps = self._mesh.box_overlaps(boxes)
        outside = overlaps.first_empty()
        if outside is not None:
            box = boxes[outside]
            raise AnalysisError(
                "query box does not overlap the thermal map domain: "
                f"{Box(*box.tolist()) if isinstance(box, np.ndarray) else box!r}"
            )
        return overlaps

    def averages_over(
        self,
        boxes: Union[Sequence[Box], np.ndarray, BoxOverlaps],
        blocks: Optional[Sequence[slice]] = None,
    ) -> np.ndarray:
        """Volume-weighted average temperature over each box, shape ``(N,)``.

        ``boxes`` may be :meth:`overlaps`; ``blocks`` as in
        :meth:`BoxOverlaps.weighted_sums`.
        """
        overlaps = boxes if isinstance(boxes, BoxOverlaps) else self.overlaps(boxes)
        return overlaps.weighted_sums(self._temperatures, blocks) / overlaps.volumes

    def average_over(self, box: Box) -> float:
        """Volume-weighted average temperature over ``box``."""
        return float(self.averages_over([box])[0])

    def extrema_over(self, box: Box) -> Tuple[float, float]:
        """Minimum and maximum cell temperature among cells overlapping ``box``."""
        values = self._temperatures[self.overlaps([box]).cell_slices(0)]
        return float(values.min()), float(values.max())

    def max_over(self, box: Box) -> float:
        """Maximum cell temperature among cells overlapping ``box``."""
        return self.extrema_over(box)[1]

    def gradient_within(self, box: Box) -> float:
        """Maximum temperature difference between any two cells of ``box``."""
        minimum, maximum = self.extrema_over(box)
        return maximum - minimum

    def gradient_between(self, first: Box, second: Box) -> float:
        """Absolute difference of the average temperatures of two boxes."""
        return abs(self.average_over(first) - self.average_over(second))

    # Slices and summaries ---------------------------------------------------------

    def horizontal_slice(self, z: float) -> np.ndarray:
        """2D temperature slice (nx, ny) at height ``z``."""
        bounding = self._mesh.bounding_box()
        if not bounding.z_min <= z <= bounding.z_max:
            raise AnalysisError(f"z = {z} outside the mesh")
        _, _, k = self._mesh.locate(
            self._mesh.x_centers[0], self._mesh.y_centers[0], z
        )
        return self._temperatures[:, :, k].copy()

    def average_by_boxes(self, boxes: Dict[str, Box]) -> Dict[str, float]:
        """Average temperature for each named box."""
        averages = self.averages_over(list(boxes.values()))
        return dict(zip(boxes, averages.tolist()))

    def hottest_point(self) -> Tuple[float, float, float, float]:
        """Coordinates (x, y, z) and temperature of the hottest cell centre."""
        flat_index = int(np.argmax(self._temperatures))
        i, j, k = np.unravel_index(flat_index, self._temperatures.shape)
        return (
            float(self._mesh.x_centers[i]),
            float(self._mesh.y_centers[j]),
            float(self._mesh.z_centers[k]),
            float(self._temperatures[i, j, k]),
        )

    def summary(self) -> Dict[str, float]:
        """Global summary statistics of the temperature field."""
        return {
            "min_c": self.global_min(),
            "max_c": self.global_max(),
            "mean_c": float(self._temperatures.mean()),
            "spread_c": self.global_max() - self.global_min(),
        }

    # Interpolation helpers --------------------------------------------------------

    def sample_line(
        self,
        start: Tuple[float, float, float],
        end: Tuple[float, float, float],
        samples: int = 50,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample the field along a straight segment.

        Returns the curvilinear abscissa (m) and the temperatures (degC).
        """
        if samples < 2:
            raise AnalysisError("samples must be >= 2")
        start_arr = np.asarray(start, dtype=float)
        end_arr = np.asarray(end, dtype=float)
        fractions = np.linspace(0.0, 1.0, samples)
        points = start_arr[None, :] + fractions[:, None] * (end_arr - start_arr)[None, :]
        distances = fractions * float(np.linalg.norm(end_arr - start_arr))
        values = np.array(
            [self.temperature_at(px, py, pz) for px, py, pz in points], dtype=float
        )
        return distances, values

    def averages_along_ring(
        self,
        footprints: Sequence[Rect],
        z_min: float,
        z_max: float,
    ) -> np.ndarray:
        """Average temperatures of a sequence of footprints (e.g. all ONIs)."""
        return self.averages_over(
            [Box.from_rect(rect, z_min, z_max) for rect in footprints]
        )
