"""Two-level (zoom / submodel) thermal solving.

The paper's IcTherm deck uses 5 um cells inside the regions containing the
optical interfaces and 100-500 um elsewhere.  A rectilinear tensor mesh cannot
refine a small patch without refining whole rows and columns of the chip, so
this module implements the classical *submodelling* technique instead:

1. solve the whole package on a coarse mesh;
2. cut out a lateral window around the region of interest (an ONI),
   re-mesh it at device-scale resolution (down to 5 um),
   impose the coarse solution as Dirichlet conditions on the cut faces,
   keep the original top/bottom boundary conditions, re-apply the heat
   sources that fall inside the window, and solve again.

The refined map recovers intra-ONI gradients (VCSEL vs microring) that the
coarse map smears out, at a tiny fraction of the cost of a flat fine mesh.

A zoom solver builds the window mesh of each region it refines once and
keeps it.  The window operator and its factor are served by the shared
cache of :mod:`repro.thermal.factorization`, keyed by the window mesh
content and the boundary structure, so repeated solves around the same
ONI — whose imposed Dirichlet temperatures change, not their structure —
mesh and factorise once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple, Union

import numpy as np

from ..errors import SolverError
from ..geometry import Box, LayerStack, Rect
from .boundary import BoundaryConditions, FaceCondition
from .mesh import Mesh3D, MeshBuilder
from .solver import SteadyStateSolver
from .sources import HeatSource, SourceBatch
from .thermal_map import ThermalMap


@dataclass(frozen=True)
class ZoomResult:
    """Result of a zoom solve: the fine map and the window it covers."""

    thermal_map: ThermalMap
    window: Rect
    n_cells: int


def clip_sources_to_window(
    sources: Union[SourceBatch, Iterable[HeatSource]], window: Box
) -> SourceBatch:
    """Clip heat sources to a window, scaling powers by the overlap fraction.

    Sources entirely outside the window are dropped — their effect on the
    window is carried by the Dirichlet boundary taken from the coarse solve.
    The arithmetic is that of :meth:`Box.intersection` and
    :meth:`Box.overlap_fraction`, row by row.
    """
    batch = SourceBatch.of(sources)
    batch.validate()
    lower = np.maximum(batch.bounds[:, :3], [window.x_min, window.y_min, window.z_min])
    upper = np.minimum(batch.bounds[:, 3:], [window.x_max, window.y_max, window.z_max])
    extent = upper - lower
    fraction = extent[:, 0] * extent[:, 1] * extent[:, 2] / batch.volumes
    kept = np.flatnonzero(np.all(extent > 0.0, axis=1) & (fraction > 0.0))
    return SourceBatch(
        np.hstack([lower, upper])[kept],
        batch.powers[kept] * fraction[kept],
        *(column[kept] for column in (batch.groups, batch.owners, batch.labels)),
    )


class ZoomSolver:
    """Device-scale refinement solver around a lateral window.

    Parameters
    ----------
    stack:
        The same layer stack used for the coarse solve.
    coarse_boundaries:
        Boundary conditions of the coarse problem; the zoom solve reuses the
        ``z_min`` / ``z_max`` conditions and replaces the lateral faces with
        Dirichlet values interpolated from the coarse solution.
    cell_size_um:
        Target lateral cell size inside the window.
    margin_um:
        The window is grown by this margin on every side so the Dirichlet
        faces sit away from the strong local sources.
    vertical_target_um / max_sublayers:
        Vertical meshing controls (see :class:`~repro.thermal.mesh.MeshBuilder`).
    """

    def __init__(
        self,
        stack: LayerStack,
        coarse_boundaries: BoundaryConditions,
        cell_size_um: float = 5.0,
        margin_um: float = 200.0,
        vertical_target_um: float = 100.0,
        max_sublayers: int = 4,
        max_cells: int = 2_000_000,
        direct_cell_limit: int = 400_000,
        vertical_range: Optional[tuple[float, float]] = None,
    ) -> None:
        if cell_size_um <= 0.0:
            raise SolverError("zoom cell size must be positive")
        if margin_um < 0.0:
            raise SolverError("zoom margin must be >= 0")
        if vertical_range is not None:
            z_low, z_high = vertical_range
            if not 0.0 <= z_low < z_high <= stack.total_thickness + 1.0e-12:
                raise SolverError(
                    "vertical_range must be an increasing sub-interval of the stack"
                )
        self._stack = stack
        self._coarse_boundaries = coarse_boundaries
        self._cell_size_um = cell_size_um
        self._margin_m = margin_um * 1.0e-6
        self._vertical_target_um = vertical_target_um
        self._max_sublayers = max_sublayers
        self._max_cells = max_cells
        self._direct_cell_limit = direct_cell_limit
        self._vertical_range = vertical_range
        #: Window and mesh of every region refined so far.
        self._meshes: Dict[Rect, Tuple[Rect, Mesh3D]] = {}

    def _window(self, region: Rect) -> Rect:
        expanded = region.expanded(self._margin_m)
        footprint = self._stack.footprint
        return Rect(
            max(expanded.x_min, footprint.x_min),
            max(expanded.y_min, footprint.y_min),
            min(expanded.x_max, footprint.x_max),
            min(expanded.y_max, footprint.y_max),
        )

    def _boundaries(self, coarse_map: ThermalMap) -> BoundaryConditions:
        coarse_field = coarse_map.clamped_temperatures_at
        boundaries = BoundaryConditions()
        for face in ("x_min", "x_max", "y_min", "y_max"):
            boundaries.set_face(face, FaceCondition.dirichlet(coarse_field))
        # When the zoom window is clipped vertically, the cut faces are interior
        # surfaces of the package and take the coarse solution as Dirichlet
        # values; faces coinciding with the real package boundary keep the
        # original conditions (heat sink / board).
        z_low = self._vertical_range[0] if self._vertical_range else 0.0
        z_high = (
            self._vertical_range[1]
            if self._vertical_range
            else self._stack.total_thickness
        )
        if z_low > 1.0e-12:
            boundaries.set_face("z_min", FaceCondition.dirichlet(coarse_field))
        else:
            boundaries.set_face("z_min", self._coarse_boundaries.face("z_min"))
        if z_high < self._stack.total_thickness - 1.0e-12:
            boundaries.set_face("z_max", FaceCondition.dirichlet(coarse_field))
        else:
            boundaries.set_face("z_max", self._coarse_boundaries.face("z_max"))
        return boundaries

    def _window_mesh(self, region: Rect) -> Tuple[Rect, Mesh3D]:
        """Window and mesh around ``region``, built on its first solve."""
        memo = self._meshes.get(region)
        if memo is None:
            window = self._window(region)
            builder = MeshBuilder(
                self._stack,
                base_cell_size_um=self._cell_size_um * 4.0,
                max_cells=self._max_cells,
                max_sublayers=self._max_sublayers,
                vertical_target_um=self._vertical_target_um,
                region=window,
                vertical_range=self._vertical_range,
            )
            builder.add_refinement(region, self._cell_size_um)
            memo = self._meshes[region] = (window, builder.build())
        return memo

    def solve(
        self,
        coarse_map: ThermalMap,
        region: Rect,
        sources: Union[SourceBatch, Iterable[HeatSource]],
    ) -> ZoomResult:
        """Refine the coarse solution inside ``region``."""
        window, mesh = self._window_mesh(region)
        solver = SteadyStateSolver(
            mesh,
            self._boundaries(coarse_map),
            direct_cell_limit=self._direct_cell_limit,
        )
        window_box = Box.from_rect(window, mesh.z_ticks[0], mesh.z_ticks[-1])
        local_sources = clip_sources_to_window(sources, window_box)
        fine_map = solver.solve(local_sources)
        return ZoomResult(thermal_map=fine_map, window=window, n_cells=mesh.n_cells)
