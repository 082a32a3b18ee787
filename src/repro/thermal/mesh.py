"""Non-uniform rectilinear 3D meshes for the finite-volume thermal solver.

The mesh follows the multi-resolution idea of the paper's IcTherm setup
(Section IV.B): the package is meshed coarsely, the die more finely, and the
regions containing optical interfaces with a micro-scale resolution.  Since
the mesh is rectilinear (a tensor product of x, y and z tick vectors), a
refinement region refines whole rows/columns; device-scale resolution is
obtained with the two-level zoom solver (:mod:`repro.thermal.zoom`) rather
than by meshing the whole chip at 5 um.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import MeshError
from ..geometry import Box, LayerStack, Rect
from ..geometry.box import box_bounds
from ..materials import AIR, Material
from ..units import um_to_m


def _axis_overlap_lengths(ticks: np.ndarray, lower, upper) -> np.ndarray:
    """Overlap lengths of intervals ``[lower, upper]`` with the cells of an axis.

    ``lower`` / ``upper`` broadcast against the cell axis: scalars give one
    ``(n_cells,)`` row, ``(N, 1)`` columns give an ``(N, n_cells)`` matrix.
    """
    return np.clip(
        np.minimum(ticks[1:], upper) - np.maximum(ticks[:-1], lower), 0.0, None
    )


def _nonzero_slice(lengths: np.ndarray) -> slice:
    """Index range of the nonzero entries of a 1-D overlap profile.

    The overlap of an interval with an axis is nonzero on a contiguous
    range, so this slice holds every overlapping cell and nothing else.
    """
    nonzero = np.flatnonzero(lengths)
    if nonzero.size == 0:
        return slice(0, 0)
    return slice(int(nonzero[0]), int(nonzero[-1]) + 1)


#: The per-box fields of :class:`BoxOverlaps`, in constructor order.
_ROW_FIELDS = ("x_lengths", "y_lengths", "z_lengths", "z_extents", "volumes")


@dataclass(frozen=True)
class BoxOverlaps:
    """Separable overlaps of N boxes with a tensor mesh.

    The overlap volume of box ``b`` with cell ``(i, j, k)`` factors into
    ``x_lengths[b, i] * y_lengths[b, j] * z_lengths[b, k]``.  Boxes sharing a
    z-extent share their z profile, so they form one group: depositing into
    or contracting with a field is then one small matmul per group instead
    of one array operation per box.  Rows are independent of each other, so
    overlaps computed once serve any subset (:meth:`take`) or concatenation
    (:meth:`concatenate`) of their boxes, grouped afresh in row order.
    """

    #: Per-box overlap lengths along x, shape ``(N, nx)`` [m].
    x_lengths: np.ndarray
    #: Per-box overlap lengths along y, shape ``(N, ny)`` [m].
    y_lengths: np.ndarray
    #: Per-box overlap lengths along z, shape ``(N, nz)`` [m].
    z_lengths: np.ndarray
    #: Per-box ``(z_min, z_max)``, shape ``(N, 2)``: the grouping key.
    z_extents: np.ndarray
    #: Total overlap volume per box, shape ``(N,)`` [m^3].
    volumes: np.ndarray
    #: Mesh shape ``(nx, ny, nz)``.
    shape: Tuple[int, int, int]

    @cached_property
    def z_groups(self) -> Tuple[Tuple[np.ndarray, slice, np.ndarray], ...]:
        """One ``(members, z_slice, z_lengths)`` per distinct z-extent, in
        order of first appearance: the box indices, the z-cells they
        overlap and the overlap lengths there."""
        groups = []
        ungrouped = np.ones(self.volumes.size, dtype=bool)
        while ungrouped.any():
            first = int(np.argmax(ungrouped))
            same = (self.z_extents == self.z_extents[first]).all(axis=1)
            same[first] = True  # a NaN extent is a group of its own
            members = np.flatnonzero(ungrouped & same)
            ungrouped[members] = False
            profile = self.z_lengths[first]
            z_slice = _nonzero_slice(profile)
            groups.append((members, z_slice, profile[z_slice]))
        return tuple(groups)

    def take(self, rows: np.ndarray) -> "BoxOverlaps":
        """Overlaps of the boxes ``rows`` (an index array), in that order."""
        return BoxOverlaps(*(getattr(self, name)[rows] for name in _ROW_FIELDS), self.shape)

    @staticmethod
    def concatenate(parts: Sequence["BoxOverlaps"]) -> "BoxOverlaps":
        """Overlaps of the boxes of every part, part after part."""
        columns = (np.concatenate([getattr(p, name) for p in parts]) for name in _ROW_FIELDS)
        return BoxOverlaps(*columns, parts[0].shape)

    def deposit(self, weights: np.ndarray) -> np.ndarray:
        """Field ``sum_b weights[b] * overlap_volume_b``, shape ``(nx, ny, nz)``."""
        field = np.zeros(self.shape, dtype=float)
        for members, z_slice, z_lengths in self.z_groups:
            x_weighted = self.x_lengths[members].T * weights[members]
            plane = x_weighted @ self.y_lengths[members]
            field[:, :, z_slice] += plane[:, :, None] * z_lengths
        return field

    def weighted_sums(
        self, field: np.ndarray, blocks: Optional[Sequence[slice]] = None
    ) -> np.ndarray:
        """Overlap-volume-weighted sum of ``field`` over each box, shape ``(N,)``.

        With ``blocks`` (row ranges covering every row) each range is
        contracted in a product of its own, so a sum equals the one of a
        query of its block alone (a one-row product rounds differently).
        """
        sums = np.zeros(self.volumes.size, dtype=float)
        for members, z_slice, z_lengths in self.z_groups:
            plane = field[:, :, z_slice] @ z_lengths
            for block in blocks or [slice(0, self.volumes.size)]:
                rows = members[(members >= block.start) & (members < block.stop)]
                sums[rows] = np.einsum(
                    "bi,bi->b", self.x_lengths[rows] @ plane, self.y_lengths[rows]
                )
        return sums

    def first_empty(self) -> Optional[int]:
        """Index of the first box that does not overlap the mesh, if any."""
        empty = np.flatnonzero(self.volumes <= 0.0)
        return int(empty[0]) if empty.size else None

    def cell_slices(self, index: int) -> Tuple[slice, slice, slice]:
        """Index ranges of the cells box ``index`` overlaps (may be empty)."""
        return (
            _nonzero_slice(self.x_lengths[index]),
            _nonzero_slice(self.y_lengths[index]),
            _nonzero_slice(self.z_lengths[index]),
        )


@dataclass(frozen=True)
class RefinementRegion:
    """A lateral region meshed with a finer target cell size."""

    rect: Rect
    cell_size: float

    def __post_init__(self) -> None:
        if self.cell_size <= 0.0:
            raise MeshError("refinement cell size must be positive")


def build_ticks(
    lower: float,
    upper: float,
    base_size: float,
    refinements: Sequence[Tuple[float, float, float]] = (),
) -> np.ndarray:
    """Build a 1D tick vector between ``lower`` and ``upper``.

    ``refinements`` is a sequence of ``(lo, hi, size)`` intervals meshed with
    the given target size; outside them the ``base_size`` applies.  Interval
    boundaries always become ticks so material/block edges are honoured.
    """
    if upper <= lower:
        raise MeshError(f"invalid tick range [{lower}, {upper}]")
    if base_size <= 0.0:
        raise MeshError("base cell size must be positive")

    breakpoints = {lower, upper}
    clipped: List[Tuple[float, float, float]] = []
    for lo, hi, size in refinements:
        if size <= 0.0:
            raise MeshError("refinement cell size must be positive")
        lo_clamped = max(lo, lower)
        hi_clamped = min(hi, upper)
        if hi_clamped <= lo_clamped:
            continue
        clipped.append((lo_clamped, hi_clamped, size))
        breakpoints.add(lo_clamped)
        breakpoints.add(hi_clamped)

    sorted_points = sorted(breakpoints)
    ticks: List[float] = [sorted_points[0]]
    for start, end in zip(sorted_points[:-1], sorted_points[1:]):
        length = end - start
        if length <= 0.0:
            continue
        midpoint = 0.5 * (start + end)
        target = base_size
        for lo, hi, size in clipped:
            if lo <= midpoint <= hi:
                target = min(target, size)
        divisions = max(1, int(math.ceil(length / target - 1.0e-9)))
        step = length / divisions
        for division in range(1, divisions + 1):
            ticks.append(start + division * step)
    # Breakpoints that nearly coincide (e.g. a refinement edge a rounding error
    # away from the domain boundary) would otherwise produce degenerate cells.
    tolerance = 1.0e-9 * (upper - lower)
    merged = merge_close_ticks(np.asarray(ticks, dtype=float), tolerance=tolerance)
    merged[-1] = upper
    return merged


def merge_close_ticks(ticks: np.ndarray, tolerance: float = 1.0e-9) -> np.ndarray:
    """Remove ticks closer than ``tolerance`` to their predecessor."""
    if ticks.size == 0:
        return ticks
    kept = [float(ticks[0])]
    for value in ticks[1:]:
        if value - kept[-1] > tolerance:
            kept.append(float(value))
    return np.asarray(kept, dtype=float)


class Mesh3D:
    """Rectilinear mesh with per-cell anisotropic conductivities.

    The conductivity arrays have shape ``(nx, ny, nz)``; ``k_lateral`` is used
    for heat flow along x and y, ``k_vertical`` along z.  The optional
    ``c_volumetric`` array carries the per-cell volumetric heat capacity
    (rho * c_p, [J/(m^3 K)]) consumed by the transient solver; steady-state
    solves ignore it, so meshes built without it remain fully usable.
    """

    def __init__(
        self,
        x_ticks: np.ndarray,
        y_ticks: np.ndarray,
        z_ticks: np.ndarray,
        k_lateral: np.ndarray,
        k_vertical: np.ndarray,
        c_volumetric: Optional[np.ndarray] = None,
    ) -> None:
        for name, ticks in (("x", x_ticks), ("y", y_ticks), ("z", z_ticks)):
            if ticks.ndim != 1 or ticks.size < 2:
                raise MeshError(f"{name}_ticks must be a 1D array with >= 2 entries")
            if np.any(np.diff(ticks) <= 0.0):
                raise MeshError(f"{name}_ticks must be strictly increasing")
        self.x_ticks = np.asarray(x_ticks, dtype=float)
        self.y_ticks = np.asarray(y_ticks, dtype=float)
        self.z_ticks = np.asarray(z_ticks, dtype=float)
        expected_shape = (self.nx, self.ny, self.nz)
        if k_lateral.shape != expected_shape or k_vertical.shape != expected_shape:
            raise MeshError(
                f"conductivity arrays must have shape {expected_shape}, got "
                f"{k_lateral.shape} and {k_vertical.shape}"
            )
        if np.any(k_lateral <= 0.0) or np.any(k_vertical <= 0.0):
            raise MeshError("cell conductivities must be strictly positive")
        self.k_lateral = np.asarray(k_lateral, dtype=float)
        self.k_vertical = np.asarray(k_vertical, dtype=float)
        if c_volumetric is not None:
            c_volumetric = np.asarray(c_volumetric, dtype=float)
            if c_volumetric.shape != expected_shape:
                raise MeshError(
                    f"heat capacity array must have shape {expected_shape}, got "
                    f"{c_volumetric.shape}"
                )
            if not np.all(np.isfinite(c_volumetric)) or not np.all(
                c_volumetric > 0.0
            ):
                raise MeshError(
                    "cell heat capacities must be strictly positive and finite"
                )
        self.c_volumetric = c_volumetric
        self._content_key: Optional[str] = None

    @property
    def content_key(self) -> str:
        """SHA-256 over the ticks and the per-cell material arrays (hex).

        Keys the operators of :mod:`repro.thermal.factorization`.  Memoised:
        a mesh is never mutated after it is built.
        """
        if self._content_key is None:
            digest = hashlib.sha256(b"mesh-v1:")
            for array in (
                self.x_ticks,
                self.y_ticks,
                self.z_ticks,
                self.k_lateral,
                self.k_vertical,
                self.c_volumetric,
            ):
                if array is None:  # no heat capacities
                    digest.update(b"-")
                    continue
                digest.update(np.asarray(array.shape, dtype=np.int64).tobytes())
                digest.update(np.ascontiguousarray(array).tobytes())
            self._content_key = digest.hexdigest()
        return self._content_key

    @property
    def has_heat_capacity(self) -> bool:
        """Whether the mesh carries per-cell volumetric heat capacities."""
        return self.c_volumetric is not None

    def capacitance_vector(self) -> np.ndarray:
        """Per-cell lumped thermal capacitance [J/K], flattened row-major.

        ``C_i = volume_i * (rho c_p)_i`` — the diagonal of the transient
        system's capacitance matrix.  Requires the mesh to have been built
        with heat capacities (:class:`MeshBuilder` fills them from the layer
        materials); hand-built meshes can pass ``c_volumetric`` explicitly.
        """
        if self.c_volumetric is None:
            raise MeshError(
                "the mesh has no heat-capacity data; build it with MeshBuilder "
                "or construct Mesh3D with an explicit c_volumetric array"
            )
        return (self.cell_volumes() * self.c_volumetric).ravel()

    # Shape ----------------------------------------------------------------

    @property
    def nx(self) -> int:
        """Number of cells along x."""
        return self.x_ticks.size - 1

    @property
    def ny(self) -> int:
        """Number of cells along y."""
        return self.y_ticks.size - 1

    @property
    def nz(self) -> int:
        """Number of cells along z."""
        return self.z_ticks.size - 1

    @property
    def shape(self) -> Tuple[int, int, int]:
        """Cell-count tuple ``(nx, ny, nz)``."""
        return (self.nx, self.ny, self.nz)

    @property
    def n_cells(self) -> int:
        """Total number of cells."""
        return self.nx * self.ny * self.nz

    # Spacings and centres ---------------------------------------------------

    @property
    def dx(self) -> np.ndarray:
        """Cell widths along x [m]."""
        return np.diff(self.x_ticks)

    @property
    def dy(self) -> np.ndarray:
        """Cell widths along y [m]."""
        return np.diff(self.y_ticks)

    @property
    def dz(self) -> np.ndarray:
        """Cell widths along z [m]."""
        return np.diff(self.z_ticks)

    @property
    def x_centers(self) -> np.ndarray:
        """Cell centre coordinates along x [m]."""
        return 0.5 * (self.x_ticks[:-1] + self.x_ticks[1:])

    @property
    def y_centers(self) -> np.ndarray:
        """Cell centre coordinates along y [m]."""
        return 0.5 * (self.y_ticks[:-1] + self.y_ticks[1:])

    @property
    def z_centers(self) -> np.ndarray:
        """Cell centre coordinates along z [m]."""
        return 0.5 * (self.z_ticks[:-1] + self.z_ticks[1:])

    def cell_volumes(self) -> np.ndarray:
        """Cell volumes [m^3] with shape ``(nx, ny, nz)``."""
        return (
            self.dx[:, None, None] * self.dy[None, :, None] * self.dz[None, None, :]
        )

    # Location ----------------------------------------------------------------

    def bounding_box(self) -> Box:
        """Bounding box of the mesh."""
        return Box(
            self.x_ticks[0],
            self.y_ticks[0],
            self.z_ticks[0],
            self.x_ticks[-1],
            self.y_ticks[-1],
            self.z_ticks[-1],
        )

    def locate(self, x: float, y: float, z: float) -> Tuple[int, int, int]:
        """Indices of the cell containing the point (clamped to the mesh)."""
        box = self.bounding_box()
        if not box.contains_point(x, y, z):
            raise MeshError(f"point ({x}, {y}, {z}) lies outside the mesh")
        i, j, k = self.nearest_cells(x, y, z)
        return int(i), int(j), int(k)

    def nearest_cells(self, x, y, z) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cell indices of points (arrays or scalars), clamped into the mesh.

        A point on a tick belongs to the cell above it; a point outside the
        mesh maps to the nearest boundary cell along each axis.
        """
        return tuple(
            np.clip(
                np.searchsorted(ticks, values, side="right") - 1, 0, ticks.size - 2
            )
            for ticks, values in (
                (self.x_ticks, x),
                (self.y_ticks, y),
                (self.z_ticks, z),
            )
        )

    def cell_box(self, i: int, j: int, k: int) -> Box:
        """Bounding box of cell (i, j, k)."""
        self._check_indices(i, j, k)
        return Box(
            self.x_ticks[i],
            self.y_ticks[j],
            self.z_ticks[k],
            self.x_ticks[i + 1],
            self.y_ticks[j + 1],
            self.z_ticks[k + 1],
        )

    def flat_index(self, i: int, j: int, k: int) -> int:
        """Flattened (row-major) index of cell (i, j, k)."""
        self._check_indices(i, j, k)
        return (i * self.ny + j) * self.nz + k

    def _check_indices(self, i: int, j: int, k: int) -> None:
        if not (0 <= i < self.nx and 0 <= j < self.ny and 0 <= k < self.nz):
            raise MeshError(
                f"cell index ({i}, {j}, {k}) outside mesh of shape {self.shape}"
            )

    # Overlap helpers ---------------------------------------------------------

    def box_overlaps(self, boxes: Union[Sequence[Box], np.ndarray]) -> BoxOverlaps:
        """Separable overlaps of ``boxes`` with the mesh, in one batch.

        ``boxes`` is a box list or its ``(N, 6)`` bounds array
        (:func:`~repro.geometry.box.box_bounds`).  Each axis is one
        broadcast over all boxes; the boxes are grouped by z-extent (see
        :class:`BoxOverlaps`).  A box outside the mesh gets a zero volume;
        callers decide whether that is an error.
        """
        bounds = box_bounds(boxes)
        x_lengths = _axis_overlap_lengths(self.x_ticks, bounds[:, 0:1], bounds[:, 3:4])
        y_lengths = _axis_overlap_lengths(self.y_ticks, bounds[:, 1:2], bounds[:, 4:5])
        z_lengths = _axis_overlap_lengths(self.z_ticks, bounds[:, 2:3], bounds[:, 5:6])
        volumes = x_lengths.sum(axis=1) * y_lengths.sum(axis=1) * z_lengths.sum(axis=1)
        return BoxOverlaps(
            x_lengths, y_lengths, z_lengths, bounds[:, [2, 5]], volumes, self.shape
        )

    def box_overlap_volumes(self, box: Box) -> np.ndarray:
        """Per-cell overlap volume with ``box`` [m^3], shape ``(nx, ny, nz)``."""
        return self.box_overlaps([box]).deposit(np.ones(1))


class MeshBuilder:
    """Build a :class:`Mesh3D` from a :class:`~repro.geometry.LayerStack`.

    Lateral resolution is controlled by a base cell size plus refinement
    regions; vertical resolution honours every layer boundary and subdivides
    thick layers.
    """

    def __init__(
        self,
        stack: LayerStack,
        base_cell_size_um: float = 1000.0,
        max_cells: int = 2_000_000,
        padding_material: Material = AIR,
        max_sublayers: int = 4,
        vertical_target_um: float = 400.0,
        region: Optional[Rect] = None,
        vertical_range: Optional[Tuple[float, float]] = None,
    ) -> None:
        if base_cell_size_um <= 0.0:
            raise MeshError("base cell size must be positive")
        if max_cells <= 0:
            raise MeshError("max_cells must be positive")
        if region is not None and not stack.footprint.contains_rect(region):
            raise MeshError("mesh region must lie inside the stack footprint")
        if vertical_range is not None:
            z_low, z_high = vertical_range
            if not 0.0 <= z_low < z_high <= stack.total_thickness + 1.0e-12:
                raise MeshError(
                    "vertical_range must be an increasing sub-interval of the stack height"
                )
        self._stack = stack
        self._region = region
        self._vertical_range = vertical_range
        self._base_cell_size = um_to_m(base_cell_size_um)
        self._max_cells = max_cells
        self._padding_material = padding_material
        self._max_sublayers = max(1, max_sublayers)
        self._vertical_target = um_to_m(vertical_target_um)
        self._refinements: List[RefinementRegion] = []

    def add_refinement(self, rect: Rect, cell_size_um: float) -> None:
        """Mesh the lateral region ``rect`` with the given target cell size."""
        self._refinements.append(
            RefinementRegion(rect=rect, cell_size=um_to_m(cell_size_um))
        )

    def add_refinements(self, rects: Iterable[Rect], cell_size_um: float) -> None:
        """Add the same refinement size for several regions."""
        for rect in rects:
            self.add_refinement(rect, cell_size_um)

    # Internal helpers --------------------------------------------------------

    def _z_ticks(self) -> np.ndarray:
        ticks: List[float] = [0.0]
        z = 0.0
        for layer in self._stack:
            sublayers = max(
                1,
                min(
                    self._max_sublayers,
                    int(math.ceil(layer.thickness / self._vertical_target)),
                ),
            )
            step = layer.thickness / sublayers
            for index in range(1, sublayers + 1):
                ticks.append(z + index * step)
            z += layer.thickness
        merged = merge_close_ticks(np.asarray(ticks, dtype=float))
        if self._vertical_range is None:
            return merged
        z_low, z_high = self._vertical_range
        inside = merged[(merged > z_low + 1.0e-12) & (merged < z_high - 1.0e-12)]
        clipped = np.concatenate(([z_low], inside, [z_high]))
        return merge_close_ticks(clipped)

    def _lateral_ticks(self) -> Tuple[np.ndarray, np.ndarray]:
        footprint = self._region or self._stack.footprint
        x_refinements = [
            (region.rect.x_min, region.rect.x_max, region.cell_size)
            for region in self._refinements
        ]
        y_refinements = [
            (region.rect.y_min, region.rect.y_max, region.cell_size)
            for region in self._refinements
        ]
        layer_hints_x: List[Tuple[float, float, float]] = []
        layer_hints_y: List[Tuple[float, float, float]] = []
        for layer in self._stack:
            if layer.mesh_hint_um is None:
                continue
            rect = layer.footprint or footprint
            size = um_to_m(layer.mesh_hint_um)
            layer_hints_x.append((rect.x_min, rect.x_max, size))
            layer_hints_y.append((rect.y_min, rect.y_max, size))
        x_ticks = build_ticks(
            footprint.x_min,
            footprint.x_max,
            self._base_cell_size,
            x_refinements + layer_hints_x,
        )
        y_ticks = build_ticks(
            footprint.y_min,
            footprint.y_max,
            self._base_cell_size,
            y_refinements + layer_hints_y,
        )
        return merge_close_ticks(x_ticks), merge_close_ticks(y_ticks)

    def _fill_cell_properties(
        self,
        x_centers: np.ndarray,
        y_centers: np.ndarray,
        z_centers: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        nx, ny, nz = x_centers.size, y_centers.size, z_centers.size
        k_lateral = np.empty((nx, ny, nz), dtype=float)
        k_vertical = np.empty((nx, ny, nz), dtype=float)
        c_volumetric = np.empty((nx, ny, nz), dtype=float)
        for k_index, z in enumerate(z_centers):
            layer = self._stack.layer_at(z)
            default = layer.material
            k_lateral[:, :, k_index] = default.lateral_conductivity
            k_vertical[:, :, k_index] = default.vertical_conductivity
            c_volumetric[:, :, k_index] = default.volumetric_heat_capacity_j_m3k()
            if layer.footprint is not None:
                padding = layer.padding_material or self._padding_material
                inside_x = (x_centers >= layer.footprint.x_min) & (
                    x_centers <= layer.footprint.x_max
                )
                inside_y = (y_centers >= layer.footprint.y_min) & (
                    y_centers <= layer.footprint.y_max
                )
                outside = ~(inside_x[:, None] & inside_y[None, :])
                k_lateral[:, :, k_index][outside] = padding.lateral_conductivity
                k_vertical[:, :, k_index][outside] = padding.vertical_conductivity
                c_volumetric[:, :, k_index][outside] = (
                    padding.volumetric_heat_capacity_j_m3k()
                )
            for block in layer.blocks:
                in_x = (x_centers >= block.footprint.x_min) & (
                    x_centers <= block.footprint.x_max
                )
                in_y = (y_centers >= block.footprint.y_min) & (
                    y_centers <= block.footprint.y_max
                )
                region = in_x[:, None] & in_y[None, :]
                k_lateral[:, :, k_index][region] = block.material.lateral_conductivity
                k_vertical[:, :, k_index][region] = block.material.vertical_conductivity
                c_volumetric[:, :, k_index][region] = (
                    block.material.volumetric_heat_capacity_j_m3k()
                )
        return k_lateral, k_vertical, c_volumetric

    # Public API ---------------------------------------------------------------

    def build(self) -> Mesh3D:
        """Construct the mesh; raises :class:`MeshError` if it would be too large."""
        x_ticks, y_ticks = self._lateral_ticks()
        z_ticks = self._z_ticks()
        n_cells = (x_ticks.size - 1) * (y_ticks.size - 1) * (z_ticks.size - 1)
        if n_cells > self._max_cells:
            raise MeshError(
                f"mesh would contain {n_cells} cells, above the configured limit "
                f"of {self._max_cells}; relax the resolutions or raise max_cells"
            )
        x_centers = 0.5 * (x_ticks[:-1] + x_ticks[1:])
        y_centers = 0.5 * (y_ticks[:-1] + y_ticks[1:])
        z_centers = 0.5 * (z_ticks[:-1] + z_ticks[1:])
        k_lateral, k_vertical, c_volumetric = self._fill_cell_properties(
            x_centers, y_centers, z_centers
        )
        return Mesh3D(
            x_ticks, y_ticks, z_ticks, k_lateral, k_vertical, c_volumetric
        )
