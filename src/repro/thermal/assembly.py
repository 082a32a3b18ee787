"""Finite-volume assembly of the steady-state conduction problem.

The discretisation is the standard cell-centred finite volume scheme on a
rectilinear mesh: the conductance between two adjacent cells is the series
combination of the two half-cell resistances, and boundary faces add either
nothing (adiabatic), a convective conductance towards the ambient, or a
conductance towards a fixed temperature (Dirichlet).

The assembly is split in two parts so repeated solves can reuse the expensive
one:

* :func:`assemble_operator` builds the sparse conductance matrix ``K`` (which
  only depends on the mesh and on the *structure* of the boundary
  conditions, so the shared cache of :mod:`repro.thermal.factorization`
  keeps one per mesh content and boundary signature);
* :func:`boundary_rhs` builds the boundary contribution to the right-hand
  side (which additionally depends on the ambient / imposed temperatures and
  is cheap to recompute).

The full system for a power field ``q`` is ``K T = q + boundary_rhs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from scipy import sparse

from ..errors import SolverError
from .boundary import FACES, BoundaryConditions
from .mesh import Mesh3D


@dataclass
class AssembledOperator:
    """Sparse conductance matrix plus the data needed to rebuild the RHS."""

    matrix: sparse.csr_matrix
    shape: Tuple[int, int, int]
    #: Per-face boundary conductances (flattened per boundary cell), keyed by face.
    face_conductances: dict
    #: Per-face boundary cell indices, keyed by face.
    face_cells: dict
    #: Per-face boundary face-centre coordinates, keyed by face.
    face_centres: dict
    #: Structural fingerprint of the boundary conditions used for assembly.
    boundary_signature: tuple

    @property
    def n_cells(self) -> int:
        """Number of unknown cell temperatures."""
        return self.matrix.shape[0]


def boundary_signature(boundaries: BoundaryConditions) -> tuple:
    """Structural fingerprint of boundary conditions.

    Two boundary-condition sets with the same signature produce the same
    conductance matrix; only the right-hand side may differ (different
    ambient or imposed temperatures).
    """
    parts = []
    for face in FACES:
        condition = boundaries.face(face)
        parts.append((face, condition.kind, round(condition.coefficient_w_m2k, 12)))
    return tuple(parts)


def _face_conductances(mesh: Mesh3D, axis: int) -> np.ndarray:
    """Conductances through internal faces perpendicular to ``axis``."""
    dx, dy, dz = mesh.dx, mesh.dy, mesh.dz
    if axis == 0:
        conductivity = mesh.k_lateral
        half_resistance = dx[:, None, None] / (2.0 * conductivity)
        area = dy[None, :, None] * dz[None, None, :]
        series = half_resistance[:-1, :, :] + half_resistance[1:, :, :]
        return area / series
    if axis == 1:
        conductivity = mesh.k_lateral
        half_resistance = dy[None, :, None] / (2.0 * conductivity)
        area = dx[:, None, None] * dz[None, None, :]
        series = half_resistance[:, :-1, :] + half_resistance[:, 1:, :]
        return area / series
    if axis == 2:
        conductivity = mesh.k_vertical
        half_resistance = dz[None, None, :] / (2.0 * conductivity)
        area = dx[:, None, None] * dy[None, :, None]
        series = half_resistance[:, :, :-1] + half_resistance[:, :, 1:]
        return area / series
    raise SolverError(f"axis must be 0, 1 or 2, got {axis!r}")


def _boundary_half_conductance(mesh: Mesh3D, face: str) -> np.ndarray:
    """Conductance from the boundary cell centres to the face itself."""
    dx, dy, dz = mesh.dx, mesh.dy, mesh.dz
    if face == "x_min":
        return (dy[:, None] * dz[None, :]) * (2.0 * mesh.k_lateral[0, :, :] / dx[0])
    if face == "x_max":
        return (dy[:, None] * dz[None, :]) * (2.0 * mesh.k_lateral[-1, :, :] / dx[-1])
    if face == "y_min":
        return (dx[:, None] * dz[None, :]) * (2.0 * mesh.k_lateral[:, 0, :] / dy[0])
    if face == "y_max":
        return (dx[:, None] * dz[None, :]) * (2.0 * mesh.k_lateral[:, -1, :] / dy[-1])
    if face == "z_min":
        return (dx[:, None] * dy[None, :]) * (2.0 * mesh.k_vertical[:, :, 0] / dz[0])
    if face == "z_max":
        return (dx[:, None] * dy[None, :]) * (2.0 * mesh.k_vertical[:, :, -1] / dz[-1])
    raise SolverError(f"unknown face {face!r}")


def _face_areas(mesh: Mesh3D, face: str) -> np.ndarray:
    """Areas of the boundary cell faces on ``face``."""
    dx, dy, dz = mesh.dx, mesh.dy, mesh.dz
    if face in ("x_min", "x_max"):
        return dy[:, None] * dz[None, :]
    if face in ("y_min", "y_max"):
        return dx[:, None] * dz[None, :]
    if face in ("z_min", "z_max"):
        return dx[:, None] * dy[None, :]
    raise SolverError(f"unknown face {face!r}")


def _face_cell_indices(mesh: Mesh3D, face: str) -> np.ndarray:
    """Flat indices of the cells adjacent to ``face``."""
    index_grid = np.arange(mesh.n_cells).reshape(mesh.shape)
    if face == "x_min":
        return index_grid[0, :, :].ravel()
    if face == "x_max":
        return index_grid[-1, :, :].ravel()
    if face == "y_min":
        return index_grid[:, 0, :].ravel()
    if face == "y_max":
        return index_grid[:, -1, :].ravel()
    if face == "z_min":
        return index_grid[:, :, 0].ravel()
    if face == "z_max":
        return index_grid[:, :, -1].ravel()
    raise SolverError(f"unknown face {face!r}")


def _face_centres(mesh: Mesh3D, face: str) -> np.ndarray:
    """Coordinates of the boundary face centres, shape (n_faces, 3)."""
    xc, yc, zc = mesh.x_centers, mesh.y_centers, mesh.z_centers
    if face in ("x_min", "x_max"):
        x_value = mesh.x_ticks[0] if face == "x_min" else mesh.x_ticks[-1]
        yy, zz = np.meshgrid(yc, zc, indexing="ij")
        xx = np.full_like(yy, x_value)
    elif face in ("y_min", "y_max"):
        y_value = mesh.y_ticks[0] if face == "y_min" else mesh.y_ticks[-1]
        xx, zz = np.meshgrid(xc, zc, indexing="ij")
        yy = np.full_like(xx, y_value)
    else:
        z_value = mesh.z_ticks[0] if face == "z_min" else mesh.z_ticks[-1]
        xx, yy = np.meshgrid(xc, yc, indexing="ij")
        zz = np.full_like(xx, z_value)
    return np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)


def assemble_operator(
    mesh: Mesh3D, boundaries: BoundaryConditions
) -> AssembledOperator:
    """Assemble the conductance matrix ``K`` and cache the boundary geometry."""
    if not boundaries.has_fixed_reference():
        raise SolverError(
            "the boundary conditions do not pin the temperature anywhere; the "
            "steady-state problem is singular (all faces adiabatic)"
        )
    n_cells = mesh.n_cells
    index_grid = np.arange(n_cells).reshape(mesh.shape)
    diagonal = np.zeros(n_cells, dtype=float)

    rows: List[np.ndarray] = []
    cols: List[np.ndarray] = []
    values: List[np.ndarray] = []

    for axis in range(3):
        conductance = _face_conductances(mesh, axis)
        if axis == 0:
            left = index_grid[:-1, :, :].ravel()
            right = index_grid[1:, :, :].ravel()
        elif axis == 1:
            left = index_grid[:, :-1, :].ravel()
            right = index_grid[:, 1:, :].ravel()
        else:
            left = index_grid[:, :, :-1].ravel()
            right = index_grid[:, :, 1:].ravel()
        flat_conductance = conductance.ravel()
        rows.append(left)
        cols.append(right)
        values.append(-flat_conductance)
        rows.append(right)
        cols.append(left)
        values.append(-flat_conductance)
        np.add.at(diagonal, left, flat_conductance)
        np.add.at(diagonal, right, flat_conductance)

    face_conductances: dict = {}
    face_cells: dict = {}
    face_centres: dict = {}
    for face in FACES:
        condition = boundaries.face(face)
        if condition.kind == "adiabatic":
            continue
        cell_indices = _face_cell_indices(mesh, face)
        half_conductance = _boundary_half_conductance(mesh, face).ravel()
        if condition.kind == "convective":
            areas = _face_areas(mesh, face).ravel()
            convective = condition.coefficient_w_m2k * areas
            total = 1.0 / (1.0 / half_conductance + 1.0 / convective)
        else:
            total = half_conductance
        face_conductances[face] = total
        face_cells[face] = cell_indices
        face_centres[face] = _face_centres(mesh, face)
        np.add.at(diagonal, cell_indices, total)

    rows.append(np.arange(n_cells))
    cols.append(np.arange(n_cells))
    values.append(diagonal)

    matrix = sparse.coo_matrix(
        (np.concatenate(values), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_cells, n_cells),
    ).tocsr()
    return AssembledOperator(
        matrix=matrix,
        shape=mesh.shape,
        face_conductances=face_conductances,
        face_cells=face_cells,
        face_centres=face_centres,
        boundary_signature=boundary_signature(boundaries),
    )


def boundary_rhs(operator: AssembledOperator, boundaries: BoundaryConditions) -> np.ndarray:
    """Boundary contribution to the right-hand side for the given temperatures.

    The boundary conditions must be structurally identical to the ones used
    by :func:`assemble_operator` (same kinds and convective coefficients);
    only the ambient / Dirichlet temperature values may differ.
    """
    if boundary_signature(boundaries) != operator.boundary_signature:
        raise SolverError(
            "boundary conditions are structurally different from the ones used "
            "to assemble the operator; re-assemble instead of reusing it"
        )
    rhs = np.zeros(operator.n_cells, dtype=float)
    for face, conductances in operator.face_conductances.items():
        condition = boundaries.face(face)
        cells = operator.face_cells[face]
        if condition.kind == "convective":
            np.add.at(rhs, cells, conductances * condition.ambient_c)
        else:
            centres = operator.face_centres[face]
            temperatures = condition.temperature_field(
                centres[:, 0], centres[:, 1], centres[:, 2]
            )
            np.add.at(rhs, cells, conductances * temperatures)
    return rhs

