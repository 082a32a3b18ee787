"""Steady-state thermal solver (IcTherm substitute).

:class:`SteadyStateSolver` wires together the mesh, the heat sources and the
boundary conditions, assembles the finite-volume system and solves it.

Design-space exploration runs many solves on the *same* mesh with different
source powers (and, for the zoom solver, different imposed boundary
temperatures).  The solver holds no operator or factor: the shared cache of
:mod:`repro.thermal.factorization` serves the operator of its mesh and
boundary structure and its banded-Cholesky factor, so every solver meeting
the same content assembles and factorises it once per process; only the
boundary right-hand side is recomputed per call.  Very large meshes fall
back to a conjugate-gradient solve with a Jacobi (inverse-diagonal)
preconditioner, which, unlike an incomplete LU, is symmetric positive
definite and so a valid CG preconditioner; it is recomputed per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Union

import numpy as np
from scipy.sparse import diags
from scipy.sparse.linalg import cg

from ..config import DIRECT_SOLVER_CELL_LIMIT
from ..errors import SolverError
from .assembly import boundary_rhs
from .boundary import BoundaryConditions
from .factorization import CacheEntry, shared_cache
from .mesh import Mesh3D
from .sources import HeatSource, SourceBatch, power_density_field
from .thermal_map import ThermalMap


@dataclass(frozen=True)
class SolverDiagnostics:
    """Numerical diagnostics of a steady-state solve."""

    n_cells: int
    method: str
    residual_norm: float
    total_power_w: float
    min_temperature_c: float
    max_temperature_c: float
    factorization_reused: bool

    def summary(self) -> str:
        """One-line human readable summary."""
        return (
            f"{self.method} solve of {self.n_cells} cells: "
            f"T in [{self.min_temperature_c:.2f}, {self.max_temperature_c:.2f}] degC, "
            f"P = {self.total_power_w:.3f} W, residual = {self.residual_norm:.2e}"
        )


@dataclass(frozen=True)
class BatchSolveResult:
    """Result of a batched multi-right-hand-side solve.

    ``maps[i]`` and ``diagnostics[i]`` correspond to the i-th source set
    passed to :meth:`SteadyStateSolver.solve_many`.
    """

    maps: List[ThermalMap]
    diagnostics: List[SolverDiagnostics]

    def __len__(self) -> int:
        return len(self.maps)

    def __iter__(self):
        return iter(self.maps)

    def __getitem__(self, index: int) -> ThermalMap:
        return self.maps[index]


class SteadyStateSolver:
    """Finite-volume steady-state heat conduction solver.

    Parameters
    ----------
    mesh:
        The rectilinear mesh to solve on.
    boundaries:
        Boundary conditions; at least one face must be convective or
        Dirichlet.
    direct_cell_limit:
        Above this number of cells, the solver switches from the sparse
        direct factorisation to preconditioned conjugate gradients.
    rtol:
        Relative tolerance of the iterative solver.
    """

    def __init__(
        self,
        mesh: Mesh3D,
        boundaries: BoundaryConditions,
        direct_cell_limit: int = DIRECT_SOLVER_CELL_LIMIT,
        rtol: float = 1.0e-8,
    ) -> None:
        if direct_cell_limit <= 0:
            raise SolverError("direct_cell_limit must be positive")
        if rtol <= 0.0:
            raise SolverError("rtol must be positive")
        self._mesh = mesh
        self._boundaries = boundaries
        self._direct_cell_limit = direct_cell_limit
        self._rtol = rtol
        self._last_diagnostics: Optional[SolverDiagnostics] = None

    # Properties -----------------------------------------------------------------

    @property
    def mesh(self) -> Mesh3D:
        """Mesh the solver operates on."""
        return self._mesh

    @property
    def boundaries(self) -> BoundaryConditions:
        """Boundary conditions of the problem."""
        return self._boundaries

    @property
    def last_diagnostics(self) -> Optional[SolverDiagnostics]:
        """Diagnostics of the most recent solve, if any."""
        return self._last_diagnostics

    # Internal ----------------------------------------------------------------------

    def _solve_linear_many(
        self, entry: CacheEntry, rhs_matrix: np.ndarray
    ) -> tuple[np.ndarray, str, bool]:
        """Solve ``K X = B`` for a stacked right-hand-side matrix ``B``.

        ``rhs_matrix`` has shape ``(n_cells, n_rhs)``.  The direct path runs
        every column through the factor of the operator ``entry``, served by
        the shared cache, in a single ``factor.solve(B)`` call; the
        iterative path (very large meshes) loops the Jacobi-preconditioned
        conjugate gradient over the columns, sharing one inverse-diagonal
        preconditioner.  Returns the solution matrix, the method name and
        whether the shared cache served the factor.
        """
        operator = entry.operator
        if operator.n_cells <= self._direct_cell_limit:
            factorization, _, reused = shared_cache.factorize(
                operator.matrix, entry.key
            )
            return factorization.solve(rhs_matrix), "direct", reused
        # Iterative fallback for very large meshes.
        preconditioner = diags(1.0 / operator.matrix.diagonal())
        solutions = np.empty_like(rhs_matrix)
        for column in range(rhs_matrix.shape[1]):
            solution, info = cg(
                operator.matrix,
                rhs_matrix[:, column],
                rtol=self._rtol,
                maxiter=20_000,
                M=preconditioner,
            )
            if info != 0:
                raise SolverError(
                    f"conjugate gradient failed to converge (info = {info})"
                )
            solutions[:, column] = solution
        return solutions, "jacobi_cg", False

    # Public API ----------------------------------------------------------------------

    def solve(self, sources: Union[SourceBatch, Iterable[HeatSource]]) -> ThermalMap:
        """Solve for the steady-state temperature field of the given sources."""
        return self.solve_many([sources]).maps[0]

    def solve_many(
        self, source_sets: Sequence[Union[SourceBatch, Iterable[HeatSource]]]
    ) -> BatchSolveResult:
        """Solve one steady-state problem per source set, sharing one factorisation.

        The right-hand sides of all source sets are stacked into a single
        ``(n_cells, n_rhs)`` array and solved together, so the conductance
        matrix is factorised at most once for the whole batch regardless of
        how many source sets are passed.  Column ``i`` of the batch yields
        ``maps[i]`` / ``diagnostics[i]``; the results are identical to
        calling :meth:`solve` once per source set.
        """
        batches = [SourceBatch.of(sources) for sources in source_sets]
        if not batches:
            return BatchSolveResult(maps=[], diagnostics=[])
        entry = shared_cache.operator(self._mesh, self._boundaries)
        operator = entry.operator
        boundary_load = boundary_rhs(operator, self._boundaries)

        powers = [power_density_field(self._mesh, batch) for batch in batches]
        rhs_matrix = np.stack(
            [power.ravel() + boundary_load for power in powers], axis=1
        )

        solutions, method, reused = self._solve_linear_many(entry, rhs_matrix)
        solutions = np.asarray(solutions, dtype=float)
        if not np.all(np.isfinite(solutions)):
            raise SolverError("solver produced non-finite temperatures")

        residuals = operator.matrix @ solutions - rhs_matrix
        rhs_norms = np.linalg.norm(rhs_matrix, axis=0)
        residual_norms = np.linalg.norm(residuals, axis=0) / np.where(
            rhs_norms > 0, rhs_norms, 1.0
        )
        worst = float(residual_norms.max())
        if worst > 1.0e-6:
            raise SolverError(
                f"linear solve produced a large residual ({worst:.2e}); "
                "the system may be ill-conditioned"
            )

        maps: List[ThermalMap] = []
        diagnostics: List[SolverDiagnostics] = []
        for column, power in enumerate(powers):
            field = solutions[:, column].reshape(self._mesh.shape)
            diagnostics.append(
                SolverDiagnostics(
                    n_cells=operator.n_cells,
                    method=method,
                    residual_norm=float(residual_norms[column]),
                    total_power_w=float(power.sum()),
                    min_temperature_c=float(field.min()),
                    max_temperature_c=float(field.max()),
                    # The first column pays the factorisation unless the
                    # shared cache served it; later columns reuse it.
                    factorization_reused=reused or column > 0,
                )
            )
            maps.append(ThermalMap(self._mesh, field))
        self._last_diagnostics = diagnostics[-1]
        return BatchSolveResult(maps=maps, diagnostics=diagnostics)
