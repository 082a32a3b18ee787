"""Steady-state finite-volume thermal simulation (IcTherm substitute)."""

from .assembly import (
    AssembledOperator,
    assemble_operator,
    boundary_rhs,
    boundary_signature,
)
from .boundary import FACES, BoundaryConditions, FaceCondition
from .compact import CompactResult, CompactThermalModel
from .factorization import (
    FactorizationCache,
    clear_factorization_cache,
    factorization_cache_stats,
    factorize,
    matrix_content_key,
)
from .mesh import Mesh3D, MeshBuilder, RefinementRegion, build_ticks, merge_close_ticks
from .rom import (
    BasisScope,
    ReducedBasis,
    ReducedModel,
    basis_content_key,
    basis_scope,
    build_basis,
    clear_installed_bases,
)
from .solver import BatchSolveResult, SolverDiagnostics, SteadyStateSolver
from .sources import HeatSource, SourceBatch, power_density_field
from .thermal_map import ThermalMap
from .transient import (
    CompiledProbes,
    ProbeSeries,
    ScheduleSegment,
    SourceSchedule,
    TransientDiagnostics,
    TransientResult,
    TransientSnapshot,
    TransientSolver,
    compile_probes,
)
from .zoom import ZoomResult, ZoomSolver, clip_sources_to_window

__all__ = [
    "AssembledOperator",
    "assemble_operator",
    "boundary_rhs",
    "boundary_signature",
    "FACES",
    "BoundaryConditions",
    "FaceCondition",
    "CompactResult",
    "CompactThermalModel",
    "FactorizationCache",
    "clear_factorization_cache",
    "factorization_cache_stats",
    "factorize",
    "matrix_content_key",
    "BasisScope",
    "ReducedBasis",
    "ReducedModel",
    "basis_content_key",
    "basis_scope",
    "build_basis",
    "clear_installed_bases",
    "Mesh3D",
    "MeshBuilder",
    "RefinementRegion",
    "build_ticks",
    "merge_close_ticks",
    "BatchSolveResult",
    "SolverDiagnostics",
    "SteadyStateSolver",
    "HeatSource",
    "SourceBatch",
    "power_density_field",
    "ThermalMap",
    "CompiledProbes",
    "ProbeSeries",
    "ScheduleSegment",
    "SourceSchedule",
    "TransientDiagnostics",
    "TransientResult",
    "TransientSnapshot",
    "TransientSolver",
    "compile_probes",
    "ZoomResult",
    "ZoomSolver",
    "clip_sources_to_window",
]
