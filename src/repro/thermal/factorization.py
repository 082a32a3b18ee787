"""The one owner of thermal operators, their factors and transient steppers.

The steady, zoom and transient solvers all factorise the same kind of
matrix: a symmetric positive definite 7-point stencil on a structured grid
(``K``, or ``C/dt + θK`` per step size; positive definite because every
well-posed boundary set has a convective or Dirichlet face).
:class:`BandedCholesky` factorises it with LAPACK's blocked banded Cholesky
(``dpbtrf``) of the lower band, in whichever of the natural and the reverse
Cuthill–McKee orderings gives the narrower band; on the case-study mesh
that is about 2.5x cheaper than a general sparse LU.  With scipy's
OpenBLAS the lower band factors about 20% faster than the upper one on one
thread (on the case-study operator, 18,445 cells with half-band 491,
114–126 against 136–179 ms) while the solves cost the same.  It calls
``dpbtrf`` and ``dpbtrs`` through ctypes, which releases the GIL, so a
factorisation on one thread runs in parallel with the work of another.

The band's size picks its precision.  An operator whose float64 band,
``n·(kd+1)·8`` bytes, is larger than :data:`SINGLE_PRECISION_BAND_BYTES`
(40 MB) has its band built straight in float32 and factored with
``spbtrf``, which halves the largest allocation of the cold case study.
Each solve is then refined in float64 against the operator the factor was
built from, as LAPACK's ``dsposv`` does (Langou et al., SC 2006): a pass
adds the ``spbtrs`` solve of the float64 residual ``b − A x`` to ``x``,
until ``‖b − A x‖∞ ≤ ‖x‖∞·‖A‖∞·ε·√n`` with ``ε = 2⁻⁵³``.  Each column of a
stacked right-hand side stops on its own, so a stacked solve equals its
per-column solves bit for bit.  If ``spbtrf`` breaks down, or a column
does not converge within :data:`MAX_REFINEMENTS` passes, the operator is
refactored once with ``dpbtrf`` (``dsposv``'s own fallback) and stays in
float64.  Smaller operators are factored and solved in float64 as before.
A refined solve costs three ``spbtrs`` passes and three residuals on the
thermal operators, so the threshold sits where the float32 factor's saving
outweighs that.  Measured at one BLAS thread on the registered operators
(``K`` and the transient stepper; best of 5 factorisations and 15 solves):

=====================  ======  ===  ========  ================  ===================
operator               cells   kd   f64 band  factor f64 / f32  solve f64 / refined
=====================  ======  ===  ========  ================  ===================
small die              3,179   162  4.1 MB    5.3 / 4.7 ms      0.32 / 1.00 ms
``scc_uniform_18mm``   5,355   230  9.9 MB    13.5 / 10.1 ms    0.83 / 1.89 ms
``scc_diagonal_32mm``  6,375   246  12.6 MB   17.5 / 12.8 ms    1.00 / 2.52 ms
``scc_random_46mm``    9,044   311  22.6 MB   42.4 / 34.6 ms    2.22 / 4.52 ms
``scc_case_study`` K   18,445  491  72.6 MB   161 / 85 ms       10.0 / 9.8 ms
case-study stepper     18,445  491  72.6 MB   122 / 81 ms       5.9 / 9.8 ms
=====================  ======  ===  ========  ================  ===================

Up to 22.6 MB a refined solve costs 2.0–3.1x a float64 one and the factor
saves under 8 ms, so the campaigns' operators, solved many times per
transient, stay in float64; the case study's two 72.6 MB bands drop to
36.3 MB each, and their solutions move by at most 1e-12 relative.

:data:`shared_cache` is the only holder of these artefacts; the solvers
keep none.  It serves them by content key, one LRU entry each:

* an **operator**, keyed by ``Mesh3D.content_key`` and the
  ``boundary_signature``: the assembled operator, its
  :func:`matrix_content_key` (hashed once) and, once a direct solve asks
  for it, its factor;
* a **stepper**, keyed by :func:`stepper_key`: the factor of ``C/dt + θK``
  and the explicit ``C/dt − (1−θ)K``;
* a bare :func:`factorize` of any other matrix, keyed by its content;
* a **flow**, keyed by its design content (see :meth:`FactorizationCache.flow`):
  a design flow with its mesh, compiled ONI geometry and SNR engine;
* a **basis**, keyed by :func:`response_basis_key`: the steady response
  ``T0`` to the boundary load and the response to each of a design's unit
  source shapes (:class:`~repro.thermal.solver.ResponseBasis`), from which
  a design flow superposes its small designs' coarse fields.

So the scenarios of a campaign that share a design, or the steady, zoom
and transient solvers of one flow, build each flow and assemble and
factorise each operator once per process.  Builds are single-flight: a
thread asking for an entry another thread is building waits for that
build, so concurrent callers never build one entry twice.  The cache is
bounded: a paper-scale factor holds tens of megabytes, so sweeps varying
the step size or the mesh must not accumulate them; an evicted entry is
freed, and :meth:`stats` reports the bytes held by factors and sparse
matrices (the operator a float32 factor refines against counted once).
A basis is counted by its dense columns.  A flow is counted as an entry
but not in those bytes: its mesh, compiled geometry and window meshes are
small next to the factors of its operators, which it does not hold (they
are entries of their own).  Reuse is
numerically invisible — the factorisation is deterministic in the matrix
content, whichever thread builds it — which is what lets the
executor-conformance suite keep pinning artifacts byte-identical whatever
the process topology.
"""

from __future__ import annotations

import ctypes
import hashlib
import threading
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.linalg import cython_lapack
from scipy.sparse.csgraph import reverse_cuthill_mckee

from ..caching import LruCache
from ..errors import SolverError
from .assembly import AssembledOperator, assemble_operator, boundary_signature
from .boundary import BoundaryConditions
from .mesh import Mesh3D


def lapack_routine(name: str, *argtypes: Any) -> Callable[..., None]:
    """The ``scipy.linalg.cython_lapack`` routine ``name`` as a ctypes function.

    It is the LAPACK of scipy's bundled OpenBLAS, the one its Python
    wrappers call, but a ctypes call releases the GIL, so threads factorise
    and solve in parallel.  Raises :class:`ImportError` naming the routine
    when scipy does not export it.
    """
    try:
        capsule = cython_lapack.__pyx_capi__[name]
    except (AttributeError, KeyError):
        raise ImportError(
            f"scipy.linalg.cython_lapack exports no {name!r} routine"
        ) from None
    capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi)
    )
    capsule_pointer = ctypes.PYFUNCTYPE(
        ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p
    )(("PyCapsule_GetPointer", ctypes.pythonapi))
    address = capsule_pointer(capsule, capsule_name(capsule))
    return ctypes.CFUNCTYPE(None, *argtypes)(address)


_INT = ctypes.POINTER(ctypes.c_int)
_ARRAY = ctypes.c_void_p
#: ``?pbtrf(uplo, n, kd, ab, ldab, info)``: banded Cholesky, in place, in
#: double (``d``) or single (``s``) precision.
_DPBTRF, _SPBTRF = (
    lapack_routine(name, ctypes.c_char_p, _INT, _INT, _ARRAY, _INT, _INT)
    for name in ("dpbtrf", "spbtrf")
)
#: ``?pbtrs(uplo, n, kd, nrhs, ab, ldab, b, ldb, info)``: solve, in place.
_DPBTRS, _SPBTRS = (
    lapack_routine(
        name, ctypes.c_char_p, _INT, _INT, _INT, _ARRAY, _INT, _ARRAY, _INT, _INT
    )
    for name in ("dpbtrs", "spbtrs")
)
#: The factor and solve routine, with their names, of each band precision.
_ROUTINES = {
    np.dtype(np.float64): (("dpbtrf", _DPBTRF), ("dpbtrs", _DPBTRS)),
    np.dtype(np.float32): (("spbtrf", _SPBTRF), ("spbtrs", _SPBTRS)),
}

#: Operators whose float64 band, ``n·(kd+1)·8`` bytes, is larger than this
#: are factored in float32 and their solves refined to float64; the others
#: are factored in float64.  Measured, not a setting: see the module
#: docstring.
SINGLE_PRECISION_BAND_BYTES = 40_000_000
#: Refinement passes after the first float32 solve before a float32 factor
#: is replaced by a float64 one (``dsposv``'s ``ITERMAX``).
MAX_REFINEMENTS = 30


def _int(value: int) -> Any:
    """A LAPACK integer argument (by reference)."""
    return ctypes.byref(ctypes.c_int(value))


def _lower_band(
    csr: sparse.csr_matrix,
    permutation: Optional[np.ndarray],
    bandwidth: int,
    dtype: Any,
) -> np.ndarray:
    """The lower band of canonical ``csr``, reordered by ``permutation``, as
    the Fortran-ordered array LAPACK factorises in place: row ``i - j`` of
    column ``j`` holds ``A[i, j]``.  Built straight in ``dtype``."""
    n = csr.shape[0]
    # The row of each entry follows from ``indptr``.
    rows = np.repeat(np.arange(n), np.diff(csr.indptr))
    cols = csr.indices
    if permutation is not None:
        inverse = np.empty(n, dtype=np.intp)
        inverse[permutation] = np.arange(n)
        rows, cols = inverse[rows], inverse[cols]
    lower = rows >= cols
    band = np.zeros((bandwidth + 1, n), dtype=dtype, order="F")
    band[rows[lower] - cols[lower], cols[lower]] = csr.data[lower]
    return band


def _factor_band(band: np.ndarray) -> Tuple[str, int]:
    """Factorise ``band`` in place with the routine of its precision;
    returns that routine's name and its ``info``."""
    (name, routine), _ = _ROUTINES[band.dtype]
    kd, n = band.shape[0] - 1, band.shape[1]
    info = ctypes.c_int(0)
    routine(b"L", _int(n), _int(kd), band.ctypes.data, _int(kd + 1), ctypes.byref(info))
    return name, info.value


class BandedCholesky:
    """Banded Cholesky factor ``Pᵀ A P = L Lᵀ`` of a sparse SPD matrix.

    Only the lower triangle of ``matrix`` is read for the factor; the
    thermal operators are exactly symmetric by construction.  ``P`` is the
    reverse Cuthill–McKee permutation when it narrows the band, else the
    identity.  A matrix whose float64 band is larger than
    :data:`SINGLE_PRECISION_BAND_BYTES` is factored in float32 and its
    solves refined in float64 against ``matrix`` itself.  :meth:`solve`
    accepts one right-hand side or a stacked ``(n, n_rhs)`` matrix, which is
    how the steady, transient and ROM solvers call it.  Both call LAPACK
    without holding the GIL.

    Raises :class:`~repro.errors.SolverError` when the matrix is not
    positive definite (a singular or indefinite operator).
    """

    def __init__(self, matrix: sparse.spmatrix) -> None:
        # The canonical CSR form (sorted, duplicates summed) is the assembled
        # operators' own, so this neither copies nor sorts them; any other
        # matrix is summed on a copy, never reordered under its owner.
        csr = matrix.tocsr()
        if not csr.has_canonical_format:
            csr = csr.copy()
            csr.sum_duplicates()
        n = csr.shape[0]
        rows = np.repeat(np.arange(n), np.diff(csr.indptr))
        cols = csr.indices
        permutation = reverse_cuthill_mckee(csr, symmetric_mode=True)
        inverse = np.empty(n, dtype=np.intp)
        inverse[permutation] = np.arange(n)
        natural = int(np.max(np.abs(rows - cols), initial=0))
        permuted = int(
            np.max(np.abs(inverse[rows] - inverse[cols]), initial=0)
        )
        self._permutation: Optional[np.ndarray] = (
            permutation if permuted < natural else None
        )
        #: Half-bandwidth of the factor, in the ordering chosen.
        self.bandwidth = min(natural, permuted)
        self._lock = threading.Lock()
        #: The operator float32 solves are refined against, or ``None`` for
        #: a float64 factor.
        self._matrix: Optional[sparse.csr_matrix] = None
        if n * (self.bandwidth + 1) * 8 > SINGLE_PRECISION_BAND_BYTES:
            band = _lower_band(csr, self._permutation, self.bandwidth, np.float32)
            _, info = _factor_band(band)
            if info == 0:
                self._factor = band
                self._matrix = csr
                # dsposv's tolerance: ‖A‖∞·ε·√n, with LAPACK's ε = 2⁻⁵³.
                norm = np.max(abs(csr) @ np.ones(n), initial=0.0)
                self._tolerance = norm * np.finfo(np.float64).epsneg * np.sqrt(n)
                return
            # A float32 breakdown refactors in float64, as dsposv does.
            del band
        self._factor = self._double_factor(csr)

    def _double_factor(self, csr: sparse.csr_matrix) -> np.ndarray:
        """The float64 factor of ``csr``'s band; raises
        :class:`~repro.errors.SolverError` when ``dpbtrf`` rejects it."""
        n = csr.shape[0]
        band = _lower_band(csr, self._permutation, self.bandwidth, np.float64)
        routine, info = _factor_band(band)
        if info > 0:
            raise SolverError(
                f"the {n}x{n} thermal operator is not positive definite "
                f"({routine}: leading minor {info} is not); its boundary "
                "conditions or materials are ill-posed"
            )
        if info < 0:
            raise SolverError(f"{routine} rejected its argument {-info}")
        return band

    @property
    def nbytes(self) -> int:
        """Bytes held by the factor: its band, the permutation and, for a
        float32 band, the CSR operator its solves are refined against."""
        held = self._factor.nbytes
        if self._permutation is not None:
            held += self._permutation.nbytes
        matrix = self._matrix
        if matrix is not None:
            held += matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
        return held

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` for a vector or stacked ``(n, n_rhs)`` matrix.

        ``rhs`` is left untouched; the solution has its shape.  With a
        float32 factor each column is refined on its own, so a stacked solve
        equals its per-column solves bit for bit.
        """
        rhs = np.asarray(rhs)
        # Read once: a failed refinement replaces a float32 factor.
        band, matrix = self._factor, self._matrix
        n = band.shape[1]
        if rhs.ndim not in (1, 2) or rhs.shape[0] != n:
            raise ValueError(
                f"right-hand side of shape {rhs.shape} does not fit the "
                f"{n}x{n} factor"
            )
        if matrix is None:
            return self._substitute(band, rhs)
        columns = rhs.reshape(n, -1)
        solution = np.empty(columns.shape)
        for column in range(columns.shape[1]):
            refined = self._refine(band, matrix, columns[:, column])
            if refined is None:
                return self._substitute(self._refactor(band), rhs)
            solution[:, column] = refined
        return solution.reshape(rhs.shape)

    def _substitute(self, band: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """``rhs`` solved by forward and back substitution through ``band``,
        in its precision."""
        _, (routine, substitute) = _ROUTINES[band.dtype]
        permutation = self._permutation
        # LAPACK overwrites a Fortran-ordered copy with the solution.
        if permutation is None:
            solution = np.array(rhs, dtype=band.dtype, order="F")
        else:
            solution = np.asarray(rhs[permutation], dtype=band.dtype, order="F")
        kd, n = band.shape[0] - 1, band.shape[1]
        n_rhs = solution.shape[1] if solution.ndim == 2 else 1
        info = ctypes.c_int(0)
        substitute(
            b"L", _int(n), _int(kd), _int(n_rhs), band.ctypes.data,
            _int(kd + 1), solution.ctypes.data, _int(max(n, 1)), ctypes.byref(info),
        )
        if info.value != 0:
            raise SolverError(f"{routine} rejected its argument {-info.value}")
        if permutation is None:
            return solution
        result = np.empty_like(solution)
        result[permutation] = solution
        return result

    def _refine(
        self, band: np.ndarray, matrix: sparse.csr_matrix, rhs: np.ndarray
    ) -> Optional[np.ndarray]:
        """``A x = rhs`` for one column, solved through the float32 ``band``
        and refined in float64 until ``dsposv``'s stopping rule holds:
        ``‖rhs − A x‖∞ ≤ ‖x‖∞·‖A‖∞·ε·√n``.  ``None`` when it does not within
        :data:`MAX_REFINEMENTS` passes."""
        rhs = np.asarray(rhs, dtype=np.float64)
        residual, scale = rhs, np.max(np.abs(rhs), initial=0.0)
        if not np.isfinite(scale):
            # Nothing to refine: the solution is not finite either.
            return self._substitute(band, rhs).astype(np.float64)
        solution = np.zeros_like(rhs)
        for _ in range(1 + MAX_REFINEMENTS):
            # Scaled to a unit maximum, so the float32 copy neither
            # overflows nor underflows.
            if scale > 0.0:
                solution = solution + scale * self._substitute(band, residual / scale)
            residual = rhs - matrix @ solution
            scale = np.max(np.abs(residual), initial=0.0)
            if scale <= np.max(np.abs(solution), initial=0.0) * self._tolerance:
                return solution
        return None

    def _refactor(self, band: np.ndarray) -> np.ndarray:
        """The float64 factor that replaces the float32 ``band`` whose
        refinement failed (built once, whichever thread gets here first)."""
        with self._lock:
            if self._factor is band:
                self._factor = self._double_factor(self._matrix)
                self._matrix = None
            return self._factor


def matrix_content_key(matrix: sparse.spmatrix) -> str:
    """SHA-256 over the content of a sparse matrix (shape, pattern, values).

    Two matrices assembled independently from the same mesh and boundary
    conditions hash identically, so the key is a cross-solver,
    cross-scenario content address.  The matrix is viewed in sorted CSC
    form, so the key is layout-independent.
    """
    csc = matrix.tocsc()
    csc.sort_indices()
    digest = hashlib.sha256()
    digest.update(b"csc-v1:")
    digest.update(np.asarray(csc.shape, dtype=np.int64).tobytes())
    digest.update(str(csc.indices.dtype).encode("ascii"))
    digest.update(csc.indptr.tobytes())
    digest.update(csc.indices.tobytes())
    digest.update(np.ascontiguousarray(csc.data, dtype=np.float64).tobytes())
    return digest.hexdigest()


def stepper_key(
    operator_key: str, theta: float, dt: float, capacitance: np.ndarray
) -> str:
    """Content key of the θ-method implicit matrix ``C/dt + θK``.

    Derived from the operator's :func:`matrix_content_key`, θ, dt and the
    capacitance instead of hashing the assembled matrix: the matrix is a
    deterministic function of exactly those inputs.
    """
    digest = hashlib.sha256()
    digest.update(b"transient-stepper-v1:")
    digest.update(operator_key.encode("ascii"))
    digest.update(np.float64(theta).tobytes())
    digest.update(np.float64(dt).tobytes())
    digest.update(np.ascontiguousarray(capacitance, dtype=np.float64).tobytes())
    return digest.hexdigest()


def operator_cache_key(mesh: Mesh3D, boundaries: BoundaryConditions) -> Hashable:
    """Cache key of the operator of ``mesh`` under ``boundaries``."""
    return ("operator", mesh.content_key, boundary_signature(boundaries))


def response_basis_key(
    operator_key: Hashable,
    method: Hashable,
    boundary_load: np.ndarray,
    shapes: Sequence[Any],
) -> Hashable:
    """Cache key of the response basis of source shapes on an operator.

    The operator entry's key fixes the matrix and ``method`` how its columns
    are solved (the factor, or an iterative solve and its tolerance); the
    boundary load (which the operator key leaves out: ambient and imposed
    temperatures) fixes ``T0``; the box bounds and powers of every shape (a
    :class:`~repro.thermal.sources.SourceBatch`) fix its column.  A caller
    that builds its shapes at unit power shares the basis with every design
    that differs from its own only in the powers it weights them by.
    """
    digest = hashlib.sha256()
    digest.update(b"response-basis-v1:")
    digest.update(np.ascontiguousarray(boundary_load, dtype=np.float64).tobytes())
    for shape in shapes:
        digest.update(np.int64(len(shape)).tobytes())
        digest.update(np.ascontiguousarray(shape.bounds, dtype=np.float64).tobytes())
        digest.update(np.ascontiguousarray(shape.powers, dtype=np.float64).tobytes())
    return ("basis", operator_key, method, digest.hexdigest())


#: Kinds of cache entry, as counted by :meth:`FactorizationCache.stats`.
ENTRY_KINDS: Tuple[str, ...] = ("operator", "stepper", "factor", "flow", "basis")


@dataclass(eq=False)
class CacheEntry:
    """One cache entry: an operator, a stepper, a bare factor, a flow or a
    response basis (see above)."""

    key: Hashable
    factor: Optional[BandedCholesky] = None
    operator: Optional[AssembledOperator] = None
    matrix_key: str = ""
    explicit: Optional[sparse.csr_matrix] = None
    flow: Any = None
    basis: Any = None

    @property
    def kind(self) -> str:
        """Which of :data:`ENTRY_KINDS` the entry is."""
        if self.flow is not None:
            return "flow"
        if self.basis is not None:
            return "basis"
        if self.operator is not None:
            return "operator"
        return "factor" if self.explicit is None else "stepper"

    @property
    def nbytes(self) -> int:
        """Bytes held by the entry's factor, sparse matrices and basis
        columns."""
        held = 0 if self.factor is None else self.factor.nbytes
        if self.basis is not None:
            held += self.basis.nbytes
        # A float32 factor holds its operator's matrix; count it once.
        counted = None if self.factor is None else self.factor._matrix
        matrices = [self.explicit]
        if self.operator is not None:
            matrices.append(self.operator.matrix)
        for matrix in matrices:
            if matrix is not None and matrix is not counted:
                held += matrix.data.nbytes + matrix.indices.nbytes
                held += matrix.indptr.nbytes
        return held


class FactorizationCache:
    """Bounded, thread-safe LRU of :class:`CacheEntry` by content key.

    Builds are single-flight.  A build runs outside the lock while a
    :class:`~concurrent.futures.Future` marks it in flight; a caller asking
    for the same operator, stepper, factor, flow or basis meanwhile waits on
    that future instead of building again.  A failed build hands its exception
    to every waiter and installs nothing.
    """

    def __init__(self, max_entries: int = 8) -> None:
        self._entries: LruCache[CacheEntry] = LruCache(max_entries)
        self._lock = threading.Lock()
        #: Builds in flight, by (kind, key).
        self._building: Dict[Tuple[str, Hashable], "Future[Any]"] = {}
        #: Lifetime counters (monotone, unaffected by eviction).
        self.built = 0
        self.reused = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _entry(self, key: Hashable) -> CacheEntry:
        """The entry under ``key``, created if absent (hold the lock)."""
        entry = self._entries.get(key)
        if entry is None:
            entry = CacheEntry(key)
            self._entries.put(key, entry)
        return entry

    def _single_flight(
        self,
        kind: str,
        key: Hashable,
        served: Callable[[CacheEntry], Any],
        build: Callable[[], Dict[str, Any]],
        count_reuse: bool = False,
    ) -> Tuple[Any, bool]:
        """``served(entry)`` of the entry under ``key`` when it is not
        ``None``.  Otherwise one caller sets the fields ``build()`` returns on
        the entry, and it and every concurrent caller get ``served(entry)``.
        Also returns whether this caller ran the build; the others count as
        reuses when ``count_reuse``."""
        slot = (kind, key)
        with self._lock:
            entry = self._entries.get(key)
            result = None if entry is None else served(entry)
            future = None if result is not None else self._building.get(slot)
            building = result is None and future is None
            if building:
                future = self._building[slot] = Future()
        if not building:
            if result is None:
                result = future.result()
            if count_reuse:
                with self._lock:
                    self.reused += 1
            return result, False
        try:
            fields = build()
        except BaseException as error:
            with self._lock:
                del self._building[slot]
            future.set_exception(error)
            raise
        with self._lock:
            entry = self._entry(key)
            for name, value in fields.items():
                setattr(entry, name, value)
            result = served(entry)
            del self._building[slot]
        future.set_result(result)
        return result, True

    def factorize(
        self, matrix: sparse.spmatrix, key: Optional[Hashable] = None
    ) -> Tuple[BandedCholesky, Hashable, bool]:
        """Factor cached under ``key``, built from ``matrix`` when absent.

        Returns ``(factorization, key, reused)``.  ``key`` defaults to the
        :func:`matrix_content_key` of ``matrix``; the operator and stepper
        stages pass their entry's key, so the factor joins that entry.
        This is the only place a factor is built.
        """
        if key is None:
            key = matrix_content_key(matrix)
        factorization, built = self._single_flight(
            "factor",
            key,
            lambda entry: entry.factor,
            lambda: {"factor": BandedCholesky(matrix)},
            count_reuse=True,
        )
        if built:
            with self._lock:
                self.built += 1
        return factorization, key, not built

    def operator(self, mesh: Mesh3D, boundaries: BoundaryConditions) -> CacheEntry:
        """The entry of the operator of ``mesh`` under ``boundaries``.

        Keyed by the mesh content and the boundary *structure*, which fix
        the matrix, so the operator is assembled and content-keyed on a miss
        only.  ``factorize(entry.operator.matrix, entry.key)`` serves its
        factor.
        """

        def build() -> Dict[str, Any]:
            operator = assemble_operator(mesh, boundaries)
            matrix_key = matrix_content_key(operator.matrix)
            return {"operator": operator, "matrix_key": matrix_key}

        entry, _ = self._single_flight(
            "operator",
            operator_cache_key(mesh, boundaries),
            lambda entry: entry if entry.operator is not None else None,
            build,
        )
        return entry

    def stepper(
        self,
        operator_entry: CacheEntry,
        capacitance: np.ndarray,
        theta: float,
        dt: float,
    ) -> CacheEntry:
        """The θ-method stepper entry of an operator entry for step ``dt``.

        Holds the factor of ``A = C/dt + θK`` and the explicit
        ``M = C/dt − (1−θ)K``, so one step solves ``A T' = M T + q``.
        """
        key = stepper_key(operator_entry.matrix_key, theta, dt, capacitance)

        def build() -> Dict[str, Any]:
            matrix = operator_entry.operator.matrix
            capacitance_over_dt = sparse.diags(capacitance / dt)
            implicit = (capacitance_over_dt + theta * matrix).tocsr()
            explicit = (capacitance_over_dt - (1.0 - theta) * matrix).tocsr()
            # For backward Euler the K term multiplies to exact zeros that
            # would otherwise stay stored and cost a full stencil matvec per
            # step.
            explicit.eliminate_zeros()
            factorization, _, _ = self.factorize(implicit, key)
            return {"factor": factorization, "explicit": explicit}

        entry, _ = self._single_flight(
            "stepper",
            key,
            lambda entry: entry if entry.explicit is not None else None,
            build,
            count_reuse=True,
        )
        return entry

    def flow(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """The design flow under ``key`` (a hash of the design content it is
        built from), built by ``build()`` when absent.  Every scenario of the
        design shares it, so it must hold no per-scenario state."""
        flow, _ = self._single_flight(
            "flow", ("flow", key), lambda entry: entry.flow, lambda: {"flow": build()}
        )
        return flow

    def basis(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """The response basis under ``key`` (see :func:`response_basis_key`),
        built by ``build()`` when absent."""
        basis, _ = self._single_flight(
            "basis", key, lambda entry: entry.basis, lambda: {"basis": build()}
        )
        return basis

    def stats(self) -> Dict[str, Any]:
        """Lifetime counters, the current entry count, the entries of each
        kind and the bytes held (flows are not counted in the bytes)."""
        with self._lock:
            entries = [entry for _, entry in self._entries.items()]
        kinds = dict.fromkeys(ENTRY_KINDS, 0)
        for entry in entries:
            kinds[entry.kind] += 1
        return {
            "built": self.built,
            "reused": self.reused,
            "entries": len(entries),
            "kinds": kinds,
            "bytes": sum(entry.nbytes for entry in entries),
        }

    def clear(self) -> None:
        """Drop every cached operator, stepper, factor, flow and basis
        (counters are kept)."""
        with self._lock:
            self._entries.clear()


#: Process-global cache shared by every solver of the process.
shared_cache = FactorizationCache()


def factorize(
    matrix: sparse.spmatrix, key: Optional[str] = None
) -> Tuple[BandedCholesky, str, bool]:
    """Factorise through the process-global cache (see
    :meth:`FactorizationCache.factorize`)."""
    return shared_cache.factorize(matrix, key)


def factorization_cache_stats() -> Dict[str, Any]:
    """Counters of the process-global cache."""
    return shared_cache.stats()


def clear_factorization_cache() -> None:
    """Drop every entry of the process-global cache (tests, memory pressure)."""
    shared_cache.clear()
