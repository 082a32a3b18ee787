"""Shared content-keyed banded-Cholesky factorisation cache.

Both :class:`~repro.thermal.solver.SteadyStateSolver` (the conductance
matrix ``K``) and :class:`~repro.thermal.transient.TransientSolver` (one
implicit matrix ``C/dt + θK`` per distinct step size) factorise the same
kind of matrix: a symmetric positive definite 7-point stencil on a
structured grid (``K`` is symmetric by construction, and positive definite
because every well-posed boundary set has a convective or Dirichlet face).
:class:`BandedCholesky` factorises it with LAPACK's blocked banded Cholesky
(``dpbtrf``), in whichever of the natural and the reverse Cuthill–McKee
orderings gives the narrower band; on the case-study mesh that is about
2.5x cheaper than a general sparse LU.

This module is the single integration point: factorisations are keyed by a
SHA-256 over the matrix *content* (shape, sparsity pattern, values), so
every solver instance assembling the identical matrix — the 60+ scenarios
of a campaign that share a mesh pattern, or the steady and transient
solvers of one flow — pays the factorisation once per process instead of
once per instance.

The cache is process-global and bounded (LRU): a factorisation of a
paper-scale mesh holds tens of megabytes, so sweeps varying the step size
or the mesh must not accumulate them without limit; :meth:`stats` reports
the bytes held.  Reuse is numerically invisible — the factorisation is
deterministic in the matrix content, so a served factorisation yields
bit-identical solves — which is what lets the executor-conformance suite
keep pinning artifacts byte-identical whatever the process topology.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Dict, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.sparse.csgraph import reverse_cuthill_mckee

from ..caching import LruCache
from ..errors import SolverError


class BandedCholesky:
    """Banded Cholesky factor ``Pᵀ A P = Uᵀ U`` of a sparse SPD matrix.

    Only the upper triangle of ``matrix`` is read; the thermal operators
    are exactly symmetric by construction.  ``P`` is the reverse
    Cuthill–McKee permutation when it narrows the band, else the identity.
    :meth:`solve` accepts one right-hand side or a stacked
    ``(n, n_rhs)`` matrix, which is how the steady, transient and ROM
    solvers call it.

    Raises :class:`~repro.errors.SolverError` when the matrix is not
    positive definite (a singular or indefinite operator).
    """

    def __init__(self, matrix: sparse.spmatrix) -> None:
        coo = sparse.coo_matrix(matrix)
        coo.sum_duplicates()
        n = coo.shape[0]
        rows, cols = coo.row, coo.col
        permutation = reverse_cuthill_mckee(coo.tocsr(), symmetric_mode=True)
        inverse = np.empty(n, dtype=np.intp)
        inverse[permutation] = np.arange(n)
        natural = int(np.max(np.abs(rows - cols), initial=0))
        permuted = int(
            np.max(np.abs(inverse[rows] - inverse[cols]), initial=0)
        )
        if permuted < natural:
            rows, cols = inverse[rows], inverse[cols]
            self._permutation: Optional[np.ndarray] = permutation
        else:
            self._permutation = None
        bandwidth = min(natural, permuted)
        upper = rows <= cols
        # Fortran order lets LAPACK factorise in place; a C-ordered band
        # would be copied whole, doubling the peak memory of the build.
        band = np.zeros((bandwidth + 1, n), dtype=np.float64, order="F")
        band[bandwidth + rows[upper] - cols[upper], cols[upper]] = coo.data[upper]
        try:
            self._factor = cholesky_banded(
                band, overwrite_ab=True, lower=False, check_finite=False
            )
        except LinAlgError as error:
            raise SolverError(
                f"the {n}x{n} thermal operator is not positive definite "
                f"({error}); its boundary conditions or materials are "
                "ill-posed"
            ) from None
        #: Half-bandwidth of the factor, in the ordering chosen.
        self.bandwidth = bandwidth

    @property
    def nbytes(self) -> int:
        """Bytes held by the factor (band plus permutation)."""
        extra = 0 if self._permutation is None else self._permutation.nbytes
        return self._factor.nbytes + extra

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` for a vector or stacked ``(n, n_rhs)`` matrix."""
        permutation = self._permutation
        if permutation is None:
            return cho_solve_banded((self._factor, False), rhs, check_finite=False)
        solution = cho_solve_banded(
            (self._factor, False),
            np.asarray(rhs)[permutation],
            overwrite_b=True,
            check_finite=False,
        )
        result = np.empty_like(solution)
        result[permutation] = solution
        return result


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


class FactorizationCache:
    """Bounded, thread-safe cache of banded-Cholesky factors by content key."""

    def __init__(self, max_entries: int = 8) -> None:
        self._entries: LruCache[BandedCholesky] = LruCache(max_entries)
        self._lock = threading.Lock()
        #: Lifetime counters (monotone, unaffected by eviction).
        self.built = 0
        self.reused = 0

    def __len__(self) -> int:
        return len(self._entries)

    def factorize(
        self, matrix: sparse.spmatrix, key: Optional[str] = None
    ) -> Tuple[BandedCholesky, str, bool]:
        """Factorisation of ``matrix``, served from the cache when known.

        Returns ``(factorization, content key, reused)``.  Pass ``key`` when
        the caller already knows the content key (saves the re-hash); the
        factorisation itself runs outside the lock, so a rare concurrent
        build of the same matrix costs duplicated work, never corruption.
        """
        if key is None:
            key = matrix_content_key(matrix)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self.reused += 1
                return cached, key, True
        factorization = BandedCholesky(matrix)
        with self._lock:
            self._entries.put(key, factorization)
            self.built += 1
        return factorization, key, False

    def stats(self) -> Dict[str, int]:
        """Lifetime counters, the current entry count and the bytes held."""
        with self._lock:
            return {
                "built": self.built,
                "reused": self.reused,
                "entries": len(self._entries),
                "bytes": sum(
                    factor.nbytes for _, factor in self._entries.items()
                ),
            }

    def clear(self) -> None:
        """Drop every cached factorisation (counters are kept)."""
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


def factorization_cache_stats() -> Dict[str, int]:
    """Counters of the process-global cache."""
    return shared_cache.stats()


def clear_factorization_cache() -> None:
    """Drop every entry of the process-global cache (tests, memory pressure)."""
    shared_cache.clear()
