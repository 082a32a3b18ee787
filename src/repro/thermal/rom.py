"""Reduced-order transient engine: POD bases, Galerkin stepping, caching.

The full transient solve advances ``C dT/dt = -K T + q + b`` with one sparse
triangular back-substitution per step on the ~16k-cell mesh.  This module
replaces that loop by time-stepping in a small subspace:

* **Basis construction** — a proper-orthogonal-decomposition (POD) basis is
  extracted from the *exact* LU trajectory of one full solve: every step's
  temperature field, the per-segment steady states ``K⁻¹(q + b)`` and the
  initial field are collected as columns, normalised, and compressed by a
  thin SVD truncated at a relative singular-value tolerance (and a dim cap).
  Spanning the trajectory itself is what a pure Krylov space of ``K⁻¹C``
  cannot do across this problem's µs-to-s spread of time constants; the POD
  of the real trajectory reproduces probe series to ~1e-8 relative at
  ~50–100 dimensions.
* **Galerkin stepping** — the θ-method iteration is projected once per basis
  (``Kr = VᵀKV``, ``Cr = VᵀCV``) and stepped with a dense ``r×r`` LU at
  microsecond-per-step cost; probes reduce to precomputed ``r``-vectors and
  only requested snapshots and the final field are lifted back.
* **Trust but verify** — a reduced solve is accepted only when the
  a-posteriori residual of the *full* equation, checked at every segment
  end, stays below :data:`RESIDUAL_TOL`; a breach makes the transient
  solver silently redo the solve with the full LU path, so the golden
  tolerance bands can never be violated by an inadequate basis.
* **Bases in scope** — a basis is keyed by a SHA-256 over the full problem
  content (operator matrix, capacitance, θ, initial field, or a tag for a
  steady start, and the per-segment step plan and loads; probes and
  snapshot times excluded).  A transient solve replays in the reduced space
  exactly when a basis for its key is in the :class:`BasisScope` that
  :func:`basis_scope` put in scope for the current context, and runs the
  full-space path otherwise; with no scope it skips the keying altogether.
  Building a basis is an explicit act: a solve in a *collecting* scope that
  finds no basis builds one from its exact trajectory and adds it.  An
  :class:`~repro.campaigns.kernel.EvaluationKernel` puts its warm-start set
  in scope for each run, so a result is always a pure function of (request
  content, the kernel's bases), which keeps artifacts byte-identical across
  execution substrates.
"""

from __future__ import annotations

import base64
import hashlib
import json
from contextlib import contextmanager
from contextvars import ContextVar
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np
from scipy import sparse
from scipy.linalg import lu_factor, lu_solve

from ..errors import SolverError

#: Serialised-payload markers (stable across versions of the library).
PAYLOAD_FORMAT = "rom-basis"
PAYLOAD_VERSION = 1

#: Cap on the basis dimension: the POD of a 64-step paper-scale trace
#: saturates around 70–80 useful directions.
MAX_DIM = 96

#: Relative singular-value cut of the POD truncation.
SVD_TOL = 1.0e-9

#: A-posteriori relative-residual bound above which a reduced solve is
#: rejected and redone with the full LU path.  An adequate own-trajectory
#: basis sits at ~1e-9, an inadequate one at ~1e-1, so the bound has three
#: orders of margin on either side.
RESIDUAL_TOL = 1.0e-6


class ReducedBasis:
    """An orthonormal reduction basis ``V`` (``n_cells × dim``), content-keyed.

    ``key`` is the :func:`basis_content_key` of the problem the basis was
    built for; every cache and store layer addresses the basis by it.
    """

    __slots__ = ("matrix", "key")

    def __init__(self, matrix: np.ndarray, key: str) -> None:
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] == 0 or matrix.shape[1] == 0:
            raise SolverError(
                f"a reduced basis must be a non-empty 2-D array, got shape "
                f"{matrix.shape}"
            )
        if not np.all(np.isfinite(matrix)):
            raise SolverError("a reduced basis must be finite")
        self.matrix = matrix
        self.key = str(key)

    @property
    def n_cells(self) -> int:
        """Full-space dimension the basis lifts to."""
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        """Reduced-space dimension."""
        return self.matrix.shape[1]

    def to_payload(self) -> Dict[str, object]:
        """JSON-serialisable form (store records, kernel warm-start)."""
        return {
            "format": PAYLOAD_FORMAT,
            "version": PAYLOAD_VERSION,
            "key": self.key,
            "n_cells": int(self.n_cells),
            "dim": int(self.dim),
            "data": base64.b64encode(self.matrix.tobytes()).decode("ascii"),
        }

    def to_payload_json(self) -> str:
        """Deterministic JSON document of :meth:`to_payload`."""
        return json.dumps(self.to_payload(), sort_keys=True)

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "ReducedBasis":
        """Rebuild a basis from its payload form (validating the envelope)."""
        if payload.get("format") != PAYLOAD_FORMAT:
            raise SolverError(
                f"not a reduced-basis payload (format "
                f"{payload.get('format')!r})"
            )
        if payload.get("version") != PAYLOAD_VERSION:
            raise SolverError(
                f"unsupported reduced-basis payload version "
                f"{payload.get('version')!r}"
            )
        try:
            n_cells = int(payload["n_cells"])
            dim = int(payload["dim"])
            key = str(payload["key"])
            raw = base64.b64decode(str(payload["data"]), validate=True)
        except (KeyError, ValueError, TypeError) as error:
            raise SolverError(f"malformed reduced-basis payload: {error}") from None
        expected = n_cells * dim * np.dtype(np.float64).itemsize
        if len(raw) != expected:
            raise SolverError(
                f"reduced-basis payload holds {len(raw)} bytes, expected "
                f"{expected} for a {n_cells} x {dim} basis"
            )
        matrix = np.frombuffer(raw, dtype=np.float64).reshape(n_cells, dim)
        return cls(matrix, key)


def basis_content_key(
    matrix_key: str,
    capacitance: np.ndarray,
    theta: float,
    initial_field: Union[np.ndarray, str],
    segments: Sequence[Tuple[int, float, np.ndarray]],
) -> str:
    """Content address of a reduced basis: a SHA-256 over the full problem.

    ``segments`` is the solver's integration plan — one ``(step count,
    effective dt, constant right-hand side)`` triple per schedule segment —
    so the key pins the operator, the capacitance, θ, the initial field and
    the exact load history.  Probes and snapshot times are *excluded*: they
    are outputs of the integration, not inputs to the trajectory, so one
    basis serves any instrumentation of the same physical problem.

    ``initial_field="steady"`` keys a steady start by its inputs, which the
    operator key and the first segment's load already pin, rather than by
    the bytes of its solved field: a round-off change in the factor then
    keeps every stored basis addressable.
    """
    digest = hashlib.sha256()
    digest.update(b"rom-basis-v1:")
    digest.update(matrix_key.encode("ascii"))
    digest.update(np.float64(theta).tobytes())
    digest.update(np.ascontiguousarray(capacitance, dtype=np.float64).tobytes())
    if isinstance(initial_field, str):
        # "steady" is six bytes and every array hashes a multiple of eight,
        # so the tag cannot collide with a field.
        digest.update(initial_field.encode("ascii"))
    else:
        digest.update(
            np.ascontiguousarray(initial_field, dtype=np.float64).tobytes()
        )
    for count, dt_eff, constant_rhs in segments:
        digest.update(np.int64(count).tobytes())
        digest.update(np.float64(dt_eff).tobytes())
        digest.update(
            np.ascontiguousarray(constant_rhs, dtype=np.float64).tobytes()
        )
    return digest.hexdigest()


def build_basis(
    key: str,
    trajectory: np.ndarray,
    steady_states: Optional[np.ndarray] = None,
) -> ReducedBasis:
    """POD basis of a solved trajectory (columns are temperature fields).

    ``trajectory`` is ``(n_cells, n_states)`` — every step of the exact LU
    solve including the initial field; ``steady_states`` optionally appends
    the per-segment steady solutions ``K⁻¹(q + b)``, which anchor the
    long-time asymptotes the finite trajectory may not have reached.  The
    stacked snapshot matrix is column-normalised (so hot and cold states
    weigh equally) and compressed by a thin SVD truncated at
    :data:`SVD_TOL` relative singular value, capped at :data:`MAX_DIM`.
    """
    parts = [np.asarray(trajectory, dtype=np.float64)]
    if steady_states is not None and steady_states.size:
        parts.append(np.asarray(steady_states, dtype=np.float64))
    snapshots = np.concatenate(parts, axis=1)
    norms = np.linalg.norm(snapshots, axis=0)
    keep = norms > 0.0
    if not keep.any():
        raise SolverError("cannot build a reduced basis from all-zero snapshots")
    snapshots = snapshots[:, keep] / norms[keep]
    left, singular, _ = np.linalg.svd(snapshots, full_matrices=False)
    rank = int(np.sum(singular > singular[0] * SVD_TOL))
    rank = max(1, min(rank, MAX_DIM, snapshots.shape[0]))
    return ReducedBasis(left[:, :rank], key)


class ReducedModel:
    """Galerkin projection of the conduction system onto one basis.

    Holds the projected operator ``Kr = VᵀKV`` and capacitance
    ``Cr = Vᵀ diag(C) V`` (dense ``r×r``); per-step-size dense LU steppers
    of ``Cr/dt + θKr`` are derived on demand and memoised — at ``r ≲ 100``
    they cost microseconds, so the memo only saves allocator churn.
    """

    __slots__ = ("basis", "theta", "reduced_k", "reduced_c", "_by_dt")

    def __init__(
        self,
        basis: ReducedBasis,
        conductance: sparse.spmatrix,
        capacitance: np.ndarray,
        theta: float,
    ) -> None:
        v = basis.matrix
        if conductance.shape[0] != basis.n_cells:
            raise SolverError(
                f"basis lifts to {basis.n_cells} cells but the operator has "
                f"{conductance.shape[0]}"
            )
        self.basis = basis
        self.theta = float(theta)
        self.reduced_k = v.T @ (conductance @ v)
        self.reduced_c = v.T @ (capacitance[:, None] * v)
        self._by_dt: Dict[float, Tuple[Tuple[np.ndarray, np.ndarray], np.ndarray]] = {}

    def stepper(self, dt: float) -> Tuple[Tuple[np.ndarray, np.ndarray], np.ndarray]:
        """Dense LU of the reduced implicit matrix and the reduced explicit
        matrix for step ``dt`` (memoised per distinct step size)."""
        cached = self._by_dt.get(dt)
        if cached is None:
            implicit = self.reduced_c / dt + self.theta * self.reduced_k
            explicit = self.reduced_c / dt - (1.0 - self.theta) * self.reduced_k
            cached = (lu_factor(implicit), explicit)
            self._by_dt[dt] = cached
        return cached

    def reduce(self, field: np.ndarray) -> np.ndarray:
        """Project a full-space field onto the basis (``y = Vᵀx``)."""
        return self.basis.matrix.T @ field

    def lift(self, coefficients: np.ndarray) -> np.ndarray:
        """Lift reduced coordinates back to the full space (``x = Vy``)."""
        return self.basis.matrix @ coefficients

    def step(
        self,
        stepper: Tuple[Tuple[np.ndarray, np.ndarray], np.ndarray],
        coefficients: np.ndarray,
        reduced_load: np.ndarray,
    ) -> np.ndarray:
        """One θ-method step in reduced coordinates."""
        lu_piv, explicit = stepper
        return lu_solve(lu_piv, explicit @ coefficients + reduced_load)


# Bases in scope -----------------------------------------------------------------


class BasisScope:
    """The reduced bases transient solves may replay, by content key.

    A solve under :func:`basis_scope` looks its problem's
    :func:`basis_content_key` up in :attr:`bases` and integrates in the
    reduced space exactly when a basis is there.  With ``collect`` set, a
    solve that finds none runs the full-space path, builds a basis from its
    trajectory and adds it, so a later solve of the same problem in the
    scope replays it.
    """

    __slots__ = ("bases", "collect")

    def __init__(
        self, bases: Iterable[ReducedBasis] = (), collect: bool = False
    ) -> None:
        self.bases: Dict[str, ReducedBasis] = {basis.key: basis for basis in bases}
        self.collect = collect

    @classmethod
    def from_payloads(cls, payloads: Iterable[str]) -> "BasisScope":
        """A replay-only scope of serialised payload JSON documents."""
        return cls(ReducedBasis.from_payload(json.loads(text)) for text in payloads)

    def payloads(self) -> List[str]:
        """Serialised payload of every basis in the scope, in key order."""
        return [self.bases[key].to_payload_json() for key in sorted(self.bases)]


_SCOPE: ContextVar[Optional[BasisScope]] = ContextVar("repro_rom_bases", default=None)


@contextmanager
def basis_scope(scope: Optional[BasisScope]) -> Iterator[Optional[BasisScope]]:
    """Put ``scope`` in scope for the transient solves of this context until
    the block exits; ``None`` puts no bases in scope, so every solve runs
    the full-space path.

    A thread started in a copy of this context (as
    :meth:`~repro.scenarios.runner.ScenarioRunner.run` starts its transient
    path) sees the same scope.
    """
    token = _SCOPE.set(scope)
    try:
        yield scope
    finally:
        _SCOPE.reset(token)


def active_scope() -> Optional[BasisScope]:
    """The :class:`BasisScope` of the current context, or ``None``."""
    return _SCOPE.get()


def clear_installed_bases() -> None:
    """Does nothing: no basis outlives the :func:`basis_scope` block that
    put it in scope.  Kept for callers that reset every thermal cache."""
