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
  end, stays below :attr:`RomConfig.residual_tol`; a breach makes the
  transient solver silently redo the solve with the full LU path, so the
  golden tolerance bands can never be violated by an inadequate basis.
* **First-class cached artifacts** — a basis is keyed by a SHA-256 over the
  full problem content (operator matrix, capacitance, θ, initial field, or
  a tag for a steady start, and the per-segment step plan and loads; probes
  and snapshot times excluded).
  Bases built organically live in the owning solver; bases *installed* here
  (from an :class:`~repro.campaigns.store.ArtifactStore` record or an
  :class:`~repro.campaigns.kernel.EvaluationKernel` warm-start payload) are
  process-global, so executors can ship a prebuilt basis to workers.  A
  result is always a pure function of (request content, installed payloads),
  which keeps artifacts byte-identical across execution substrates.
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse
from scipy.linalg import lu_factor, lu_solve

from ..caching import LruCache
from ..errors import SolverError

#: Serialised-payload markers (stable across versions of the library).
PAYLOAD_FORMAT = "rom-basis"
PAYLOAD_VERSION = 1

#: Transient methods accepted end to end (solver, request, runner, CLI).
TRANSIENT_METHODS: Tuple[str, ...] = ("lu", "rom", "auto")


@dataclass(frozen=True)
class RomConfig:
    """Tuning knobs of the reduced-order transient path.

    ``max_dim`` caps the basis dimension (the POD of a 64-step paper-scale
    trace saturates around 70–80 useful directions); ``svd_tol`` is the
    relative singular-value cut of the POD truncation; ``residual_tol`` is
    the a-posteriori relative-residual bound above which a reduced solve is
    rejected and redone with the full LU path (an adequate own-trajectory
    basis sits at ~1e-9, an inadequate one at ~1e-1, so the default has
    three orders of margin on either side).
    """

    max_dim: int = 96
    svd_tol: float = 1.0e-9
    residual_tol: float = 1.0e-6

    def __post_init__(self) -> None:
        if self.max_dim < 1:
            raise SolverError("max_dim must be >= 1")
        if not 0.0 < self.svd_tol < 1.0:
            raise SolverError("svd_tol must be in (0, 1)")
        if self.residual_tol <= 0.0:
            raise SolverError("residual_tol must be positive")


DEFAULT_CONFIG = RomConfig()


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
    config: RomConfig = DEFAULT_CONFIG,
) -> ReducedBasis:
    """POD basis of a solved trajectory (columns are temperature fields).

    ``trajectory`` is ``(n_cells, n_states)`` — every step of the exact LU
    solve including the initial field; ``steady_states`` optionally appends
    the per-segment steady solutions ``K⁻¹(q + b)``, which anchor the
    long-time asymptotes the finite trajectory may not have reached.  The
    stacked snapshot matrix is column-normalised (so hot and cold states
    weigh equally) and compressed by a thin SVD truncated at
    ``config.svd_tol`` relative singular value, capped at ``config.max_dim``.
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
    rank = int(np.sum(singular > singular[0] * config.svd_tol))
    rank = max(1, min(rank, config.max_dim, snapshots.shape[0]))
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


# Installed-basis registry -----------------------------------------------------

#: Bases installed from serialized payloads (store records, kernel warm-start
#: payloads), keyed by their content key.  Process-global by design: the
#: installed population is part of the evaluation configuration — the same
#: payloads are installed in every worker — so serving from it keeps results
#: a pure function of (request, payloads) whatever the process topology.
_INSTALLED: LruCache[ReducedBasis] = LruCache(max_entries=8)

#: Digest of payload JSON documents already installed mapped to their basis
#: key, so executors that re-run the same kernel in one worker process skip
#: the multi-megabyte re-parse.
_INSTALLED_DOCUMENTS: Dict[str, str] = {}


def install_basis(basis: ReducedBasis) -> str:
    """Register a basis for lookup by content key; returns the key."""
    _INSTALLED.put(basis.key, basis)
    return basis.key


def install_payload(payload: Union[str, Mapping[str, object]]) -> str:
    """Install a basis from its payload (dict or JSON text); returns the key.

    Idempotent and cheap on repetition: a JSON document already installed by
    this process is recognised by digest and not parsed again (unless its
    basis has been evicted from the bounded registry in the meantime).
    """
    if isinstance(payload, str):
        fingerprint = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        known_key = _INSTALLED_DOCUMENTS.get(fingerprint)
        if known_key is not None and _INSTALLED.get(known_key) is not None:
            return known_key
        key = install_basis(ReducedBasis.from_payload(json.loads(payload)))
        _INSTALLED_DOCUMENTS[fingerprint] = key
        return key
    return install_basis(ReducedBasis.from_payload(payload))


def installed_basis(key: str) -> Optional[ReducedBasis]:
    """Basis installed under ``key``, or ``None``."""
    return _INSTALLED.get(key)


def installed_keys() -> List[str]:
    """Content keys of every installed basis (least recently used first)."""
    return [key for key, _ in _INSTALLED.items()]


def clear_installed_bases() -> None:
    """Drop every installed basis (tests, memory pressure)."""
    _INSTALLED.clear()
    _INSTALLED_DOCUMENTS.clear()
