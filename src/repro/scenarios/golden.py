"""Golden-artifact comparison with per-quantity tolerances.

A golden file is a committed :class:`~repro.scenarios.runner.ScenarioArtifact`
JSON document.  :func:`compare_artifact_dicts` walks a freshly computed
artifact against a golden one and returns a list of human-readable
mismatches (empty when they agree), classifying every numeric leaf by its
key suffix so each physical quantity gets an appropriate tolerance:

==================  ===========================  ==========================
suffix              quantity                     default tolerance
==================  ===========================  ==========================
``*_c``             temperatures [degC]          rtol 1e-5, atol 1e-6
``*_db``            SNR figures [dB]             rtol 1e-4, atol 1e-4
``*_s``             times / durations [s]        rtol 1e-9, atol 1e-9
``*_mw`` / ``*_w``  powers (spec inputs)         rtol 1e-9, atol 1e-12
everything else     dimensionless                rtol 1e-6, atol 1e-9
==================  ===========================  ==========================

Keys without a known suffix inherit the class of their enclosing container;
the per-link maps keyed by communication names (``links``) are classified
as SNR explicitly.

Temperatures come out of banded Cholesky solves, so they are reproducible to far
better than 1e-5 relative on any one platform but may differ in the last few
ulps across BLAS builds; SNR is the most derived quantity (fixed points,
lineshapes, dB conversions) and gets the loosest band.  Strings, booleans,
integer pairs, nulls and the spec hash must match exactly — a spec edit
without a golden refresh therefore fails the comparison immediately, which
is what the CI golden-drift job relies on.

Solver-provenance subtrees (:data:`PROVENANCE_SUFFIXES`, currently the
``results.transient.solver`` block) are excluded from the comparison: they
record which integration path produced the numbers, and a reduced-order
replay of a golden scenario must compare clean against its full-LU golden.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional, Tuple

#: Default per-quantity tolerances, keyed by quantity class.
DEFAULT_TOLERANCES: Dict[str, Tuple[float, float]] = {
    "temperature": (1.0e-5, 1.0e-6),
    "snr": (1.0e-4, 1.0e-4),
    "time": (1.0e-9, 1.0e-9),
    "power": (1.0e-9, 1.0e-12),
    "default": (1.0e-6, 1.0e-9),
}

_SUFFIX_CLASSES = (
    ("_c", "temperature"),
    ("_db", "snr"),
    ("_s", "time"),
    ("_mw", "power"),
    ("_w", "power"),
)

#: Container keys whose *children* carry a known quantity even though the
#: child keys themselves have no suffix (e.g. per-link SNR maps keyed by
#: communication name).
_CONTAINER_CLASSES = {"links": "snr"}

#: Path suffixes of provenance subtrees: they describe *how* a result was
#: computed (which transient integration path ran, whether a reduced basis
#: was built, how long each analysis path took) rather than *what* was
#: computed, and may legitimately differ between physically identical runs —
#: a full-LU artifact and its reduced-order replay must compare clean, and a
#: telemetry-enabled run against a telemetry-off golden.  Skipped on either
#: side, so a golden recorded before the subtree existed also stays
#: comparable.
PROVENANCE_SUFFIXES = ("results.transient.solver", "results.telemetry")


def _is_provenance(path: str) -> bool:
    return any(path.endswith(suffix) for suffix in PROVENANCE_SUFFIXES)


def classify_quantity(key: str, inherited: str = "default") -> str:
    """Quantity class of a key: suffix first, container map, else inherited.

    ``inherited`` is the class of the enclosing container, so leaves keyed
    by free-form names (link names, ONI names) keep the class their
    container established instead of falling back to the default band.
    """
    for suffix, quantity in _SUFFIX_CLASSES:
        if key.endswith(suffix):
            return quantity
    if key in _CONTAINER_CLASSES:
        return _CONTAINER_CLASSES[key]
    return inherited


def _close(
    reference: float, fresh: float, rtol: float, atol: float
) -> bool:
    if math.isnan(reference) or math.isnan(fresh):
        return math.isnan(reference) and math.isnan(fresh)
    if math.isinf(reference) or math.isinf(fresh):
        return reference == fresh
    return abs(reference - fresh) <= atol + rtol * abs(reference)


def compare_artifact_dicts(
    reference: Mapping[str, Any],
    fresh: Mapping[str, Any],
    tolerances: Optional[Mapping[str, Tuple[float, float]]] = None,
) -> List[str]:
    """Mismatches between a golden artifact dict and a fresh one.

    Returns human-readable descriptions (``path: detail``); an empty list
    means the artifacts agree within tolerance.  Structure (keys, lengths,
    types) and non-float leaves must match exactly.
    """
    bands = dict(DEFAULT_TOLERANCES)
    if tolerances:
        bands.update(tolerances)
    mismatches: List[str] = []

    def walk(ref: Any, new: Any, path: str, quantity: str) -> None:
        if isinstance(ref, Mapping) and isinstance(new, Mapping):
            missing = sorted(
                key for key in set(ref) - set(new)
                if not _is_provenance(f"{path}.{key}")
            )
            extra = sorted(
                key for key in set(new) - set(ref)
                if not _is_provenance(f"{path}.{key}")
            )
            if missing:
                mismatches.append(f"{path}: missing keys {missing}")
            if extra:
                mismatches.append(f"{path}: unexpected keys {extra}")
            for key in sorted(set(ref) & set(new)):
                child = f"{path}.{key}"
                if _is_provenance(child):
                    continue
                walk(
                    ref[key],
                    new[key],
                    child,
                    classify_quantity(key, inherited=quantity),
                )
            return
        if isinstance(ref, list) and isinstance(new, list):
            if len(ref) != len(new):
                mismatches.append(
                    f"{path}: length {len(new)} != golden {len(ref)}"
                )
                return
            for index, (ref_item, new_item) in enumerate(zip(ref, new)):
                walk(ref_item, new_item, f"{path}[{index}]", quantity)
            return
        # bool is an int subclass: compare it exactly, before the float path.
        if isinstance(ref, bool) or isinstance(new, bool):
            if ref is not new:
                mismatches.append(f"{path}: {new!r} != golden {ref!r}")
            return
        # Integer pairs (counts, sizes, versions) compare exactly.
        if isinstance(ref, int) and isinstance(new, int):
            if ref != new:
                mismatches.append(f"{path}: {new!r} != golden {ref!r}")
            return
        if isinstance(ref, (int, float)) and isinstance(new, (int, float)):
            rtol, atol = bands.get(quantity, bands["default"])
            if not _close(float(ref), float(new), rtol, atol):
                mismatches.append(
                    f"{path}: {new!r} != golden {ref!r} "
                    f"({quantity}: rtol={rtol:g}, atol={atol:g})"
                )
            return
        if ref != new:
            mismatches.append(f"{path}: {new!r} != golden {ref!r}")

    walk(dict(reference), dict(fresh), "artifact", "default")
    return mismatches
