"""Stateless evaluation kernel: one validated spec in, one artifact out.

The :class:`EvaluationKernel` is the pure core every execution substrate
shares: a picklable value object mapping a validated
:class:`~repro.scenarios.spec.ScenarioSpec` to a byte-deterministic
:class:`~repro.scenarios.runner.ScenarioArtifact` plus the engine counters
of the run.  It holds **no process-global state** —
every call builds a fresh :class:`~repro.scenarios.runner.ScenarioRunner`
with its own :class:`~repro.methodology.SweepEngine`, and the design flow it
shares with other specs keeps no history — so the same kernel instance
produces byte-identical artifacts whether it runs
inline, on a thread of the evaluation service or in a supervised worker
process.  That substrate-independence is what the
executor-conformance suite (``tests/test_executor_conformance.py``) pins.

:class:`SpecExecutionError` is the failure envelope of the campaign layer:
any exception escaping a kernel call is re-raised (or quarantined) with the
failing spec's name, ``design_hash`` and attempt count attached, so a worker
failure always names its spec.
"""

from __future__ import annotations

import contextlib
import hashlib
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from .. import telemetry
from ..errors import ConfigurationError
from ..scenarios import ALL_PATHS, ScenarioRunner, ScenarioSpec, validate_paths
from ..scenarios.spec import json_digest
from ..thermal import BasisScope, basis_scope


class SpecExecutionError(ConfigurationError):
    """One spec of a campaign failed, with full provenance attached.

    Carries the scenario name, its ``design_hash`` (physical content, name
    excluded) and how many attempts the executor made, so a failure fanned
    out over any execution substrate surfaces with the same diagnostics a
    serial run would give.
    """

    def __init__(
        self,
        scenario: str,
        design_hash: str,
        attempts: int,
        error_type: str,
        message: str,
    ) -> None:
        self.scenario = scenario
        self.design_hash = design_hash
        self.attempts = attempts
        self.error_type = error_type
        super().__init__(
            f"scenario {scenario!r} (design_hash {design_hash[:12]}) failed "
            f"after {attempts} attempt(s): {error_type}: {message}"
        )


@dataclass(frozen=True)
class EvaluationKernel:
    """Pure ``spec -> artifact`` function, safe to ship to any executor.

    Parameters
    ----------
    paths:
        Analysis paths every evaluation runs, validated at construction so a
        bad path fails in the coordinator process, not deep inside a worker.
    warm_start:
        Serialised reduced-basis payloads (deterministic JSON documents, as
        :meth:`repro.thermal.BasisScope.payloads` produces them and the
        store serves them).  They are the only switch of the reduced-order
        transient path: every evaluation runs with exactly these bases in
        scope, so a transient solve replays in the reduced space when one
        of them matches its problem and runs the full-space path otherwise.
        The payloads are parsed once per kernel instance (a worker process
        gets one instance).  Part of the kernel's value: every worker
        receiving the kernel has the same bases in scope, so a warm-started
        campaign stays byte-identical across execution substrates.
    telemetry:
        Record spans and metrics during :meth:`run`.  Carried on the kernel
        (rather than read from the module switch alone) because worker
        processes do not inherit the coordinator's switch state — a pickled
        kernel deterministically re-enables telemetry wherever it lands.

    The kernel is a frozen dataclass of plain data, so it pickles cheaply
    (worker processes) and hashes/compares by value.  Subclasses
    used by the fault-injection tests override :meth:`run` to simulate
    crashing, hanging or transiently failing workers around the same pure
    core.
    """

    paths: Tuple[str, ...] = ALL_PATHS
    warm_start: Tuple[str, ...] = ()
    telemetry: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "paths", validate_paths(self.paths))
        object.__setattr__(self, "warm_start", tuple(self.warm_start))
        if not all(isinstance(payload, str) for payload in self.warm_start):
            raise ConfigurationError(
                "warm_start takes serialised payload JSON strings"
            )

    @cached_property
    def warm_start_digest(self) -> str:
        """Digest of the warm-start payloads, in order; ``""`` without any.

        Folded into the store key of every artifact a warm-started kernel
        computes (:func:`~repro.campaigns.store.artifact_key`), so reduced
        replays never answer for full-space artifacts nor for replays of
        another warm-start set.  Computed once per kernel instance.
        """
        if not self.warm_start:
            return ""
        return json_digest(
            [
                hashlib.sha256(text.encode("utf-8")).hexdigest()
                for text in self.warm_start
            ]
        )

    @cached_property
    def _bases(self) -> Optional[BasisScope]:
        """The warm-start bases, parsed on first use."""
        return BasisScope.from_payloads(self.warm_start) if self.warm_start else None

    def __getstate__(self) -> Dict[str, Any]:
        # The fields only: a process receiving the kernel parses the
        # payloads itself rather than unpickling the parsed bases.
        return {field.name: getattr(self, field.name) for field in fields(self)}

    def run(
        self, spec: Union[ScenarioSpec, Mapping[str, Any]]
    ) -> Tuple[Dict[str, Any], Dict[str, int], Optional[Dict[str, Any]]]:
        """Worker entry point: one validated spec in, plain data out.

        Takes the spec itself (a mapping is parsed through
        :meth:`~repro.scenarios.spec.ScenarioSpec.from_dict` first) and
        returns ``(artifact dict, engine counters dict, telemetry
        payload)`` — all cheap to pickle back from a worker process.
        Deterministic: the same spec always yields the identical artifact
        bytes (modulo the ``telemetry`` provenance subdict, present only
        when telemetry is on).

        The telemetry payload is the plain-data
        (:meth:`~repro.telemetry.SpanCollector.to_payload`) capture of this one
        evaluation — every span nested under a ``spec:<name>`` root, plus
        the per-call metrics registry and a wall-clock anchor — or ``None``
        while telemetry is off.
        """
        enabled = self.telemetry or telemetry.is_enabled()
        name = spec.name if isinstance(spec, ScenarioSpec) else spec.get("name")
        with (
            telemetry.enabled_scope(True) if enabled else contextlib.nullcontext()
        ), telemetry.collect() as collector:
            # Parsing the spec and serialising its artifact are work for
            # this spec too, so they run inside its span.
            with telemetry.span(f"spec:{name}") as spec_span:
                if not isinstance(spec, ScenarioSpec):
                    spec = ScenarioSpec.from_dict(dict(spec))
                if enabled:
                    spec_span.set(design_hash=spec.design_hash()[:8])
                runner = ScenarioRunner(spec)
                with basis_scope(self._bases):
                    artifact = runner.run(self.paths).to_dict()
        capture = collector.to_payload() if enabled else None
        return artifact, dict(runner.engine().stats), capture
