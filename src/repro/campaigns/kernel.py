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
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from .. import telemetry
from ..errors import ConfigurationError
from ..scenarios import (
    ALL_PATHS,
    ScenarioRunner,
    ScenarioSpec,
    validate_paths,
    validate_transient_method,
)
from ..thermal import install_payload


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
    transient_method:
        Transient integration path every evaluation uses (``"lu"``,
        ``"rom"`` or ``"auto"``; see
        :meth:`repro.thermal.TransientSolver.solve`).
    warm_start:
        Serialised reduced-basis payloads (deterministic JSON documents, as
        produced by :meth:`repro.thermal.TransientSolver.rom_payloads` or
        served by the store) installed before every evaluation.  Part of the
        kernel's value: every worker receiving the kernel installs the same
        payloads, so a warm-started campaign stays byte-identical across
        execution substrates.
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
    transient_method: str = "lu"
    warm_start: Tuple[str, ...] = ()
    telemetry: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "paths", validate_paths(self.paths))
        object.__setattr__(self, "warm_start", tuple(self.warm_start))
        validate_transient_method(self.transient_method)
        if not all(isinstance(payload, str) for payload in self.warm_start):
            raise ConfigurationError(
                "warm_start takes serialised payload JSON strings"
            )

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
                # Idempotent per process: repeated payloads are recognised
                # by digest and skipped.
                for payload in self.warm_start:
                    install_payload(payload)
                runner = ScenarioRunner(
                    spec, transient_method=self.transient_method
                )
                artifact = runner.run(self.paths).to_dict()
        capture = collector.to_payload() if enabled else None
        return artifact, dict(runner.engine().stats), capture
