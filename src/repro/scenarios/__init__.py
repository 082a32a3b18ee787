"""Declarative scenarios: specs, registry, runner and golden comparison.

Define a chip / ORNoC / workload configuration once as a JSON-serialisable
:class:`ScenarioSpec`, replay it through every engine of the library with
:class:`ScenarioRunner`, and pin its numeric outputs with the golden
regression helpers.  See ``docs/architecture.md`` ("Scenario subsystem") and
the README authoring guide.
"""

from .golden import DEFAULT_TOLERANCES, classify_quantity, compare_artifact_dicts
from .registry import ScenarioRegistry, builtin_scenarios, default_registry
from .runner import (
    ALL_PATHS,
    SETTLING_TOLERANCE_C,
    ScenarioArtifact,
    ScenarioRunner,
    build_trace,
    build_workload,
    collect_bases,
    run_scenario,
    validate_paths,
)
from .spec import (
    SCHEMA_VERSION,
    ChipSpec,
    MeshSpec,
    NetworkSpec,
    PowerSpec,
    ScenarioSpec,
    TraceSpec,
    WorkloadSpec,
    canonical_json,
    json_digest,
    scenario_json_schema,
)

__all__ = [
    "ALL_PATHS",
    "SCHEMA_VERSION",
    "SETTLING_TOLERANCE_C",
    "ChipSpec",
    "MeshSpec",
    "NetworkSpec",
    "PowerSpec",
    "ScenarioSpec",
    "TraceSpec",
    "WorkloadSpec",
    "ScenarioRegistry",
    "ScenarioRunner",
    "ScenarioArtifact",
    "builtin_scenarios",
    "default_registry",
    "collect_bases",
    "run_scenario",
    "validate_paths",
    "build_workload",
    "build_trace",
    "canonical_json",
    "json_digest",
    "scenario_json_schema",
    "DEFAULT_TOLERANCES",
    "classify_quantity",
    "compare_artifact_dicts",
]
