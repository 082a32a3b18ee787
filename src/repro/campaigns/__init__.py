"""Campaigns: scenario matrices, pluggable executors, a disk artifact store.

The campaign layer makes the scenario population *generative*, the
execution substrate *pluggable* and the replays *incremental*: a
:class:`ScenarioMatrix` expands a base :class:`~repro.scenarios.ScenarioSpec`
over declared axes into deduplicated concrete specs; the
:class:`CampaignRunner` composes the pure :class:`EvaluationKernel` with an
:class:`Executor` strategy (serial, or supervised worker processes with crash
retry); and the content-addressed :class:`ArtifactStore` persists every
artifact on disk so re-running a campaign only computes specs whose content
hash is new.  The process executor is pinned byte-identical to serial by the
executor-conformance suite.  The :class:`EvaluationService` keeps all of
this resident behind an asyncio HTTP/unix-socket server with spec-hash
request coalescing (``python -m repro serve``).  ``python -m repro``
exposes the whole layer on the command line (``run --executor ...`` /
``list`` / ``show`` / ``diff`` / ``serve``).  See
``docs/architecture.md`` ("Execution kernel", "Evaluation service").
"""

from .executors import (
    EXECUTOR_NAMES,
    ExecutionResult,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    WorkItem,
    make_executor,
)
from .kernel import EvaluationKernel, SpecExecutionError
from .matrix import (
    GOLDEN_REPRESENTATIVES,
    CampaignPoint,
    MatrixAxis,
    ScenarioMatrix,
    axis_label,
    builtin_matrices,
    campaign_registry,
    get_matrix,
    golden_representative_specs,
    register_golden_representatives,
)
from .runner import (
    CampaignReport,
    CampaignRunner,
    run_campaign,
    scenario_metrics,
)
from .service import EvaluationService, ServiceServer
from .store import STORE_VERSION, ArtifactStore, StoreEntry, StoreStats

__all__ = [
    "EXECUTOR_NAMES",
    "GOLDEN_REPRESENTATIVES",
    "STORE_VERSION",
    "ArtifactStore",
    "CampaignPoint",
    "CampaignReport",
    "CampaignRunner",
    "EvaluationKernel",
    "EvaluationService",
    "ExecutionResult",
    "Executor",
    "MatrixAxis",
    "ProcessExecutor",
    "ScenarioMatrix",
    "SerialExecutor",
    "ServiceServer",
    "SpecExecutionError",
    "StoreEntry",
    "StoreStats",
    "WorkItem",
    "axis_label",
    "builtin_matrices",
    "campaign_registry",
    "get_matrix",
    "golden_representative_specs",
    "make_executor",
    "register_golden_representatives",
    "run_campaign",
    "scenario_metrics",
]
