"""Shared pieces of the benchmark: environment bootstrap, workload entry
objects and artifact digests.

Every benchmark process (the load process, the fresh-interpreter set-up
probes and the store-preparation child) starts with :func:`bootstrap`, so
all of them import the ``repro`` package from the checkout's ``src/`` tree
with single-threaded BLAS.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, Mapping

#: The three workloads, in the order ``--workload all`` runs them.
WORKLOADS = ("case_study_cold", "campaign_shared_mesh", "service_store_hits")

#: Registered scenario of the cold case-study workload.
CASE_STUDY = "scc_case_study"

#: Built-in matrix each campaign op runs.
CAMPAIGN_MATRIX = "workload_grid"

#: Matrices whose specs the service workload's store is filled with.
SERVICE_MATRICES = ("workload_grid", "pvcsel_heater")

#: Scratch tree of a run (stores, unix socket, trace dumps), relative to the
#: checkout root so socket paths stay short whatever the checkout path.
RUN_DIR = Path(".perfbench_run")


class MissingProgram(RuntimeError):
    """The checkout holds no program to benchmark."""


def bootstrap() -> None:
    """Pin BLAS to one thread and put ``src/`` first on the import path.

    Must run before ``numpy`` is imported: OpenBLAS reads its thread count
    once, when the library loads.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    src = Path("src").resolve()
    if not (src / "repro" / "__init__.py").is_file():
        raise MissingProgram(
            f"no repro package under {src}; run from the repository root"
        )
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def artifact_digest(artifact: Mapping[str, Any]) -> str:
    """SHA-256 over the sorted-key JSON of one artifact dict."""
    text = json.dumps(artifact, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def construct(workload: str, workdir: Path) -> Dict[str, Any]:
    """Build the entry objects one op of ``workload`` needs.

    The set-up probes time exactly this (plus ``import repro``), and the
    load process builds its objects through it too.  The service entry
    objects need an event loop for the socket bind; see
    :func:`start_server`.
    """
    from repro.campaigns import (
        ArtifactStore,
        CampaignRunner,
        EvaluationKernel,
        EvaluationService,
        get_matrix,
    )

    if workload == "case_study_cold":
        from repro.scenarios import default_registry

        return {
            "kernel": EvaluationKernel(),
            "spec": default_registry().get(CASE_STUDY),
        }
    if workload == "campaign_shared_mesh":
        store = ArtifactStore(workdir / "store")
        runner = CampaignRunner(
            get_matrix(CAMPAIGN_MATRIX), store=store, executor="serial"
        )
        return {"store": store, "runner": runner}
    if workload == "service_store_hits":
        store = ArtifactStore(workdir / "store")
        return {"store": store, "service": EvaluationService(store=store, concurrency=2)}
    raise ValueError(f"unknown workload {workload!r}; known: {list(WORKLOADS)}")


async def start_server(service: Any, socket_path: Path) -> Any:
    """Bind a :class:`~repro.campaigns.ServiceServer` on a unix socket only."""
    from repro.campaigns import ServiceServer

    socket_path.parent.mkdir(parents=True, exist_ok=True)
    server = ServiceServer(service, host=None, socket_path=socket_path)
    await server.start()
    return server
