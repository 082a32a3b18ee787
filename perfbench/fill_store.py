"""Fill a fresh artifact store with every spec the service workload requests.

Usage: ``python3 perfbench/fill_store.py <store_dir>``, from the repository
root.  Runs the ``workload_grid`` and ``pvcsel_heater`` campaigns serially
into the store and prints one JSON line mapping each scenario name to the
digest of its artifact, which the service responses are later checked
against.  It runs in its own process so the thermal work of filling the
store leaves neither caches nor resident memory in the load process.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from common import SERVICE_MATRICES, artifact_digest, bootstrap


def main() -> None:
    store_dir = Path(sys.argv[1])
    bootstrap()
    from repro.campaigns import ArtifactStore, CampaignRunner, get_matrix

    store = ArtifactStore(store_dir)
    digests = {}
    for name in SERVICE_MATRICES:
        report = CampaignRunner(get_matrix(name), store=store, executor="serial").run()
        if report.failures:
            raise SystemExit(f"campaign {name!r} failed: {sorted(report.failures)}")
        for scenario, artifact in report.artifacts.items():
            digests[scenario] = artifact_digest(artifact)
    print(json.dumps(digests, sort_keys=True), flush=True)


if __name__ == "__main__":
    main()
