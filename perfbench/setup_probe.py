"""One fresh-interpreter set-up sample: ``import repro``, then build the
workload's entry objects, then print one JSON line and exit.

Usage: ``python3 perfbench/setup_probe.py <workload> <workdir>``, from the
repository root.  The parent times the whole interpreter up to that line;
the line itself splits the import from the construction.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from pathlib import Path

from common import bootstrap, construct, start_server


def _ready(started: float, imported: float) -> None:
    done = time.perf_counter()
    print(
        json.dumps(
            {
                "import_ms": (imported - started) * 1e3,
                "construct_ms": (done - imported) * 1e3,
            }
        ),
        flush=True,
    )


async def _service_ready(workdir: Path, started: float, imported: float) -> None:
    objects = construct("service_store_hits", workdir)
    server = await start_server(objects["service"], workdir / "probe.sock")
    try:
        _ready(started, imported)
    finally:
        await server.stop()


def main() -> None:
    workload, workdir = sys.argv[1], Path(sys.argv[2])
    started = time.perf_counter()
    bootstrap()
    import repro  # noqa: F401  (the import is what is being timed)

    imported = time.perf_counter()
    if workload == "service_store_hits":
        asyncio.run(_service_ready(workdir, started, imported))
    else:
        construct(workload, workdir)
        _ready(started, imported)


if __name__ == "__main__":
    main()
