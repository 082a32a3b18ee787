"""Shared fixtures for the reproduction benchmarks.

Each benchmark regenerates the data behind one table or figure of the paper
(see EXPERIMENTS.md for the mapping).  The fixtures build the paper-scale
case study once per session: the Intel-SCC-like package, the 24-ONI placement
scenarios of Figure 11 and the standard activities.  Benchmarks print the
rows they produce (run pytest with ``-s`` to see them) and assert the
shape-level claims of the paper (orderings, slopes, optima locations).
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import subprocess
from pathlib import Path

import numpy
import pytest
import scipy

from repro.activity import standard_activities, uniform_activity
from repro.casestudy import (
    build_oni_ring_scenario,
    build_scc_architecture,
    build_standard_scenarios,
)
from repro.config import SimulationSettings
from repro.methodology import ThermalAwareDesignFlow

def pytest_addoption(parser):
    parser.addoption(
        "--bench-record",
        action="store_true",
        default=False,
        help=(
            "write the BENCH_*.json records at the repository root; without "
            "it a benchmark run leaves the working tree as it found it"
        ),
    )


def blas_threads() -> dict:
    """Thread count of every OpenBLAS bundled with numpy and scipy."""
    threads = {}
    for package in (numpy, scipy):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in glob.glob(str(libs / "*openblas*")):
            library = ctypes.CDLL(path)
            for symbol in (
                "scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                getter = getattr(library, symbol, None)
                if getter is not None:
                    threads[package.__name__] = getter()
                    break
    return threads


def bench_environment() -> dict:
    """Where a record's timings were taken: CPU count, interpreter and
    library versions, BLAS threads and the source revision."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
            cwd=Path(__file__).resolve().parent,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads() or os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_sha": sha,
    }


@pytest.fixture
def bench_record(request):
    """``write(path, record, sort_keys=False)``: dump ``record`` as JSON to
    ``path`` with its ``environment`` (:func:`bench_environment`), but only
    when pytest runs with ``--bench-record``."""
    enabled = request.config.getoption("--bench-record", default=False)

    def write(path, record, sort_keys=False):
        if enabled:
            stamped = {**record, "environment": bench_environment()}
            path.write_text(
                json.dumps(stamped, indent=2, sort_keys=sort_keys) + "\n",
                encoding="utf-8",
            )

    return write


#: Mesh resolutions used by the benchmarks: fine enough to resolve per-ONI
#: temperatures and device-level gradients, coarse enough to run the whole
#: harness in a few minutes.
BENCH_SETTINGS = SimulationSettings(
    oni_cell_size_um=250.0,
    die_cell_size_um=1500.0,
    zoom_cell_size_um=10.0,
    ambient_temperature_c=35.0,
)


@pytest.fixture(scope="session")
def architecture():
    """Paper-scale SCC architecture shared by all benchmarks."""
    return build_scc_architecture(settings=BENCH_SETTINGS)


@pytest.fixture(scope="session")
def scenarios(architecture):
    """The three ONI placement scenarios of Figure 11 (18 / 32.4 / 46.8 mm)."""
    return build_standard_scenarios(architecture, oni_count=24)


@pytest.fixture(scope="session")
def reference_scenario(architecture):
    """The 32.4 mm / 24-ONI scenario used for the Figure 9 / 10 sweeps."""
    return build_oni_ring_scenario(architecture, ring_length_mm=32.4, oni_count=24)


@pytest.fixture(scope="session")
def reference_flow(architecture, reference_scenario):
    """Design flow on the reference scenario (mesh and factorisation cached)."""
    return ThermalAwareDesignFlow(architecture, reference_scenario)


@pytest.fixture(scope="session")
def uniform_activity_25w(architecture):
    """Uniform 25 W chip activity."""
    return uniform_activity(architecture.floorplan, 25.0)


@pytest.fixture(scope="session")
def paper_activities(architecture):
    """Uniform / diagonal / random activities with the SCC infrastructure share."""
    return standard_activities(architecture.floorplan, 25.0)
