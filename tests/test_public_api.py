"""Smoke tests of the public API surface.

These tests guard the names re-exported from ``repro`` (the documented entry
points of the library) and the README quickstart flow on a tiny configuration.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import repro


class TestPublicApi:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") >= 1

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"{name} listed in __all__ but missing"

    def test_key_entry_points_exported(self):
        for name in (
            "ThermalAwareDesignFlow",
            "build_scc_architecture",
            "build_oni_ring_scenario",
            "build_standard_scenarios",
            "OniPowerConfig",
            "LaserDriveConfig",
            "SnrAnalyzer",
            "MeshBuilder",
            "SteadyStateSolver",
            "ZoomSolver",
            "VcselModel",
            "MicroringModel",
            "uniform_activity",
            "standard_activities",
            "format_table",
        ):
            assert name in repro.__all__

    def test_import_leaves_scipy_optimize_unloaded(self):
        # scipy.optimize takes a large share of the import time; the two
        # functions needing it import it when called.
        code = (
            "import sys, repro; "
            "print(any(m.split('.')[:2] == ['scipy', 'optimize'] for m in sys.modules))"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        assert result.stdout.strip() == "False"

    def test_exceptions_derive_from_repro_error(self):
        from repro.errors import (
            AnalysisError,
            ConfigurationError,
            DeviceError,
            GeometryError,
            MaterialError,
            MeshError,
            NetworkError,
            ReproError,
            SolverError,
        )

        for exc in (
            GeometryError,
            MaterialError,
            MeshError,
            SolverError,
            DeviceError,
            NetworkError,
            AnalysisError,
            ConfigurationError,
        ):
            assert issubclass(exc, ReproError)


class TestReadmeQuickstart:
    def test_quickstart_flow_on_small_configuration(self, small_flow, uniform_25w):
        """The README quickstart, on the shared coarse fixtures."""
        power = repro.OniPowerConfig(vcsel_power_w=3.6e-3).with_heater_ratio(0.3)
        result = small_flow.evaluate_design_point(
            uniform_25w, power, drive=repro.LaserDriveConfig.from_dissipated_mw(3.6)
        )
        assert result.thermal.average_oni_temperature_c > 35.0
        assert result.gradient_c >= 0.0
        assert result.worst_case_snr_db > 0.0
        assert result.snr.all_detected
