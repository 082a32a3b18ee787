"""The coarse response basis: small designs' steady fields as ``T0 + G p``.

A design flow whose basis columns times coarse cells are within
``BASIS_CELL_COLUMNS`` superposes every coarse field from one shared
:class:`~repro.thermal.solver.ResponseBasis` instead of solving it.  These
tests pin that the superposed field is the solved one to round-off, that a
spec's artifact does not depend on which specs or processes built the basis,
that the paper-scale case study stays on the direct path, that bad powers
fail as they do on the direct path, and that the cache shows the basis.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro import telemetry
from repro.activity import ActivityPattern
from repro.campaigns import CampaignRunner, MatrixAxis, ScenarioMatrix, get_matrix
from repro.errors import GeometryError, SolverError
from repro.methodology import flow as flow_module
from repro.methodology.flow import ThermalAwareDesignFlow, ThermalRequest
from repro.oni import OniPowerConfig
from repro.scenarios import ScenarioRunner, builtin_scenarios, run_scenario
from repro.thermal import clear_factorization_cache, factorization_cache_stats
from repro.thermal.factorization import shared_cache

GRID_SPECS = [point.spec for point in get_matrix("workload_grid").points()]
BUILTINS = {spec.name: spec for spec in builtin_scenarios()}

#: Small-die specs over two power levels and two workloads: two flows (the
#: power section is part of a flow's design) that share one basis.
SHARED_BASIS_MATRIX = ScenarioMatrix(
    name="shared_basis",
    description="Two operating points crossed with two workloads on the small die",
    base=GRID_SPECS[0].with_overrides({"name": "shared_basis_base"}),
    axes=(
        MatrixAxis(name="kind", path="workload.kind", values=("uniform", "hotspot")),
        MatrixAxis(name="pvcsel", path="power.vcsel_power_mw", values=(3.6, 4.8)),
    ),
)


@pytest.fixture(autouse=True)
def cold_cache():
    clear_factorization_cache()
    yield
    clear_factorization_cache()


def solved(flow, request):
    """The coarse field of ``request`` solved through the factor."""
    sources = flow.source_batch(request.activity, request.power)
    return flow._solver().solve(sources).temperatures_c


def direct_flow(flow):
    """A flow of the same design that solves every coarse field."""
    direct = ThermalAwareDesignFlow(flow.architecture, flow.scenario)
    direct._basis_cache = (None,)
    return direct


def basis_entries():
    return [entry for _, entry in shared_cache._entries.items() if entry.kind == "basis"]


class TestSuperposition:
    def test_every_workload_grid_field_matches_the_solve(self):
        worst = 0.0
        for spec in GRID_SPECS:
            runner = ScenarioRunner(spec)
            flow = runner.flow()
            requests = runner._sweep_requests() + [
                ThermalRequest(activity=runner.activity(), power=None, zoom_oni=None)
            ]
            for request, evaluation in zip(requests, flow.run_thermal_many(requests)):
                difference = evaluation.thermal_map.temperatures_c - solved(flow, request)
                worst = max(worst, float(np.abs(difference).max()))
        assert worst <= 1e-10
        # One basis served all of them.
        assert len(basis_entries()) == 1

    def test_onis_with_their_own_operating_points_are_served(self):
        flow = ScenarioRunner(GRID_SPECS[0]).flow()
        # Two operating points, alternating around the ring.
        onis = [
            oni.with_power(OniPowerConfig(vcsel_power_w=1e-3 * (2 + index % 2)))
            for index, oni in enumerate(flow.scenario.onis)
        ]
        mixed = ThermalAwareDesignFlow(flow.architecture, replace(flow.scenario, onis=onis))
        activity = ScenarioRunner(GRID_SPECS[0]).activity()
        for power in (None, OniPowerConfig(heater_power_w=0.0)):
            request = ThermalRequest(activity=activity, power=power, zoom_oni=None)
            field = mixed.run_thermal_many([request])[0].thermal_map.temperatures_c
            np.testing.assert_allclose(field, solved(mixed, request), rtol=0, atol=1e-10)
        # One column per kind for each operating point.
        assert mixed._basis_columns().devices == tuple(
            (group, kind) for group in range(2) for kind in range(3)
        )


def campaign_artifacts(executor):
    clear_factorization_cache()
    report = CampaignRunner(SHARED_BASIS_MATRIX, executor=executor, workers=2).run()
    return {name: json.dumps(artifact, sort_keys=True) for name, artifact in report.artifacts.items()}


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_a_lone_spec_matches_its_campaign_byte_for_byte(executor):
    in_campaign = campaign_artifacts(executor)
    for point in SHARED_BASIS_MATRIX.points():
        clear_factorization_cache()
        alone = json.dumps(run_scenario(point.spec).to_dict(), sort_keys=True)
        assert alone == in_campaign[point.spec.name], point.spec.name


class TestDesignRule:
    def test_the_case_study_builds_no_basis(self):
        runner = ScenarioRunner(BUILTINS["scc_case_study"])
        assert runner.flow()._basis_columns() is None
        runner.run(("steady",))
        assert factorization_cache_stats()["kinds"]["basis"] == 0

    @pytest.mark.parametrize(
        "name, uses_basis",
        [
            ("small_die_uniform", True),
            ("small_die_hotspot", True),
            ("scc_uniform_18mm", False),
            ("scc_diagonal_32mm", False),
            ("scc_random_46mm", False),
        ],
    )
    def test_columns_times_cells_decide(self, name, uses_basis):
        flow = ScenarioRunner(BUILTINS[name]).flow()
        columns = flow._basis_columns()
        assert (columns is not None) is uses_basis
        if columns is not None:
            cells = flow._mesh().n_cells
            assert (1 + len(columns.shapes)) * cells <= flow_module.BASIS_CELL_COLUMNS


class TestBadPowers:
    """A basis design fails, or drops a row, exactly where a direct solve does."""

    @staticmethod
    def outcome(flow, activity, power=None):
        request = ThermalRequest(activity=activity, power=power, zoom_oni=None)
        try:
            return flow.run_thermal_many([request])[0].thermal_map.temperatures_c
        except Exception as error:  # noqa: BLE001 - the type is the outcome
            return type(error)

    def compare(self, activity, power=None):
        flow = ScenarioRunner(GRID_SPECS[0]).flow()
        assert flow._basis_columns() is not None
        superposed = self.outcome(flow, activity, power)
        direct = self.outcome(direct_flow(flow), activity, power)
        if isinstance(direct, type):
            assert superposed is direct
        else:
            np.testing.assert_allclose(superposed, direct, rtol=0, atol=1e-10)
        return superposed

    def test_a_nan_tile_power_fails_as_a_solve_does(self):
        activity = ActivityPattern("nan", {"tile_0_0": float("nan"), "tile_1_0": 2.0})
        assert self.compare(activity) is SolverError

    def test_an_infinite_tile_power_fails_as_a_solve_does(self):
        activity = ActivityPattern("inf", {"tile_0_0": float("inf")})
        assert self.compare(activity) is SolverError

    def test_a_negative_tile_power_is_dropped_as_a_solve_drops_it(self):
        activity = ActivityPattern("negative", {"tile_0_0": 1.0, "tile_1_0": 2.0})
        # Past the pattern's own check, which rejects it on construction.
        activity.tile_powers_w["tile_0_0"] = -1.0
        assert isinstance(self.compare(activity), np.ndarray)

    def test_an_unknown_tile_fails_as_a_solve_does(self):
        activity = ActivityPattern("unknown", {"no_such_tile": 1.0})
        assert self.compare(activity) is GeometryError

    def test_a_nan_device_power_is_dropped_as_a_solve_drops_it(self):
        activity = ActivityPattern("uniform", {"tile_0_0": 1.0})
        power = OniPowerConfig(vcsel_power_w=float("nan"), heater_power_w=1e-3)
        assert isinstance(self.compare(activity, power), np.ndarray)


class TestObservability:
    def test_the_cache_counts_the_basis_and_its_bytes(self):
        runner = ScenarioRunner(GRID_SPECS[0])
        runner.run(("steady",))
        stats = factorization_cache_stats()
        assert stats["kinds"]["basis"] == 1
        (entry,) = basis_entries()
        cells = runner.flow()._mesh().n_cells
        # T0, six tiles and three device kinds, float64.
        assert entry.nbytes == 10 * cells * 8
        entries = [entry for _, entry in shared_cache._entries.items()]
        assert stats["bytes"] == sum(entry.nbytes for entry in entries)

    def test_the_build_is_one_tagged_span(self):
        with telemetry.enabled_scope(True), telemetry.collect() as collector:
            ScenarioRunner(GRID_SPECS[0]).run(("steady", "sweep"))
        spans = [span for span in collector.spans if span.name == "thermal.basis"]
        assert len(spans) == 1
        assert spans[0].attrs == {"cells": 3_179, "columns": 10}
