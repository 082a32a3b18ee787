"""One design flow per design content, shared by the specs of a process.

``ScenarioRunner.flow()`` takes its flow from the shared cache, keyed by
the spec's chip, mesh, network and power sections; the sweep engine and the
transient step history stay on the runner, and reduced bases in the scope
of the caller.  These tests pin both halves: specs of one design share the
flow, and sharing it changes no artifact byte, engine counter or reduced
basis, whatever the run order or thread topology.
"""

import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.campaigns import EvaluationKernel, EvaluationService, get_matrix
from repro.campaigns.cli import main
from repro.scenarios import ScenarioRunner
from repro.thermal import (
    BasisScope,
    basis_scope,
    clear_factorization_cache,
    factorization_cache_stats,
)
from repro.thermal import mesh as mesh_module

SPECS = [point.spec for point in get_matrix("workload_grid").points()]


@pytest.fixture(autouse=True)
def cold_cache():
    clear_factorization_cache()
    yield
    clear_factorization_cache()


def run(spec, collect):
    """Artifact bytes, engine counters and built bases of one spec run, in
    a new collecting scope with ``collect``."""
    runner = ScenarioRunner(spec)
    with basis_scope(BasisScope(collect=True) if collect else None) as scope:
        artifact = runner.run().to_json()
    payloads = scope.payloads() if collect else []
    return artifact, dict(runner.engine().stats), payloads


class TestIsolation:
    def test_workload_grid_is_one_design(self):
        assert len({spec.flow_hash() for spec in SPECS}) == 1
        assert len({spec.content_hash() for spec in SPECS}) == len(SPECS)

    @pytest.mark.parametrize("collect", [False, True], ids=["lu", "collect"])
    def test_spec_results_do_not_depend_on_the_specs_before_it(self, collect):
        alone = {}
        for spec in SPECS:
            clear_factorization_cache()
            alone[spec.name] = run(spec, collect)
        clear_factorization_cache()
        # Each spec runs after the specs before it, then again after every
        # other spec of its design (and itself), all on one shared flow.
        for _ in range(2):
            for spec in SPECS:
                assert run(spec, collect) == alone[spec.name], spec.name
        if collect:
            assert all(payloads for _, _, payloads in alone.values())

    def test_a_basis_serves_only_inside_its_scope(self):
        spec = SPECS[0]
        twin = spec.with_overrides({"name": "twin"})
        assert twin.flow_hash() == spec.flow_hash()
        first = ScenarioRunner(spec)
        with basis_scope(BasisScope(collect=True)) as scope:
            first.run(("transient",))
        # The twin's transient problem has the first spec's basis key, yet
        # out of the scope it runs the full-space path.
        second = ScenarioRunner(twin)
        assert second.flow() is first.flow()
        solver = second.run(("transient",)).section("transient")["solver"]
        assert solver == {"method": "lu", "rom_dim": 0, "rom_fallback": False}
        with basis_scope(scope):
            replay = ScenarioRunner(twin).run(("transient",))
        assert replay.section("transient")["solver"]["method"] == "rom"

    def test_threads_on_one_design(self):
        # The service runs kernels on a thread pool: specs of one design
        # then build and read the shared flow's memos concurrently.
        kernel = EvaluationKernel()
        alone = {}
        for spec in SPECS:
            clear_factorization_cache()
            alone[spec.name] = kernel.run(spec.to_dict())
        clear_factorization_cache()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1.0e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(kernel.run, spec.to_dict()) for spec in SPECS]
                threaded = [future.result(timeout=300) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for spec, result in zip(SPECS, threaded):
            artifact, counters, _ = result
            expected, expected_counters, _ = alone[spec.name]
            assert json.dumps(artifact, sort_keys=True) == json.dumps(
                expected, sort_keys=True
            ), spec.name
            assert counters == expected_counters

    def test_threads_building_the_mesh_get_one_mesh(self, monkeypatch):
        flow = ScenarioRunner(SPECS[0]).flow()
        architecture = type(flow.architecture)
        build_mesh = architecture.build_mesh
        barrier = threading.Barrier(2, timeout=30)
        calls = []

        def slow_build_mesh(self, **kwargs):
            calls.append(1)
            time.sleep(0.05)  # both threads are in _mesh() by now
            return build_mesh(self, **kwargs)

        def first_mesh():
            barrier.wait()
            return flow._mesh()

        monkeypatch.setattr(architecture, "build_mesh", slow_build_mesh)
        with ThreadPoolExecutor(max_workers=2) as pool:
            meshes = list(pool.map(lambda _: first_mesh(), range(2)))
        assert meshes[0] is meshes[1]
        assert len(calls) == 1


class TestKeying:
    def test_specs_differing_outside_the_design_share_the_flow(self):
        base = SPECS[0]
        flow = ScenarioRunner(base).flow()
        variants = [
            {"name": "renamed"},
            {"description": "another description"},
            {"workload.total_power_w": 3.0},
            {"trace.phases": 5},
            {"trace": None},
            {"sweep_scales": [0.5]},
        ]
        for overrides in variants:
            spec = base.with_overrides(overrides)
            assert ScenarioRunner(spec).flow() is flow, overrides

    @pytest.mark.parametrize(
        "overrides",
        [
            {"chip.die_width_mm": 11.0},
            {"mesh.ambient_c": 40.0},
            {"network.oni_count": 6},
            {"power.vcsel_power_mw": 2.5},
        ],
    )
    def test_a_design_change_gives_a_new_flow(self, overrides):
        base = SPECS[0]
        spec = base.with_overrides(overrides)
        assert spec.flow_hash() != base.flow_hash()
        assert ScenarioRunner(spec).flow() is not ScenarioRunner(base).flow()

    def test_clearing_the_cache_drops_the_flow(self):
        flow = ScenarioRunner(SPECS[0]).flow()
        assert factorization_cache_stats()["kinds"]["flow"] == 1
        clear_factorization_cache()
        assert factorization_cache_stats()["kinds"]["flow"] == 0
        assert ScenarioRunner(SPECS[0]).flow() is not flow

    def test_a_campaign_of_one_design_builds_two_meshes(self, monkeypatch):
        builds = []
        original = mesh_module.MeshBuilder.build

        def counted(builder):
            builds.append(builder)
            return original(builder)

        monkeypatch.setattr(mesh_module.MeshBuilder, "build", counted)
        for spec in SPECS:
            ScenarioRunner(spec).run()
        # The package mesh and the zoom window of the central ONI.
        assert len(builds) == 2


class TestCacheOccupancy:
    def test_entries_are_counted_by_kind(self, capsys):
        ScenarioRunner(SPECS[0]).run()
        stats = factorization_cache_stats()
        kinds = stats["kinds"]
        assert set(kinds) == {"operator", "stepper", "factor", "flow", "basis"}
        assert sum(kinds.values()) == stats["entries"]
        # The package and zoom operators, one backward-Euler stepper, the
        # flow and the package's response basis.
        assert kinds == {
            "operator": 2, "stepper": 1, "factor": 0, "flow": 1, "basis": 1
        }
        # ``repro stats`` and the service's ``/stats`` document show them.
        assert main(["stats"]) == 0
        shown = json.loads(capsys.readouterr().out)["factorization"]["kinds"]
        assert shown == kinds
        assert EvaluationService().stats_document()["factorization"]["kinds"] == kinds
