"""The transient stepper prefetch of ``ScenarioRunner.run``.

When the transient path will step with direct-solver steppers the shared
cache lacks, ``run`` builds them on one daemon thread while the steady,
sweep and SNR paths run.  These tests pin its lifecycle (started only when
it helps, joined whether the run returns or raises), that it changes no
artifact byte or factorisation counter, and that its span joins the
spec's telemetry.
"""

import json
import threading
import time

import pytest

from repro.campaigns import EvaluationKernel
from repro.errors import SolverError
from repro.methodology import SweepEngine
from repro.scenarios import ScenarioRunner, default_registry
from repro.thermal import (
    FactorizationCache,
    TransientSolver,
    clear_factorization_cache,
    factorization_cache_stats,
)

SPEC = default_registry().get("small_die_uniform")

#: Engine counters fed by the transient solver's diagnostics.
TRANSIENT_COUNTERS = (
    "transient_solves",
    "transient_lu_solves",
    "factorizations_built",
    "factorizations_reused",
)


@pytest.fixture(autouse=True)
def cold_cache():
    clear_factorization_cache()
    yield
    clear_factorization_cache()


@pytest.fixture
def prefetches(monkeypatch):
    """The threads that ran ``TransientSolver.prefetch_steppers``; each
    lingers a little first, so it is still running when the paths start."""
    threads = []
    original = TransientSolver.prefetch_steppers

    def recording(self, steps):
        threads.append(threading.current_thread())
        time.sleep(0.05)
        return original(self, steps)

    monkeypatch.setattr(TransientSolver, "prefetch_steppers", recording)
    return threads


class TestLifecycle:
    def test_one_thread_joined_when_the_run_returns(self, prefetches):
        before = factorization_cache_stats()
        ScenarioRunner(SPEC).run()
        assert len(prefetches) == 1
        thread = prefetches[0]
        assert thread is not threading.main_thread() and thread.daemon
        assert not thread.is_alive()
        after = factorization_cache_stats()
        # Package, zoom window and one stepper; the transient path took the
        # prefetched stepper from the cache.
        assert after["built"] - before["built"] == 3
        assert after["kinds"]["stepper"] == 1

    def test_thread_joined_when_a_path_raises(self, prefetches, monkeypatch):
        def failing(self, request):
            raise RuntimeError("steady path failed")

        monkeypatch.setattr(SweepEngine, "evaluate_one", failing)
        with pytest.raises(RuntimeError, match="steady path failed"):
            ScenarioRunner(SPEC).run()
        assert len(prefetches) == 1
        assert not prefetches[0].is_alive()

    def test_a_failed_prefetch_raises_from_the_transient_path(
        self, prefetches, monkeypatch
    ):
        def failing(self, *args):
            raise SolverError("stepper build failed")

        monkeypatch.setattr(FactorizationCache, "stepper", failing)
        with pytest.raises(SolverError, match="stepper build failed"):
            ScenarioRunner(SPEC).run()
        assert len(prefetches) == 1
        assert not prefetches[0].is_alive()

    @pytest.mark.parametrize("method", ["rom", "auto"])
    def test_no_thread_for_the_reduced_order_methods(self, prefetches, method):
        ScenarioRunner(SPEC, transient_method=method).run()
        assert prefetches == []

    def test_no_thread_without_a_trace(self, prefetches):
        artifact = ScenarioRunner(SPEC.with_overrides({"trace": None})).run()
        assert artifact.section("transient") is None
        assert prefetches == []

    def test_no_thread_without_the_transient_path(self, prefetches):
        ScenarioRunner(SPEC).run(("steady", "sweep", "snr"))
        assert prefetches == []

    def test_no_thread_when_the_steppers_are_cached(self, prefetches):
        ScenarioRunner(SPEC).run()
        ScenarioRunner(SPEC.with_overrides({"name": "twin"})).run()
        assert len(prefetches) == 1


class TestParity:
    def test_transient_alone_matches_all_paths(self):
        alone = ScenarioRunner(SPEC)
        alone_section = alone.run(("transient",)).section("transient")
        clear_factorization_cache()
        full = ScenarioRunner(SPEC)
        full_section = full.run().section("transient")
        assert json.dumps(alone_section, sort_keys=True) == json.dumps(
            full_section, sort_keys=True
        )
        for counter in TRANSIENT_COUNTERS:
            assert alone.engine().stats[counter] == full.engine().stats[counter]
        assert full.engine().stats["factorizations_built"] == 1

    def test_artifact_matches_a_run_without_prefetch(self, monkeypatch):
        prefetched = ScenarioRunner(SPEC).run().to_json()
        clear_factorization_cache()
        monkeypatch.setattr(TransientSolver, "missing_steps", lambda *args: [])
        assert ScenarioRunner(SPEC).run().to_json() == prefetched


class TestTelemetry:
    def test_prefetch_span_lands_in_the_spec_payload(self):
        _, _, payload = EvaluationKernel(telemetry=True).run(SPEC.to_dict())
        spans = payload["spans"]
        by_id = {span["span_id"]: span for span in spans}
        prefetch = [
            span for span in spans if span["name"] == "transient.prefetch_steppers"
        ]
        assert len(prefetch) == 1
        assert prefetch[0]["attrs"] == {"steps": 1}
        root = prefetch[0]
        while root["parent_id"] is not None:
            root = by_id[root["parent_id"]]
        assert root["name"] == f"spec:{SPEC.name}"
        assert prefetch[0]["tid"] != root["tid"]
