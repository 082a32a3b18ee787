"""The concurrent transient path of ``ScenarioRunner.run``.

``run`` runs the transient path (integration, time-resolved SNR and its
artifact section) as one task on a daemon thread while the steady, sweep
and SNR paths run on the calling thread.  These tests pin its lifecycle
(one thread exactly when there is a transient path to run, joined whether
the run returns or raises, errors reaching the caller), that it changes no
artifact byte, engine counter or factorisation build against the task run
inline, and that its span and wall times join the spec's telemetry.
"""

import json
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro import telemetry
from repro.campaigns import EvaluationKernel
from repro.errors import SolverError
from repro.methodology import SweepEngine
from repro.scenarios import ScenarioRunner, default_registry
from repro.scenarios import runner as runner_module
from repro.thermal import (
    BasisScope,
    FactorizationCache,
    basis_scope,
    clear_factorization_cache,
    factorization_cache_stats,
)
from repro.thermal.factorization import BandedCholesky, shared_cache

SPEC = default_registry().get("small_die_uniform")
#: Basis scopes a run can be in: none (the default), a replay scope holding
#: no basis (the solve keys its basis, finds none and runs LU) and a
#: collecting one (the solve builds a basis).
SCOPES = ("none", "empty", "collect")


def _scope(kind):
    return None if kind == "none" else BasisScope(collect=kind == "collect")

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
def threads(monkeypatch):
    """Every thread the runner starts."""
    started = []

    class Recording(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(runner_module, "threading", SimpleNamespace(Thread=Recording))
    return started


class _InlineThread:
    """Stands in for ``threading.Thread`` in the runner: ``start`` runs the
    task on the calling thread, so the transient path runs before the others."""

    def __init__(self, target, args, name, daemon):
        self._target, self._args = target, args

    def start(self):
        self._target(*self._args)

    def join(self):
        pass


@pytest.fixture
def fast_switching():
    """Switch threads every 10 µs, so unsynchronised state shows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(interval)


def _failing(error):
    def fail(*args, **kwargs):
        raise error

    return fail


class TestLifecycle:
    @pytest.mark.parametrize("kind", SCOPES)
    def test_one_daemon_thread_joined_when_the_run_returns(self, threads, kind):
        with basis_scope(_scope(kind)):
            ScenarioRunner(SPEC).run()
        assert len(threads) == 1
        thread = threads[0]
        assert thread is not threading.main_thread() and thread.daemon
        assert not thread.is_alive()

    def test_one_thread_per_spec_with_cached_steppers_too(self, threads):
        ScenarioRunner(SPEC).run()
        ScenarioRunner(SPEC.with_overrides({"name": "twin"})).run()
        assert [thread.name for thread in threads] == [
            f"transient:{SPEC.name}",
            "transient:twin",
        ]

    def test_no_thread_without_a_trace(self, threads):
        artifact = ScenarioRunner(SPEC.with_overrides({"trace": None})).run()
        assert artifact.section("transient") is None
        assert threads == []

    def test_no_thread_without_the_transient_path(self, threads):
        artifact = ScenarioRunner(SPEC).run(("steady", "sweep", "snr"))
        assert "transient" not in artifact.results
        assert threads == []

    def test_thread_joined_when_the_steady_path_raises(self, threads, monkeypatch):
        monkeypatch.setattr(
            SweepEngine, "evaluate_one", _failing(RuntimeError("steady path failed"))
        )
        with pytest.raises(RuntimeError, match="steady path failed"):
            ScenarioRunner(SPEC).run()
        assert len(threads) == 1
        assert not threads[0].is_alive()

    def test_a_transient_error_reaches_the_caller(self, threads, monkeypatch):
        monkeypatch.setattr(
            FactorizationCache, "stepper", _failing(SolverError("stepper build failed"))
        )
        with pytest.raises(SolverError, match="stepper build failed"):
            ScenarioRunner(SPEC).run()
        assert len(threads) == 1
        assert not threads[0].is_alive()

    def test_the_calling_threads_error_wins_when_both_fail(self, threads, monkeypatch):
        failed = []

        def failing_stepper(*args):
            failed.append(threading.current_thread())
            raise SolverError("stepper build failed")

        monkeypatch.setattr(FactorizationCache, "stepper", failing_stepper)
        monkeypatch.setattr(
            SweepEngine, "evaluate_one", _failing(RuntimeError("steady path failed"))
        )
        with pytest.raises(RuntimeError, match="steady path failed"):
            ScenarioRunner(SPEC).run()
        assert failed == threads and not threads[0].is_alive()


def _run(kind):
    """Artifact bytes, engine counters and cache builds of one cold run."""
    clear_factorization_cache()
    before = factorization_cache_stats()["built"]
    runner = ScenarioRunner(SPEC)
    with basis_scope(_scope(kind)):
        artifact = runner.run().to_json()
    built = factorization_cache_stats()["built"] - before
    return artifact, dict(runner.engine().stats), built


class TestParity:
    @pytest.mark.parametrize("kind", SCOPES)
    def test_concurrent_run_matches_the_task_run_inline(
        self, kind, monkeypatch, fast_switching
    ):
        concurrent = _run(kind)
        monkeypatch.setattr(
            runner_module, "threading", SimpleNamespace(Thread=_InlineThread)
        )
        assert _run(kind) == concurrent

    def test_both_paths_share_the_runners_one_engine(self, monkeypatch):
        built = []
        original = SweepEngine.__init__

        def slow(self, *args, **kwargs):
            built.append(self)
            time.sleep(0.05)  # wide enough for a second thread to build one too
            original(self, *args, **kwargs)

        monkeypatch.setattr(SweepEngine, "__init__", slow)
        runner = ScenarioRunner(SPEC)
        runner.run()
        assert built == [runner.engine()]

    @pytest.mark.parametrize("kind", SCOPES)
    def test_the_paths_write_disjoint_engine_counters(self, kind, fast_switching):
        """The two threads share the engine's ``stats`` dict; each counter is
        written by one of them only, and a store to a key the dict already
        holds never resizes it, so their ``stats[x] += 1`` cannot race."""
        writes = {}

        class Recording(dict):
            def __setitem__(self, key, value):
                writes.setdefault(threading.current_thread().name, set()).add(key)
                super().__setitem__(key, value)

        runner = ScenarioRunner(SPEC)
        engine = runner.engine()
        engine.stats = Recording(engine.stats)
        with basis_scope(_scope(kind)):
            runner.run()
            runner.run()  # served from the engine's caches: the hit counters
        calling = writes.pop(threading.current_thread().name)
        transient = writes.pop(f"transient:{SPEC.name}")
        assert writes == {}
        assert calling and transient and not calling & transient

    def test_runners_sharing_a_design_on_threads_match_serial_runs(
        self, fast_switching
    ):
        """Four specs of one design on four threads, each with its transient
        thread (eight threads sharing one flow and one cache), give the
        artifacts and engine counters of running them one by one."""
        specs = [
            SPEC.with_overrides(
                {"name": f"mate{index}", "workload.total_power_w": 6.0 + index}
            )
            for index in range(4)
        ]
        runs = list(zip(specs, SCOPES + ("none",)))

        def outcome(spec, kind, into):
            runner = ScenarioRunner(spec)
            with basis_scope(_scope(kind)):
                artifact = runner.run().to_json()
            into[spec.name] = (artifact, dict(runner.engine().stats))

        serial = {}
        for spec, kind in runs:
            outcome(spec, kind, serial)
        clear_factorization_cache()
        concurrent = {}
        threads = [
            threading.Thread(target=outcome, args=(*run, concurrent)) for run in runs
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert concurrent == serial

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


def _recording(events, name, original):
    """``original``, appending ``name`` to ``events`` on every call."""

    def call(*args, **kwargs):
        events.append(name)
        return original(*args, **kwargs)

    return call


def _record_solves(events, monkeypatch):
    """Append ``"stepper"`` to ``events`` per stepper lookup and the factor
    of every :meth:`BandedCholesky.solve`."""
    monkeypatch.setattr(
        FactorizationCache,
        "stepper",
        _recording(events, "stepper", FactorizationCache.stepper),
    )
    solve = BandedCholesky.solve

    def recording_solve(factor, rhs):
        events.append(factor)
        return solve(factor, rhs)

    monkeypatch.setattr(BandedCholesky, "solve", recording_solve)


def _kinds(events, flow):
    """``events`` with each factor named: ``"steady"`` for the package
    operator's, ``"step"`` for a stepper's."""
    entry = shared_cache.operator(
        flow.transient_solver().mesh, flow.architecture.boundary_conditions()
    )
    package, _, _ = shared_cache.factorize(entry.operator.matrix, entry.key)
    return [
        event if isinstance(event, str) else "steady" if event is package else "step"
        for event in events
    ]


class TestOrdering:
    """The transient task steps a steady start without waiting on the
    package factor; it solves the start itself once the steps are done."""

    @pytest.mark.parametrize("kind", SCOPES)
    def test_a_steady_start_is_solved_after_every_lu_step(self, kind, monkeypatch):
        runner = ScenarioRunner(SPEC)
        flow = runner.flow()
        schedule = flow.build_schedule(runner.trace(), runner.power_config())
        solver = flow.transient_solver()
        first_segment = solver._segment_steps(schedule, SPEC.trace.dt_s)[0][1]
        events = []
        _record_solves(events, monkeypatch)
        with basis_scope(_scope(kind)):
            result = solver.solve(
                schedule,
                SPEC.trace.dt_s,
                initial_temperature_c="steady",
                snapshot_times_s=(0.0,),
            )
        kinds = _kinds(events, flow)
        steps = result.diagnostics.steps - first_segment
        assert steps > 0
        ordered = ["stepper"] * len(schedule) + ["step"] * steps + ["steady"]
        # The basis key tags a steady start, so with no basis to replay
        # every scope steps first; a collecting one then solves the steady
        # states its new basis spans.
        assert kinds[: len(ordered)] == ordered
        assert kind == "collect" or kinds == ordered
        monkeypatch.undo()
        steady = flow._solver().solve(schedule.segments[0].sources)
        start = result.snapshots[0].thermal_map.temperatures_c
        assert start.tobytes() == steady.temperatures_c.tobytes()

    def test_the_runner_solves_a_steady_start_after_its_steps(self, monkeypatch):
        events = []
        _record_solves(events, monkeypatch)
        assert SPEC.trace.initial == "steady"
        runner = ScenarioRunner(SPEC)
        runner.run(("transient",))
        kinds = _kinds(events, runner.flow())
        steppers = kinds.count("stepper")
        steps = kinds.count("step")
        assert steppers > 0 and steps > 0
        assert kinds == ["stepper"] * steppers + ["step"] * steps + ["steady"]


class TestTelemetry:
    def test_transient_span_sits_under_the_spec_on_another_thread(self):
        _, _, payload = EvaluationKernel(telemetry=True).run(SPEC.to_dict())
        spans = payload["spans"]
        by_id = {span["span_id"]: span for span in spans}
        by_name = {span["name"]: span for span in spans}
        transient = by_name["path.transient"]
        root = transient
        while root["parent_id"] is not None:
            root = by_id[root["parent_id"]]
        assert root["name"] == f"spec:{SPEC.name}"
        assert transient["parent_id"] == root["span_id"]
        assert transient["tid"] != root["tid"]
        assert by_name["path.steady"]["tid"] == root["tid"]
        # The stepper build shows on the task's thread.
        assert by_name["transient.steppers"]["tid"] == transient["tid"]

    def test_total_is_the_wall_time_of_the_run(self):
        with telemetry.enabled_scope(True):
            start = time.perf_counter()
            artifact = ScenarioRunner(SPEC).run()
            elapsed = time.perf_counter() - start
        timing = artifact.results["telemetry"]
        paths = timing["paths_s"]
        assert sorted(paths) == ["snr", "steady", "sweep", "transient"]
        assert max(paths.values()) <= timing["total_s"] <= elapsed
        # The paths overlap, so their sum overstates the run.
        assert timing["total_s"] < sum(paths.values())
