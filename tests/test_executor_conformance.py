"""Executor-conformance suite: every substrate is byte-identical to serial.

The acceptance pin of the execution-kernel refactor.  Part one runs the same
campaign through both executors (serial / process) and asserts that
artifacts, :class:`~repro.campaigns.CampaignReport` documents and store
*objects* agree byte for byte with the serial reference — only the
``index.json`` recency accelerator may differ, because completion order is
genuinely substrate-dependent.  Part two injects faults into the process
executor (killed workers, hung workers, transient pickling failures, poison
specs) and asserts campaigns still complete with correct artifacts and full
per-spec failure provenance in the report.
"""

import hashlib
import json
import os
import pickle
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

import pytest

from repro import telemetry
from repro.errors import ConfigurationError
from repro.campaigns import (
    ArtifactStore,
    CampaignRunner,
    EvaluationKernel,
    MatrixAxis,
    ProcessExecutor,
    ScenarioMatrix,
    SerialExecutor,
    SpecExecutionError,
    get_matrix,
    make_executor,
)
from repro.campaigns.store import artifact_key
from repro.scenarios import (
    ScenarioSpec,
    collect_bases,
    compare_artifact_dicts,
)
from repro.thermal import ReducedBasis

#: Smallest campaign exercising every analysis path: 2 tiny specs.
MATRIX = ScenarioMatrix(
    name="conformance",
    description="Two-point campaign for executor-conformance tests",
    base=ScenarioSpec.from_dict(
        {
            "name": "conformance_base",
            "chip": {
                "die_width_mm": 14.0,
                "die_height_mm": 11.0,
                "tile_columns": 3,
                "tile_rows": 2,
                "include_infrastructure": False,
            },
            "mesh": {
                "oni_cell_size_um": 500.0,
                "die_cell_size_um": 2500.0,
                "zoom_cell_size_um": 40.0,
            },
            "network": {"ring_length_mm": 9.0, "oni_count": 4},
            "workload": {"kind": "uniform", "total_power_w": 8.0},
            "trace": {
                "kind": "two_phase",
                "phases": 2,
                "phase_duration_s": 2.0,
            },
        }
    ),
    axes=(
        MatrixAxis(
            name="pvcsel", path="power.vcsel_power_mw", values=(3.6, 4.8)
        ),
    ),
)

#: Wider, steady-only matrix for the fault-injection campaigns.
FAULT_MATRIX = ScenarioMatrix(
    name="faults",
    description="Three-point steady-only campaign for fault injection",
    base=MATRIX.base.with_overrides({"name": "fault_base"}),
    axes=(
        MatrixAxis(
            name="pvcsel",
            path="power.vcsel_power_mw",
            values=(3.6, 4.2, 4.8),
        ),
    ),
)

FAULT_NAMES = [point.spec.name for point in FAULT_MATRIX.points()]

#: The conformance matrix of executor strategies (ids keyed for CI -k).
#: Both process legs run the queue-supervised ``ProcessExecutor``:
#: ``exec_process`` resolves it through the ``"process"`` registry key at the
#: default retry budget, ``exec_queue`` constructs it directly with one retry.
EXECUTORS = {
    "exec_serial": lambda: SerialExecutor(),
    "exec_process": lambda: make_executor("process", workers=2),
    "exec_queue": lambda: ProcessExecutor(workers=2, max_retries=1),
}


def store_object_digests(root):
    """``{object file name: sha256}`` of a store's objects.

    Deliberately ignores ``index.json``: the recency accelerator encodes
    completion order, which is the one thing executors may legitimately do
    differently.  The objects — keys and bytes — are the store contents the
    conformance contract covers.
    """
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(root).glob("objects/*.json"))
    }


@pytest.fixture(scope="module")
def serial_reference(tmp_path_factory):
    """Serial campaign against a fresh store: the conformance reference."""
    root = tmp_path_factory.mktemp("serial_store")
    report = CampaignRunner(
        MATRIX, store=ArtifactStore(root), executor="serial"
    ).run()
    return report, store_object_digests(root)


class TestExecutorConformance:
    """Every executor must reproduce the serial campaign byte for byte."""

    @pytest.mark.parametrize("executor_id", sorted(EXECUTORS))
    def test_report_and_store_parity(
        self, executor_id, serial_reference, tmp_path
    ):
        reference, reference_objects = serial_reference
        executor = EXECUTORS[executor_id]()
        store = ArtifactStore(tmp_path / "store")
        report = CampaignRunner(MATRIX, store=store, executor=executor).run()
        # Byte-identical artifacts AND identical CampaignReport documents
        # (summary tables, engine counters, store counters, provenance).
        assert report.to_json() == reference.to_json()
        # Identical store contents: same keys, same object bytes.
        assert store_object_digests(tmp_path / "store") == reference_objects

    @pytest.mark.parametrize("executor_id", sorted(EXECUTORS))
    def test_storeless_parity(self, executor_id, serial_reference):
        reference, _ = serial_reference
        report = CampaignRunner(MATRIX, executor=EXECUTORS[executor_id]()).run()
        assert report.artifacts == reference.artifacts
        assert report.engine == reference.engine
        assert report.failures == {}

    def test_warm_replay_identical_for_every_executor(
        self, serial_reference, tmp_path
    ):
        """A store populated by any executor serves any other executor."""
        reference, _ = serial_reference
        store_root = tmp_path / "store"
        CampaignRunner(
            MATRIX,
            store=ArtifactStore(store_root),
            executor=ProcessExecutor(workers=2),
        ).run()
        for executor_id in sorted(EXECUTORS):
            warm = CampaignRunner(
                MATRIX,
                store=ArtifactStore(store_root),
                executor=EXECUTORS[executor_id](),
            ).run()
            assert warm.summary["store_hits"] == 2, executor_id
            assert warm.artifacts == reference.artifacts, executor_id


def strip_telemetry(artifact):
    """The artifact with its ``results.telemetry`` provenance removed."""
    return {
        **artifact,
        "results": {
            key: value
            for key, value in artifact["results"].items()
            if key != "telemetry"
        },
    }


class TestTelemetryConformance:
    """Telemetry must observe campaigns, not change what they compute.

    An instrumented run may add exactly one thing to an artifact — the
    ``results.telemetry`` provenance subdict — and everything else must stay
    byte-identical to the uninstrumented serial reference, whatever executor
    carried the spans home.
    """

    @pytest.mark.parametrize("executor_id", sorted(EXECUTORS))
    def test_artifacts_identical_modulo_telemetry_subdict(
        self, executor_id, serial_reference
    ):
        reference, _ = serial_reference
        report = CampaignRunner(
            MATRIX, executor=EXECUTORS[executor_id](), telemetry=True
        ).run()
        assert not telemetry.is_enabled()  # the scope was torn down
        assert report.telemetry and report.telemetry["enabled"] is True
        assert sorted(report.artifacts) == sorted(reference.artifacts)
        for name, artifact in report.artifacts.items():
            assert "telemetry" in artifact["results"], executor_id
            assert json.dumps(
                strip_telemetry(artifact), sort_keys=True
            ) == json.dumps(reference.artifacts[name], sort_keys=True), name
            # The golden comparator skips the provenance subdict outright.
            assert compare_artifact_dicts(
                reference.artifacts[name], artifact
            ) == []
        assert report.engine == reference.engine

    @pytest.mark.parametrize("executor_id", sorted(EXECUTORS))
    def test_every_spec_span_reaches_the_report(
        self, executor_id, serial_reference
    ):
        """Cross-process aggregation: one ``spec:`` span per scenario lands
        in the merged trace whatever process evaluated it."""
        report = CampaignRunner(
            MATRIX, executor=EXECUTORS[executor_id](), telemetry=True
        ).run()
        names = [record["name"] for record in report.telemetry["trace"]]
        for point in MATRIX.points():
            assert names.count(f"spec:{point.spec.name}") == 1, executor_id
        assert f"campaign:{MATRIX.name}" in names
        counters = report.telemetry["metrics"]["counters"]
        assert counters["executor.dispatches"] == len(MATRIX.points())

    def test_disabled_report_has_no_telemetry_section(self, serial_reference):
        reference, _ = serial_reference
        assert reference.telemetry is None
        assert json.loads(reference.to_json())["telemetry"] is None


@pytest.fixture(scope="module")
def rom_payloads():
    """Reduced bases of both conformance specs, harvested by a build pass."""
    return tuple(collect_bases(point.spec for point in MATRIX.points()).payloads())


@pytest.fixture(scope="module")
def rom_serial_reference(tmp_path_factory, rom_payloads):
    """Serial warm-started reduced-order campaign: the ROM conformance
    reference."""
    root = tmp_path_factory.mktemp("rom_serial_store")
    report = CampaignRunner(
        MATRIX,
        store=ArtifactStore(root),
        executor="serial",
        warm_start=rom_payloads,
    ).run()
    return report, store_object_digests(root)


class TestRomWarmStartConformance:
    """The reduced-order transient path must not break substrate parity.

    Warm-start payloads are part of the kernel value, so every worker —
    in-process or in a worker process — has the identical bases in scope and
    the reduced integration stays byte-deterministic whatever the process
    topology.
    """

    @pytest.mark.parametrize("executor_id", sorted(EXECUTORS))
    def test_rom_report_and_store_parity(
        self, executor_id, rom_serial_reference, rom_payloads, tmp_path
    ):
        reference, reference_objects = rom_serial_reference
        store = ArtifactStore(tmp_path / "store")
        report = CampaignRunner(
            MATRIX,
            store=store,
            executor=EXECUTORS[executor_id](),
            warm_start=rom_payloads,
        ).run()
        assert report.to_json() == reference.to_json()
        assert store_object_digests(tmp_path / "store") == reference_objects
        # The reduced path genuinely ran: every artifact was integrated in
        # the reduced space, none fell back.
        assert report.engine["transient_rom_solves"] == len(MATRIX.points())
        assert report.engine["rom_fallbacks"] == 0
        for artifact in report.artifacts.values():
            assert artifact["results"]["transient"]["solver"]["method"] == "rom"

    def test_rom_store_does_not_answer_lu_requests(
        self, rom_serial_reference, rom_payloads, tmp_path
    ):
        """Artifacts computed by different transient numerics have different
        store keys, so a ROM-populated store never serves an LU campaign."""
        store = ArtifactStore(tmp_path / "store")
        CampaignRunner(
            MATRIX,
            store=store,
            executor="serial",
            warm_start=rom_payloads,
        ).run()
        lu_report = CampaignRunner(
            MATRIX, store=ArtifactStore(tmp_path / "store"), executor="serial"
        ).run()
        assert lu_report.summary["store_hits"] == 0
        assert lu_report.summary["store_misses"] == len(MATRIX.points())

    def test_warm_start_digest_keys_each_warm_start_set(self, rom_payloads):
        spec = MATRIX.points()[0].spec
        default = EvaluationKernel()
        warm = EvaluationKernel(warm_start=rom_payloads)
        other = EvaluationKernel(warm_start=rom_payloads[:1])
        keys = [
            artifact_key(spec, kernel.paths, kernel.warm_start_digest)
            for kernel in (default, warm, other)
        ]
        assert default.warm_start_digest == ""
        assert keys[0] == artifact_key(spec)
        assert len(set(keys)) == 3
        assert EvaluationKernel(warm_start=rom_payloads).warm_start_digest == (
            warm.warm_start_digest
        )

    def test_a_default_kernel_after_a_warm_one_runs_full_space(self, rom_payloads):
        """A warm-started kernel's bases leave scope with its run: a default
        kernel after it gives the bytes of a fresh full-space run."""
        spec_dict = MATRIX.points()[0].spec.to_dict()
        fresh = EvaluationKernel().run(spec_dict)
        warm_kernel = EvaluationKernel(warm_start=rom_payloads)
        warm, _, _ = warm_kernel.run(spec_dict)
        assert warm["results"]["transient"]["solver"]["method"] == "rom"
        # A pickled warm kernel ships its payloads, not its parsed bases.
        clone = pickle.loads(pickle.dumps(warm_kernel))
        assert clone == warm_kernel and "_bases" not in vars(clone)
        after = EvaluationKernel().run(spec_dict)
        assert json.dumps(after, sort_keys=True) == json.dumps(fresh, sort_keys=True)
        assert after[0]["results"]["transient"]["solver"]["method"] == "lu"


def test_a_warm_start_beyond_eight_bases_replays_every_spec(monkeypatch):
    """All 15 bases of ``workload_grid`` replay, each parsed once, however
    many kernel runs the campaign makes."""
    points = get_matrix("workload_grid").points()
    payloads = collect_bases(point.spec for point in points).payloads()
    assert len(payloads) == len(points) == 15
    parse = ReducedBasis.from_payload
    parsed = []

    def counting_parse(payload):
        parsed.append(payload["key"])
        return parse(payload)

    monkeypatch.setattr(ReducedBasis, "from_payload", staticmethod(counting_parse))
    report = CampaignRunner(
        get_matrix("workload_grid"),
        paths=("transient",),
        executor="serial",
        warm_start=payloads,
    ).run()
    assert report.engine["transient_rom_solves"] == 15
    assert report.engine["transient_lu_solves"] == 0
    assert report.engine["rom_fallbacks"] == 0
    assert sorted(parsed) == sorted(json.loads(text)["key"] for text in payloads)


class TestKernel:
    def test_kernel_is_picklable_and_deterministic(self):
        kernel = EvaluationKernel(("steady",))
        clone = pickle.loads(pickle.dumps(kernel))
        assert clone == kernel
        spec_dict = FAULT_MATRIX.points()[0].spec.to_dict()
        first_artifact, first_stats, first_payload = kernel.run(spec_dict)
        second_artifact, second_stats, second_payload = clone.run(spec_dict)
        assert first_artifact == second_artifact
        assert first_stats == second_stats
        # Telemetry is off by default: no payload, no artifact pollution.
        assert first_payload is None and second_payload is None
        assert "telemetry" not in first_artifact["results"]

    def test_kernel_telemetry_payload(self):
        """An enabled kernel returns a span payload without flipping the
        module switch for the rest of the process."""
        kernel = EvaluationKernel(("steady",), telemetry=True)
        spec_dict = FAULT_MATRIX.points()[0].spec.to_dict()
        assert not telemetry.is_enabled()
        artifact, _, payload = kernel.run(spec_dict)
        assert not telemetry.is_enabled()
        names = [record["name"] for record in payload["spans"]]
        assert f"spec:{spec_dict['name']}" in names
        assert "path.steady" in names
        assert artifact["results"]["telemetry"]["paths_s"].keys() == {"steady"}

    def test_kernel_validates_paths(self):
        with pytest.raises(ConfigurationError, match="unknown analysis"):
            EvaluationKernel(("bogus",))
        with pytest.raises(ConfigurationError, match="at least one"):
            EvaluationKernel(())

    def test_make_executor_registry(self):
        assert make_executor(None).name == "serial"
        default = make_executor(None, workers=4)
        assert isinstance(default, ProcessExecutor)
        assert (default.workers, default.max_retries) == (4, 2)
        assert make_executor("process", workers=1).workers == 1
        passthrough = SerialExecutor()
        assert make_executor(passthrough) is passthrough
        with pytest.raises(ConfigurationError, match="unknown executor"):
            make_executor("carrier-pigeon")
        for removed in ("async", "queue"):
            with pytest.raises(ConfigurationError, match="unknown executor"):
                make_executor(removed)
        for name in ("serial", "process"):
            with pytest.raises(ConfigurationError, match="workers must be >= 1"):
                make_executor(name, workers=0)
        with pytest.raises(ConfigurationError, match="workers >= 1"):
            ProcessExecutor(0)
        with pytest.raises(ConfigurationError, match="max_retries"):
            ProcessExecutor(max_retries=-1)
        with pytest.raises(ConfigurationError, match="timeout_s"):
            ProcessExecutor(timeout_s=0.0)

    def test_runner_rejects_unknown_executor_and_on_error(self):
        with pytest.raises(ConfigurationError, match="unknown executor"):
            CampaignRunner(MATRIX, executor="bogus")
        with pytest.raises(ConfigurationError, match="on_error"):
            CampaignRunner(MATRIX, on_error="ignore")


@dataclass(frozen=True)
class FaultyKernel(EvaluationKernel):
    """Evaluation kernel with injectable worker faults (picklable).

    Fault state crosses process boundaries through marker files in
    ``marker_dir``: the *first* attempt of a listed spec misbehaves (crash /
    hang / transient error), later attempts run the pure kernel — except
    ``poison`` specs, which fail on every attempt.
    """

    crash: Tuple[str, ...] = ()
    hang: Tuple[str, ...] = ()
    transient_error: Tuple[str, ...] = ()
    poison: Tuple[str, ...] = ()
    marker_dir: str = ""

    def run(self, spec):
        name = spec.name
        if name in self.poison:
            raise RuntimeError("poison spec, fails on every attempt")
        if self._first_attempt(name):
            if name in self.crash:
                os._exit(13)  # simulated segfault/OOM-kill: no cleanup at all
            if name in self.hang:
                time.sleep(60.0)  # simulated hang; the deadline must fire
            if name in self.transient_error:
                raise pickle.PicklingError("transient pickling failure")
        return super().run(spec)

    def _first_attempt(self, name: str) -> bool:
        marker = Path(self.marker_dir) / f"{name}.attempted"
        if marker.exists():
            return False
        marker.touch()
        return True


@pytest.fixture(scope="module")
def fault_reference():
    """Fault-free steady-only reference of the fault matrix."""
    return CampaignRunner(FAULT_MATRIX, paths=("steady",)).run()


def faulty_runner(kernel, **kwargs):
    executor = kwargs.pop(
        "executor", ProcessExecutor(workers=2, max_retries=2)
    )
    return CampaignRunner(
        FAULT_MATRIX,
        paths=("steady",),
        kernel=kernel,
        executor=executor,
        **kwargs,
    )


class TestFaultInjection:
    """Process-executor fault semantics: crash, hang, retry, quarantine."""

    def test_two_worker_crashes_still_complete(
        self, fault_reference, tmp_path
    ):
        """Two killed workers: campaign completes, artifacts byte-correct,
        crash provenance recorded per spec."""
        kernel = FaultyKernel(
            paths=("steady",),
            crash=(FAULT_NAMES[0], FAULT_NAMES[2]),
            marker_dir=str(tmp_path),
        )
        report = faulty_runner(kernel).run()
        assert report.artifacts == fault_reference.artifacts
        assert sorted(report.failures) == sorted(
            [FAULT_NAMES[0], FAULT_NAMES[2]]
        )
        for name in (FAULT_NAMES[0], FAULT_NAMES[2]):
            provenance = report.failures[name]
            assert provenance["resolved"] is True
            assert provenance["attempts"] == 2
            assert provenance["incidents"][0]["type"] == "WorkerCrashed"
            assert provenance["design_hash"]
        assert report.summary["failed"] == 0

    def test_hung_worker_is_killed_and_retried(
        self, fault_reference, tmp_path
    ):
        kernel = FaultyKernel(
            paths=("steady",),
            hang=(FAULT_NAMES[1],),
            marker_dir=str(tmp_path),
        )
        start = time.monotonic()
        report = faulty_runner(
            kernel,
            executor=ProcessExecutor(workers=2, max_retries=1, timeout_s=3.0),
        ).run()
        elapsed = time.monotonic() - start
        assert report.artifacts == fault_reference.artifacts
        incident = report.failures[FAULT_NAMES[1]]["incidents"][0]
        assert incident["type"] == "WorkerTimeout"
        assert report.failures[FAULT_NAMES[1]]["resolved"] is True
        # The hang was cut at the deadline, not waited out (60 s sleep).
        assert elapsed < 30.0

    def test_transient_error_is_retried(self, fault_reference, tmp_path):
        kernel = FaultyKernel(
            paths=("steady",),
            transient_error=(FAULT_NAMES[0],),
            marker_dir=str(tmp_path),
        )
        report = faulty_runner(kernel).run()
        assert report.artifacts == fault_reference.artifacts
        incident = report.failures[FAULT_NAMES[0]]["incidents"][0]
        assert incident["type"] == "PicklingError"

    def test_poison_spec_is_quarantined(self, fault_reference, tmp_path):
        kernel = FaultyKernel(
            paths=("steady",),
            poison=(FAULT_NAMES[1],),
            marker_dir=str(tmp_path),
        )
        report = faulty_runner(kernel, on_error="quarantine").run()
        provenance = report.failures[FAULT_NAMES[1]]
        assert provenance["resolved"] is False
        assert provenance["attempts"] == 3  # 1 + max_retries
        assert len(provenance["incidents"]) == 3
        assert report.summary["failed"] == 1
        # The healthy specs completed with correct artifacts regardless.
        assert sorted(report.artifacts) == sorted(
            [FAULT_NAMES[0], FAULT_NAMES[2]]
        )
        for name in (FAULT_NAMES[0], FAULT_NAMES[2]):
            assert report.artifacts[name] == fault_reference.artifacts[name]
        # The quarantined scenario still has a summary row (None metrics).
        rows = {row["name"]: row for row in report.summary_rows()}
        assert rows[FAULT_NAMES[1]]["worst_snr_db"] is None

    def test_partial_campaign_resume_from_store(
        self, fault_reference, tmp_path
    ):
        """A quarantined campaign resumes incrementally: the re-run serves
        completed specs from the store and only recomputes the failed one."""
        store_root = tmp_path / "store"
        kernel = FaultyKernel(
            paths=("steady",),
            poison=(FAULT_NAMES[1],),
            marker_dir=str(tmp_path),
        )
        first = faulty_runner(
            kernel,
            store=ArtifactStore(store_root),
            on_error="quarantine",
        ).run()
        assert first.summary["failed"] == 1
        # Re-run with the healthy kernel (the "fixed bug" case).
        resumed = CampaignRunner(
            FAULT_MATRIX,
            paths=("steady",),
            store=ArtifactStore(store_root),
            executor=ProcessExecutor(workers=2),
        ).run()
        flags = {
            entry["name"]: entry["from_store"]
            for entry in resumed.scenarios
        }
        assert flags == {
            FAULT_NAMES[0]: True,
            FAULT_NAMES[1]: False,
            FAULT_NAMES[2]: True,
        }
        assert resumed.artifacts == fault_reference.artifacts
        assert resumed.summary["failed"] == 0

    def test_raise_mode_carries_spec_provenance(self, tmp_path):
        """Satellite fix: a failing spec re-raises with name + design_hash."""
        kernel = FaultyKernel(
            paths=("steady",),
            poison=(FAULT_NAMES[1],),
            marker_dir=str(tmp_path),
        )
        expected = FAULT_MATRIX.points()[1].spec
        with pytest.raises(SpecExecutionError) as excinfo:
            faulty_runner(kernel, executor=SerialExecutor()).run()
        error = excinfo.value
        assert error.scenario == FAULT_NAMES[1]
        assert error.design_hash == expected.design_hash()
        assert FAULT_NAMES[1] in str(error)
        assert expected.design_hash()[:12] in str(error)
        assert "RuntimeError" in str(error)

    def test_process_pool_crash_carries_spec_provenance(self, tmp_path):
        """A worker killed with no retries left still names its spec: the
        WorkerCrashed incident is attributed to the item that died."""
        kernel = FaultyKernel(
            paths=("steady",),
            crash=(FAULT_NAMES[0],),
            marker_dir=str(tmp_path),
        )
        with pytest.raises(SpecExecutionError) as excinfo:
            faulty_runner(
                kernel, executor=ProcessExecutor(workers=2, max_retries=0)
            ).run()
        assert excinfo.value.scenario == FAULT_NAMES[0]
        assert excinfo.value.design_hash == (
            FAULT_MATRIX.points()[0].spec.design_hash()
        )
        assert excinfo.value.error_type == "WorkerCrashed"
