"""CampaignRunner: store incrementality, summaries, determinism parity."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.campaigns import (
    ArtifactStore,
    CampaignPoint,
    CampaignRunner,
    EvaluationKernel,
    MatrixAxis,
    ScenarioMatrix,
    get_matrix,
    run_campaign,
    scenario_metrics,
)
from repro.scenarios import ScenarioSpec

#: Cheapest end-to-end matrix: 2 tiny specs, every analysis path.
TINY = ScenarioMatrix(
    name="tiny",
    description="Two-point campaign for runner tests",
    base=ScenarioSpec.from_dict(
        {
            "name": "tiny_base",
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


@pytest.fixture(scope="module")
def cold_report():
    """One shared serial run of the tiny campaign (no store)."""
    return CampaignRunner(TINY).run()


class TestCampaignRun:
    def test_report_structure(self, cold_report):
        report = cold_report
        assert report.campaign == "tiny"
        names = [entry["name"] for entry in report.scenarios]
        assert names == ["tiny-pvcsel_3.6", "tiny-pvcsel_4.8"]
        assert sorted(report.artifacts) == sorted(names)
        for entry in report.scenarios:
            assert entry["from_store"] is False
            artifact = report.artifact(entry["name"])
            assert artifact.spec_hash == entry["spec_hash"]
            assert sorted(artifact.results) == [
                "snr",
                "steady",
                "sweep",
                "transient",
            ]
        # Engine counters were merged across the per-spec runners.
        assert report.engine["thermal_solves"] > 0
        assert report.store is None

    def test_summary_tables(self, cold_report):
        summary = cold_report.summary
        assert summary["scenario_count"] == 2
        assert summary["store_misses"] == 2
        per_scenario = {
            entry["name"]: scenario_metrics(
                cold_report.artifacts[entry["name"]]
            )
            for entry in cold_report.scenarios
        }
        worst = min(
            per_scenario.items(), key=lambda item: item[1]["worst_snr_db"]
        )
        assert summary["worst_snr_db"]["scenario"] == worst[0]
        assert summary["worst_snr_db"]["value"] == worst[1]["worst_snr_db"]
        # Per-axis rows: one per pvcsel value, each covering one scenario.
        rows = summary["by_axis"]["pvcsel"]
        assert sorted(rows) == ["3.6", "4.8"]
        for label, row in rows.items():
            name = f"tiny-pvcsel_{label}"
            assert row["scenarios"] == 1
            assert row["worst_snr_db"] == per_scenario[name]["worst_snr_db"]
            assert row["peak_temperature_c"] == (
                per_scenario[name]["peak_temperature_c"]
            )

    def test_scenario_metrics_spans_paths(self, cold_report):
        artifact = cold_report.artifacts["tiny-pvcsel_3.6"]
        metrics = scenario_metrics(artifact)
        results = artifact["results"]
        assert metrics["peak_temperature_c"] >= (
            results["steady"]["max_oni_temperature_c"]
        )
        assert metrics["worst_snr_db"] <= (
            results["snr"]["nominal"]["worst_case_snr_db"]
        )
        assert metrics["settling_s"] == (
            results["transient"]["settling"]["max_settling_s"]
        )

    def test_warm_rerun_is_served_from_store(self, tmp_path, cold_report):
        store = ArtifactStore(tmp_path / "store")
        cold = CampaignRunner(TINY, store=store).run()
        assert cold.summary["store_misses"] == 2
        warm = CampaignRunner(
            TINY, store=ArtifactStore(tmp_path / "store")
        ).run()
        assert warm.summary["store_hits"] == 2
        assert warm.summary["store_misses"] == 0
        assert warm.store["hits"] == 2
        # Hits change only the provenance flags, never the numbers: the
        # artifacts match the storeless reference byte for byte.
        assert warm.artifacts == cold_report.artifacts

    def test_partial_store_only_computes_new_specs(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        first = CampaignRunner(
            [TINY.points()[0]], store=store, name="partial"
        ).run()
        assert first.summary["store_misses"] == 1
        both = CampaignRunner(TINY, store=store).run()
        flags = {
            entry["name"]: entry["from_store"] for entry in both.scenarios
        }
        assert flags == {
            "tiny-pvcsel_3.6": True,
            "tiny-pvcsel_4.8": False,
        }

    def test_each_computed_spec_is_keyed_once(self, tmp_path, monkeypatch):
        """A computed spec's store key serves both its lookup and its write."""
        keyed = []
        real = ArtifactStore.key_for

        def spy(self, spec, *args, **kwargs):
            keyed.append(spec.name)
            return real(self, spec, *args, **kwargs)

        monkeypatch.setattr(ArtifactStore, "key_for", spy)
        store = ArtifactStore(tmp_path / "store")
        report = CampaignRunner(TINY, store=store, paths=("steady",)).run()
        assert report.summary["store_misses"] == 2
        assert keyed == [point.spec.name for point in TINY.points()]
        monkeypatch.undo()
        for point in TINY.points():
            assert store.load(point.spec, ("steady",)) is not None

    def test_paths_subset(self):
        report = run_campaign(
            [TINY.points()[0]], paths=("steady",), name="steady_only"
        )
        artifact = report.artifact("tiny-pvcsel_3.6")
        assert sorted(artifact.results) == ["steady"]
        assert report.summary["worst_snr_db"] is None

    def test_override_kernel_paths_key_the_store_and_report(self, tmp_path):
        # The kernel alone holds the paths: a steady-only override kernel
        # must neither report nor store its artifacts under all paths.
        store = ArtifactStore(tmp_path / "store")
        spec = TINY.points()[0].spec
        report = CampaignRunner(
            [TINY.points()[0]],
            store=store,
            name="steady_kernel",
            kernel=EvaluationKernel(paths=("steady",)),
        ).run()
        assert report.paths == ("steady",)
        assert store.load(spec) is None
        stored = store.load(spec, ("steady",))
        assert stored is not None and sorted(stored.results) == ["steady"]

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="need a name"):
            CampaignRunner([TINY.points()[0]])
        with pytest.raises(ConfigurationError, match="unknown analysis paths"):
            CampaignRunner(TINY, paths=("bogus",))
        with pytest.raises(ConfigurationError, match="at least one analysis"):
            CampaignRunner(TINY, paths=())
        with pytest.raises(ConfigurationError, match="workers"):
            CampaignRunner(TINY, workers=0)
        with pytest.raises(ConfigurationError, match="no scenarios"):
            CampaignRunner([], name="empty")
        point = TINY.points()[0]
        with pytest.raises(ConfigurationError, match="duplicate"):
            CampaignRunner([point, point], name="twice")

    def test_failing_spec_does_not_discard_completed_work(self, tmp_path):
        """Artifacts persist as they complete, so a retry is incremental."""
        good = TINY.points()[0]
        # Schema-valid but unbuildable: the ring cannot fit the die, so the
        # runner raises at execution time, after `good` already finished.
        bad = CampaignPoint(
            spec=good.spec.with_overrides(
                {"name": "bad_ring", "network.ring_length_mm": 200.0}
            )
        )
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(ConfigurationError, match="does not fit"):
            CampaignRunner(
                [good, bad], store=store, paths=("steady",), name="mixed"
            ).run()
        # The completed spec is already on disk: the retry only recomputes
        # the genuinely new (here: still-broken) one.
        assert store.load(good.spec, ("steady",)) is not None

    def test_stop_before_index_refresh_loses_only_recency(
        self, tmp_path, monkeypatch
    ):
        """A campaign stopped between its object writes and its one index
        refresh leaves every object servable from a reopened store."""

        def stop(self):
            raise KeyboardInterrupt("stopped before the index refresh")

        monkeypatch.setattr(ArtifactStore, "_refresh_index", stop)
        with pytest.raises(KeyboardInterrupt):
            CampaignRunner(
                TINY, store=ArtifactStore(tmp_path / "store"), paths=("steady",)
            ).run()
        monkeypatch.undo()
        assert not (tmp_path / "store" / "index.json").exists()

        reopened = ArtifactStore(tmp_path / "store")
        for point in TINY.points():
            assert reopened.load(point.spec, ("steady",)) is not None
        assert sorted(entry.scenario for entry in reopened.entries()) == [
            point.spec.name for point in TINY.points()
        ]
        warm = CampaignRunner(TINY, store=reopened, paths=("steady",)).run()
        assert warm.summary["store_hits"] == 2

    def test_bare_spec_list(self):
        spec = TINY.points()[0].spec
        report = run_campaign([spec], paths=("steady",), name="bare")
        assert report.scenarios[0]["axes"] == {}
        assert report.scenarios[0]["name"] == spec.name


class TestDeterminismParity:
    def test_parallel_equals_serial_byte_for_byte(self, cold_report):
        """workers=4 must reproduce the serial campaign JSON exactly.

        This is the acceptance pin of the campaign subsystem: fanning specs
        out over a process pool only changes wall-clock time, never a byte
        of any artifact or of the merged report.
        """
        parallel = CampaignRunner(TINY, workers=4).run()
        assert parallel.to_json() == cold_report.to_json()
        for name, artifact in cold_report.artifacts.items():
            assert json.dumps(parallel.artifacts[name], sort_keys=True) == (
                json.dumps(artifact, sort_keys=True)
            )

    def test_parallel_store_population_matches_serial(self, tmp_path, cold_report):
        store = ArtifactStore(tmp_path / "par_store")
        CampaignRunner(TINY, store=store, workers=4).run()
        warm = CampaignRunner(
            TINY, store=ArtifactStore(tmp_path / "par_store")
        ).run()
        assert warm.summary["store_hits"] == 2
        assert warm.artifacts == cold_report.artifacts
