"""``python -m repro`` CLI: run / list / show / diff end to end."""

import json

import pytest

from repro.campaigns.cli import main
from repro.campaigns import ArtifactStore, get_matrix
from repro.scenarios import ScenarioSpec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_lists_campaigns_and_population(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        assert "campaign_smoke" in out
        assert "ring_geometry" in out
        assert "scenarios:" in out

    def test_verbose_lists_every_scenario(self, capsys):
        code, out, _ = run_cli(capsys, "list", "-v")
        assert code == 0
        assert "workload_grid-kind_checkerboard-pw_16" in out

    def test_lists_store_entries(self, capsys, tmp_path):
        store_dir = str(tmp_path / "store")
        code, out, _ = run_cli(
            capsys,
            "run",
            "campaign_smoke",
            "--store",
            store_dir,
            "--paths",
            "steady",
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "list", "--store", store_dir)
        assert code == 0
        assert "4 artifacts" in out


class TestShow:
    def test_show_campaign(self, capsys):
        code, out, _ = run_cli(capsys, "show", "campaign_smoke")
        assert code == 0
        assert "axis kind (workload.kind)" in out
        assert "campaign_smoke-kind_hotspot-pvcsel_4.8" in out

    def test_show_scenario_spec_is_valid_json(self, capsys):
        code, out, _ = run_cli(capsys, "show", "scc_case_study")
        assert code == 0
        spec = ScenarioSpec.from_json(out)
        assert spec.name == "scc_case_study"

    def test_show_unknown_name_fails(self, capsys):
        code, _, err = run_cli(capsys, "show", "nonsense")
        assert code == 2
        assert "neither" in err


class TestRunAndDiff:
    def test_run_cold_then_warm(self, capsys, tmp_path):
        store_dir = str(tmp_path / "store")
        report_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "run",
            "campaign_smoke",
            "--store",
            store_dir,
            "--paths",
            "steady,snr",
            "--workers",
            "2",
            "--output",
            str(report_path),
        )
        assert code == 0
        assert "4 scenarios (0 from store, 4 computed)" in out
        assert "worst_snr_db:" in out
        report = json.loads(report_path.read_text())
        assert report["summary"]["store_misses"] == 4

        code, out, _ = run_cli(
            capsys,
            "run",
            "campaign_smoke",
            "--store",
            store_dir,
            "--paths",
            "steady,snr",
        )
        assert code == 0
        assert "4 from store, 0 computed" in out
        assert "hit rate 100%" in out

        # diff: equal stored artifacts agree; a perturbed copy does not.
        store = ArtifactStore(store_dir)
        entries = store.entries()
        key = entries[0].key
        code, out, _ = run_cli(
            capsys, "diff", key[:12], key[:12], "--store", store_dir
        )
        assert code == 0
        assert "agree" in out

        perturbed = tmp_path / "perturbed.json"
        record = store.get_record(key)
        payload = dict(record["payload"])
        payload["results"] = json.loads(json.dumps(payload["results"]))
        payload["results"]["steady"]["max_oni_temperature_c"] += 1.0
        perturbed.write_text(json.dumps(payload))
        code, out, _ = run_cli(
            capsys, "diff", key[:12], str(perturbed), "--store", store_dir
        )
        assert code == 1
        assert "max_oni_temperature_c" in out

    def test_diff_artifact_against_report_file(self, capsys, tmp_path):
        """The README workflow: diff a stored key against a report JSON."""
        store_dir = str(tmp_path / "store")
        report_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys,
            "run",
            "campaign_smoke",
            "--store",
            store_dir,
            "--paths",
            "steady",
            "--output",
            str(report_path),
        )
        assert code == 0
        store = ArtifactStore(store_dir)
        for entry in store.entries():
            code, out, _ = run_cli(
                capsys,
                "diff",
                entry.key[:12],
                str(report_path),
                "--store",
                store_dir,
            )
            assert code == 0, out
            assert "agree" in out
        # Report vs report compares every scenario's artifact at once.
        code, out, _ = run_cli(
            capsys, "diff", str(report_path), str(report_path)
        )
        assert code == 0
        assert "agree" in out

    def test_run_unknown_campaign(self, capsys):
        code, _, err = run_cli(capsys, "run", "bogus")
        assert code == 2
        assert "unknown campaign" in err

    def test_diff_on_missing_operand(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "diff", "missing_a", "missing_b"
        )
        assert code == 2
        assert "neither" in err

    def test_diff_on_malformed_json_file(self, capsys, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{ not json")
        code, _, err = run_cli(capsys, "diff", str(broken), str(broken))
        assert code == 2
        assert "cannot read" in err

    def test_run_rejects_empty_paths(self, capsys):
        code, _, err = run_cli(capsys, "run", "campaign_smoke", "--paths", ",")
        assert code == 2
        assert "at least one analysis" in err


class TestSeedRomAndWarmStart:
    def test_seed_then_warm_started_rom_run(self, capsys, tmp_path):
        store_dir = str(tmp_path / "store")
        code, out, _ = run_cli(
            capsys, "seed-rom", "campaign_smoke", "--store", store_dir
        )
        assert code == 0
        assert "4 reduced bases persisted from 4 scenarios" in out
        assert len(ArtifactStore(store_dir).rom_basis_payloads()) == 4

        report_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "run",
            "campaign_smoke",
            "--store",
            store_dir,
            "--warm-start",
            "--output",
            str(report_path),
        )
        assert code == 0
        assert "warm start: 4 reduced bases from the store" in out
        assert "transient_rom_solves=4" in out
        # Zero counters are omitted from the deterministic engine line.
        assert "transient_lu_solves" not in out
        assert "rom_fallbacks" not in out
        report = json.loads(report_path.read_text())
        assert report["engine"]["transient_rom_solves"] == 4
        for artifact in report["artifacts"].values():
            assert artifact["results"]["transient"]["solver"]["method"] == "rom"

    def test_warm_start_requires_a_store(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "campaign_smoke", "--warm-start"
        )
        assert code == 2
        assert "--warm-start needs a --store" in err

    def test_seed_rom_requires_a_store(self, capsys):
        # argparse enforces --store on the producer side.
        with pytest.raises(SystemExit):
            main(["seed-rom", "campaign_smoke"])
        _, err = capsys.readouterr()
        assert "--store" in err


class TestTraceAndStats:
    @pytest.fixture(scope="class")
    def telemetry_report(self, tmp_path_factory):
        """One telemetry-enabled campaign run, shared by the class."""
        report_path = tmp_path_factory.mktemp("trace") / "report.json"
        code = main(
            [
                "run",
                "campaign_smoke",
                "--paths",
                "steady",
                "--telemetry",
                "--output",
                str(report_path),
            ]
        )
        assert code == 0
        return report_path

    def test_run_reports_engine_counters_sorted(self, capsys, telemetry_report):
        report = json.loads(telemetry_report.read_text())
        assert report["telemetry"]["enabled"] is True
        # The deterministic engine line: sorted, non-zero counters only.
        code, out, _ = run_cli(capsys, "stats", str(telemetry_report))
        assert code == 0
        engine_line = next(
            line for line in out.splitlines() if line.startswith("engine:")
        )
        names = [part.split("=")[0] for part in engine_line[8:].split(", ")]
        assert names == sorted(names)
        assert "thermal_solves" in names

    def test_stats_prints_counters_and_span_aggregates(
        self, capsys, telemetry_report
    ):
        code, out, _ = run_cli(capsys, "stats", str(telemetry_report))
        assert code == 0
        assert "counter executor.dispatches = 4" in out
        assert "span campaign:campaign_smoke: 1x" in out
        assert "span path.steady: 4x" in out

    def test_stats_snapshot_without_report(self, capsys):
        code, out, _ = run_cli(capsys, "stats")
        assert code == 0
        snapshot = json.loads(out)
        assert snapshot["enabled"] is False
        assert "metrics" in snapshot
        assert set(snapshot["factorization"]) == {
            "built", "reused", "entries", "kinds", "bytes"
        }

    def test_trace_renders_report_and_writes_chrome_json(
        self, capsys, telemetry_report, tmp_path
    ):
        chrome_path = tmp_path / "trace.json"
        code, out, _ = run_cli(
            capsys,
            "trace",
            str(telemetry_report),
            "--output",
            str(chrome_path),
        )
        assert code == 0
        assert "campaign campaign_smoke:" in out
        assert "campaign:campaign_smoke" in out
        assert "spec:campaign_smoke-kind_uniform-pvcsel_3.6" in out
        assert "campaign wall time" in out
        document = json.loads(chrome_path.read_text())
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert all(event["ph"] == "X" for event in events)
        spec_events = [
            event for event in events if event["name"].startswith("spec:")
        ]
        assert len(spec_events) == 4

    def test_trace_runs_a_campaign_directly(self, capsys, tmp_path):
        chrome_path = tmp_path / "trace.json"
        code, out, _ = run_cli(
            capsys,
            "trace",
            "campaign_smoke",
            "--paths",
            "steady",
            "--output",
            str(chrome_path),
        )
        assert code == 0
        assert "spec:campaign_smoke-kind_hotspot-pvcsel_3.6" in out
        assert json.loads(chrome_path.read_text())["traceEvents"]

    def test_trace_rejects_report_without_telemetry(self, capsys, tmp_path):
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({"campaign": "x", "telemetry": None}))
        code, _, err = run_cli(capsys, "trace", str(bare))
        assert code == 2
        assert "carries no telemetry trace" in err

    def test_trace_unknown_campaign(self, capsys):
        code, _, err = run_cli(capsys, "trace", "bogus")
        assert code == 2
        assert "unknown campaign" in err


class TestLogging:
    def test_global_verbosity_flags_set_the_repro_root(self, capsys):
        import logging

        from repro.log import ROOT_LOGGER

        root = logging.getLogger(ROOT_LOGGER)
        assert run_cli(capsys, "-v", "list")[0] == 0
        assert root.level == logging.INFO
        assert run_cli(capsys, "-vv", "list")[0] == 0
        assert root.level == logging.DEBUG
        assert run_cli(capsys, "-q", "list")[0] == 0
        assert root.level == logging.ERROR
        assert run_cli(capsys, "list")[0] == 0
        assert root.level == logging.WARNING
        # Idempotent: repeated configuration never stacks handlers.
        assert (
            len([h for h in root.handlers if getattr(h, "_repro_cli_handler", False)])
            == 1
        )

    def test_verbosity_level_mapping(self):
        import logging

        from repro.log import verbosity_level

        assert verbosity_level() == logging.WARNING
        assert verbosity_level(verbose=1) == logging.INFO
        assert verbosity_level(verbose=2) == logging.DEBUG
        assert verbosity_level(verbose=3, quiet=True) == logging.ERROR

    def test_store_quarantine_warns(self, tmp_path, caplog):
        """The previously silent corruption quarantine now logs a warning."""
        import logging

        store_dir = tmp_path / "store"
        assert main(
            ["run", "campaign_smoke", "--store", str(store_dir), "--paths", "steady"]
        ) == 0
        store = ArtifactStore(str(store_dir))
        objects = sorted((store_dir / "objects").glob("**/*.json"))
        objects[0].write_text("{ corrupt", encoding="utf-8")
        # The CLI handler disables propagation; caplog listens upstream.
        root = logging.getLogger("repro")
        previous = root.propagate
        root.propagate = True
        try:
            with caplog.at_level(logging.WARNING, logger="repro.store"):
                fresh = ArtifactStore(str(store_dir))
                fresh.entries()
                for key in [e.key for e in store.entries()]:
                    fresh.get_record(key)
        finally:
            root.propagate = previous
        assert any(
            "corrupt store object" in record.message for record in caplog.records
        )
