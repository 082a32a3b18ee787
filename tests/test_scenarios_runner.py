"""Runner layer of the scenario subsystem: builders, paths, artifacts."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import (
    ALL_PATHS,
    ScenarioArtifact,
    ScenarioRunner,
    ScenarioSpec,
    TraceSpec,
    WorkloadSpec,
    build_trace,
    build_workload,
    compare_artifact_dicts,
    default_registry,
)
from repro.scenarios.spec import ChipSpec, MeshSpec, NetworkSpec


@pytest.fixture(scope="module")
def small_spec():
    return default_registry().get("small_die_uniform")


@pytest.fixture(scope="module")
def small_runner(small_spec):
    return ScenarioRunner(small_spec)


@pytest.fixture(scope="module")
def small_artifact(small_runner):
    return small_runner.run(ALL_PATHS)


class TestWorkloadBuilder:
    @pytest.fixture(scope="class")
    def floorplan(self, small_runner):
        return small_runner.architecture().floorplan

    @pytest.mark.parametrize(
        "kind", ["uniform", "diagonal", "random", "hotspot", "checkerboard", "gradient"]
    )
    def test_every_kind_materialises_with_conserved_power(self, floorplan, kind):
        workload = WorkloadSpec(kind=kind, total_power_w=12.0)
        pattern = build_workload(floorplan, workload)
        assert pattern.total_power_w == pytest.approx(12.0)

    def test_seed_distinguishes_random_workloads(self, floorplan):
        first = build_workload(floorplan, WorkloadSpec(kind="random", seed=0))
        second = build_workload(floorplan, WorkloadSpec(kind="random", seed=1))
        assert first.tile_powers_w != second.tile_powers_w

    def test_infrastructure_fraction_ignored_without_blocks(self, floorplan):
        # The small die has no infrastructure; the full power goes to tiles.
        pattern = build_workload(
            floorplan,
            WorkloadSpec(kind="uniform", total_power_w=10.0, infrastructure_fraction=0.4),
        )
        assert pattern.total_power_w == pytest.approx(10.0)

    def test_infrastructure_fraction_splits_on_scc_die(self):
        runner = ScenarioRunner(default_registry().get("scc_uniform_18mm"))
        floorplan = runner.architecture().floorplan
        pattern = build_workload(
            floorplan,
            WorkloadSpec(kind="uniform", total_power_w=20.0, infrastructure_fraction=0.25),
        )
        infra_power = sum(
            power
            for tile, power in pattern.tile_powers_w.items()
            if not tile.startswith("tile_")
        )
        assert pattern.total_power_w == pytest.approx(20.0)
        assert infra_power == pytest.approx(5.0)

    def test_hotspot_params_respected(self, floorplan):
        pattern = build_workload(
            floorplan,
            WorkloadSpec(
                kind="hotspot",
                total_power_w=10.0,
                params={"hotspot_fraction": 0.7, "hotspot_tiles": 1},
            ),
        )
        assert max(pattern.tile_powers_w.values()) == pytest.approx(7.0)


class TestTraceBuilder:
    @pytest.fixture(scope="class")
    def floorplan(self, small_runner):
        return small_runner.architecture().floorplan

    @pytest.fixture(scope="class")
    def base_activity(self, floorplan):
        workload = WorkloadSpec(kind="uniform", total_power_w=8.0)
        return build_workload(floorplan, workload)

    @pytest.mark.parametrize("kind", ["migration", "ramp", "random_walk", "two_phase"])
    def test_every_kind_materialises(self, floorplan, base_activity, kind):
        spec = TraceSpec(kind=kind, phases=4, phase_duration_s=1.5)
        trace = build_trace(
            floorplan, spec, WorkloadSpec(kind="uniform", total_power_w=8.0), base_activity
        )
        assert len(trace) == 4
        assert trace.total_duration_s == pytest.approx(6.0)

    def test_two_phase_alternates_low_and_high(self, floorplan, base_activity):
        spec = TraceSpec(kind="two_phase", phases=4, params={"low_fraction": 0.5})
        trace = build_trace(
            floorplan, spec, WorkloadSpec(kind="uniform", total_power_w=8.0), base_activity
        )
        powers = [phase.activity.total_power_w for phase in trace]
        assert powers[0] == pytest.approx(4.0)
        assert powers[1] == pytest.approx(8.0)
        assert powers[2] == pytest.approx(4.0)

    def test_equal_specs_build_identical_traces(self, floorplan, base_activity):
        workload = WorkloadSpec(kind="uniform", total_power_w=8.0)
        spec = TraceSpec(kind="migration", phases=3, seed=11)
        first = build_trace(floorplan, spec, workload, base_activity)
        second = build_trace(floorplan, spec, workload, base_activity)
        for phase_a, phase_b in zip(first, second):
            assert phase_a.activity.tile_powers_w == phase_b.activity.tile_powers_w

    def test_trace_seed_changes_migration(self, floorplan, base_activity):
        workload = WorkloadSpec(kind="uniform", total_power_w=8.0)
        first = build_trace(
            floorplan, TraceSpec(kind="migration", seed=0), workload, base_activity
        )
        second = build_trace(
            floorplan, TraceSpec(kind="migration", seed=1), workload, base_activity
        )
        assert any(
            a.activity.tile_powers_w != b.activity.tile_powers_w
            for a, b in zip(first, second)
        )


class TestRunnerPaths:
    def test_all_paths_present(self, small_artifact):
        assert sorted(small_artifact.results) == sorted(ALL_PATHS)

    def test_steady_section_shape(self, small_artifact):
        steady = small_artifact.section("steady")
        assert steady["zoomed_oni"] in steady["oni"]
        assert steady["gradient_c"] is not None
        assert len(steady["oni"]) == 4

    def test_sweep_section_tracks_scales(self, small_spec, small_artifact):
        sweep = small_artifact.section("sweep")
        assert len(sweep["vcsel_power_mw"]) == len(small_spec.sweep_scales)
        # More VCSEL power must heat the package monotonically.
        temps = sweep["average_oni_temperature_c"]
        assert temps == sorted(temps)

    def test_snr_section_shape(self, small_spec, small_artifact):
        snr = small_artifact.section("snr")
        assert len(snr["per_point"]) == len(small_spec.sweep_scales)
        nominal = snr["nominal"]
        assert nominal["worst_link"] in nominal["links"]
        assert nominal["worst_case_snr_db"] == pytest.approx(
            min(nominal["links"].values())
        )

    def test_transient_section_shape(self, small_spec, small_artifact):
        transient = small_artifact.section("transient")
        assert transient["recorded_steps"] > 0
        assert transient["duration_s"] == pytest.approx(
            small_spec.trace.phases * small_spec.trace.phase_duration_s
        )
        assert transient["snr"]["floor_db"] == small_spec.snr_floor_db

    def test_partial_path_selection(self, small_spec):
        artifact = ScenarioRunner(small_spec).run(["steady"])
        assert list(artifact.results) == ["steady"]

    def test_unknown_path_rejected(self, small_runner):
        with pytest.raises(ConfigurationError, match="unknown analysis paths"):
            small_runner.run(["steady", "quantum"])

    def test_transient_requires_a_trace(self):
        spec = ScenarioSpec(
            name="traceless",
            chip=ChipSpec(
                die_width_mm=14.0,
                die_height_mm=11.0,
                tile_columns=3,
                tile_rows=2,
                include_infrastructure=False,
            ),
            mesh=MeshSpec(die_cell_size_um=2000.0),
            network=NetworkSpec(ring_length_mm=9.0, oni_count=4),
            workload=WorkloadSpec(kind="uniform", total_power_w=8.0),
            trace=None,
        )
        artifact = ScenarioRunner(spec).run(ALL_PATHS)
        assert artifact.results["transient"] is None
        with pytest.raises(ConfigurationError, match="declares no trace"):
            ScenarioRunner(spec).trace()

    def test_steady_matches_direct_flow(self, small_runner, small_artifact):
        """The runner is sugar: its steady numbers equal the raw flow's."""
        flow = small_runner.flow()
        evaluation = flow.run_thermal(
            small_runner.activity(), power=small_runner.power_config()
        )
        steady = small_artifact.section("steady")
        assert steady["average_oni_temperature_c"] == pytest.approx(
            evaluation.average_oni_temperature_c, rel=1e-12
        )
        assert steady["gradient_c"] == pytest.approx(
            evaluation.gradient_c, rel=1e-12
        )

    def test_paths_share_one_engine_and_cache(self, small_spec):
        runner = ScenarioRunner(small_spec)
        runner.run(ALL_PATHS)
        engine = runner.engine()
        assert engine is runner.engine() and engine.flow() is runner.flow()
        stats = engine.stats
        # The nominal steady point plus the sweep grid; the SNR path reuses
        # the sweep's thermal evaluations through the cache.
        assert stats["points_requested"] > stats["thermal_solves"]
        assert stats["cache_hits"] > 0
        # Re-running the whole scenario is served from the caches.
        solves_before = stats["thermal_solves"]
        runner.run(ALL_PATHS)
        assert engine.stats["thermal_solves"] == solves_before

    def test_spec_network_overrides_reach_the_analyzer(self):
        base = default_registry().get("small_die_uniform")
        data = base.to_dict()
        data["name"] = "small_die_uniform_hop2"
        data["network"]["shift_hops"] = 2
        spec = ScenarioSpec.from_dict(data)
        runner = ScenarioRunner(spec)
        artifact = runner.run(["steady", "snr"])
        links = artifact.section("snr")["nominal"]["links"]
        # Two hops on a 4-ONI ring: oni_00 talks to oni_02, not oni_01.
        assert any("oni_00->oni_02" in name for name in links)


class TestArtifact:
    def test_json_round_trip(self, small_artifact):
        rebuilt = ScenarioArtifact.from_json(small_artifact.to_json())
        assert rebuilt.to_dict() == small_artifact.to_dict()

    def test_unknown_section_rejected(self, small_artifact):
        with pytest.raises(ConfigurationError, match="no 'nope' section"):
            small_artifact.section("nope")

    def test_malformed_document_rejected(self):
        with pytest.raises(ConfigurationError, match="spec_hash"):
            ScenarioArtifact.from_dict({"scenario": "x"})

    def test_artifact_embeds_spec_hash(self, small_spec, small_artifact):
        assert small_artifact.spec_hash == small_spec.content_hash()


class TestGoldenComparison:
    def test_identical_artifacts_agree(self, small_artifact):
        data = small_artifact.to_dict()
        assert compare_artifact_dicts(data, json.loads(json.dumps(data))) == []

    def test_temperature_drift_beyond_tolerance_detected(self, small_artifact):
        drifted = json.loads(small_artifact.to_json())
        drifted["results"]["steady"]["max_oni_temperature_c"] += 0.01
        mismatches = compare_artifact_dicts(small_artifact.to_dict(), drifted)
        assert len(mismatches) == 1
        assert "max_oni_temperature_c" in mismatches[0]

    def test_drift_within_tolerance_accepted(self, small_artifact):
        drifted = json.loads(small_artifact.to_json())
        drifted["results"]["steady"]["max_oni_temperature_c"] *= 1.0 + 1.0e-9
        assert compare_artifact_dicts(small_artifact.to_dict(), drifted) == []

    def test_structural_changes_detected(self, small_artifact):
        drifted = json.loads(small_artifact.to_json())
        del drifted["results"]["steady"]["gradient_c"]
        drifted["results"]["extra"] = 1
        mismatches = compare_artifact_dicts(small_artifact.to_dict(), drifted)
        assert any("missing keys" in m for m in mismatches)
        assert any("unexpected keys" in m for m in mismatches)

    def test_boolean_flip_detected(self, small_artifact):
        drifted = json.loads(small_artifact.to_json())
        point = drifted["results"]["snr"]["per_point"][0]
        point["all_detected"] = not point["all_detected"]
        mismatches = compare_artifact_dicts(small_artifact.to_dict(), drifted)
        assert any("all_detected" in m for m in mismatches)

    def test_per_link_snr_values_use_the_snr_band(self, small_artifact):
        # Link-name keys carry no suffix: they must inherit the SNR band of
        # their 'links' container (rtol 1e-4), not the default 1e-6 band.
        drifted = json.loads(small_artifact.to_json())
        links = drifted["results"]["snr"]["nominal"]["links"]
        name = next(iter(links))
        links[name] *= 1.0 + 5.0e-6  # within snr band, beyond default band
        assert compare_artifact_dicts(small_artifact.to_dict(), drifted) == []
        links[name] += 1.0e-2  # beyond the snr band
        mismatches = compare_artifact_dicts(small_artifact.to_dict(), drifted)
        assert len(mismatches) == 1 and name in mismatches[0]

    def test_integers_compare_exactly(self, small_artifact):
        drifted = json.loads(small_artifact.to_json())
        drifted["results"]["transient"]["recorded_steps"] += 1
        mismatches = compare_artifact_dicts(small_artifact.to_dict(), drifted)
        assert any("recorded_steps" in m for m in mismatches)

    def test_spec_hash_change_detected(self, small_artifact):
        drifted = json.loads(small_artifact.to_json())
        drifted["spec_hash"] = "0" * 64
        mismatches = compare_artifact_dicts(small_artifact.to_dict(), drifted)
        assert any("spec_hash" in m for m in mismatches)
