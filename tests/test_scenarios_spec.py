"""Spec layer of the scenario subsystem: validation, round trips, hashing."""

import dataclasses
import hashlib
import json

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import (
    SCHEMA_VERSION,
    ChipSpec,
    NetworkSpec,
    ScenarioSpec,
    TraceSpec,
    WorkloadSpec,
    builtin_scenarios,
    canonical_json,
    default_registry,
    scenario_json_schema,
)
from repro.scenarios.registry import ScenarioRegistry


class TestRoundTrip:
    def test_to_dict_from_dict_round_trip(self):
        for spec in builtin_scenarios():
            rebuilt = ScenarioSpec.from_dict(spec.to_dict())
            assert rebuilt == spec
            assert rebuilt.content_hash() == spec.content_hash()

    def test_json_round_trip_through_text(self):
        spec = default_registry().get("scc_diagonal_32mm")
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        assert rebuilt == spec

    def test_round_trip_survives_json_reserialisation(self):
        spec = default_registry().get("small_die_hotspot")
        # A dict that went through text has lists instead of tuples etc.
        data = json.loads(json.dumps(spec.to_dict()))
        assert ScenarioSpec.from_dict(data).content_hash() == spec.content_hash()

    def test_trace_may_be_null(self):
        data = ScenarioSpec(name="no_trace", trace=None).to_dict()
        assert data["trace"] is None
        rebuilt = ScenarioSpec.from_dict(data)
        assert rebuilt.trace is None

    def test_defaults_fill_missing_sections(self):
        spec = ScenarioSpec.from_dict({"name": "bare"})
        assert spec.chip == ChipSpec()
        assert spec.network == NetworkSpec()
        assert spec.sweep_scales == (0.75, 1.0, 1.25)


class TestValidation:
    def test_missing_name_rejected(self):
        with pytest.raises(ConfigurationError, match="name"):
            ScenarioSpec.from_dict({})

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fields"):
            ScenarioSpec.from_dict({"name": "x", "nonsense": 1})

    def test_unknown_section_field_named_in_path(self):
        with pytest.raises(ConfigurationError, match="scenario.network"):
            ScenarioSpec.from_dict({"name": "x", "network": {"rings": 3}})

    def test_wrong_type_rejected_with_path(self):
        with pytest.raises(ConfigurationError, match="scenario.chip.die_width_mm"):
            ScenarioSpec.from_dict(
                {"name": "x", "chip": {"die_width_mm": "wide"}}
            )

    def test_boolean_is_not_a_number(self):
        with pytest.raises(ConfigurationError, match="boolean"):
            ScenarioSpec.from_dict(
                {"name": "x", "chip": {"die_width_mm": True}}
            )

    def test_enum_violation_rejected(self):
        with pytest.raises(ConfigurationError, match="workload.kind"):
            ScenarioSpec.from_dict(
                {"name": "x", "workload": {"kind": "lava_lamp"}}
            )

    def test_range_violation_rejected(self):
        with pytest.raises(ConfigurationError, match="oni_count"):
            ScenarioSpec.from_dict(
                {"name": "x", "network": {"oni_count": 1}}
            )

    def test_package_overrides_pass_through_numbers(self):
        spec = ScenarioSpec.from_dict(
            {
                "name": "x",
                "chip": {"package_overrides": {"lid_thickness_um": 1500.0}},
            }
        )
        assert spec.chip.package_overrides["lid_thickness_um"] == 1500.0

    def test_package_overrides_must_not_shadow_chip_fields(self):
        with pytest.raises(ConfigurationError, match="shadow"):
            ScenarioSpec.from_dict(
                {
                    "name": "x",
                    "chip": {
                        "die_width_mm": 14.0,
                        "package_overrides": {"die_width_mm": 26.5},
                    },
                }
            )

    def test_value_types_accept_bool_only_when_listed(self):
        from repro.scenarios.spec import _validate_value

        entry = {"type": "object", "valueTypes": (str, bool)}
        _validate_value({"flag": True, "label": "x"}, entry, "p")  # no raise
        with pytest.raises(ConfigurationError, match="unsupported value"):
            _validate_value({"count": 3}, entry, "p")

    def test_trace_initial_rejects_booleans(self):
        with pytest.raises(ConfigurationError, match="boolean"):
            ScenarioSpec.from_dict(
                {"name": "x", "trace": {"initial": True}}
            )

    def test_workload_params_reject_booleans(self):
        # bool is not in the params valueTypes (numbers and strings only).
        with pytest.raises(ConfigurationError, match="unsupported value"):
            ScenarioSpec.from_dict(
                {"name": "x", "workload": {"params": {"flag": True}}}
            )

    def test_null_only_where_nullable(self):
        with pytest.raises(ConfigurationError, match="must not be null"):
            ScenarioSpec.from_dict({"name": "x", "mesh": None})
        # shift_hops is nullable.
        spec = ScenarioSpec.from_dict(
            {"name": "x", "network": {"shift_hops": None}}
        )
        assert spec.network.shift_hops is None

    def test_unsupported_schema_version_rejected(self):
        with pytest.raises(ConfigurationError, match="schema version"):
            ScenarioSpec.from_dict(
                {"name": "x", "schema_version": SCHEMA_VERSION + 1}
            )

    def test_empty_sweep_scales_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="x", sweep_scales=())

    def test_nonpositive_sweep_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict({"name": "x", "sweep_scales": [1.0, 0.0]})

    def test_trace_initial_validated(self):
        with pytest.raises(ConfigurationError, match="initial"):
            TraceSpec(initial="lukewarm")
        assert TraceSpec(initial=40.0).initial == 40.0
        assert TraceSpec(initial="ambient").initial == "ambient"


class TestContentHash:
    def test_builtin_hashes_pairwise_distinct(self):
        hashes = [spec.content_hash() for spec in builtin_scenarios()]
        assert len(set(hashes)) == len(hashes)

    def test_any_leaf_change_changes_hash(self):
        base = ScenarioSpec(name="x")
        variants = [
            ScenarioSpec(name="y"),
            ScenarioSpec(name="x", description="d"),
            ScenarioSpec(name="x", chip=ChipSpec(die_width_mm=20.0)),
            ScenarioSpec(name="x", network=NetworkSpec(oni_count=8)),
            ScenarioSpec(name="x", workload=WorkloadSpec(seed=1)),
            ScenarioSpec(name="x", trace=TraceSpec(dt_s=0.25)),
            ScenarioSpec(name="x", trace=None),
            ScenarioSpec(name="x", sweep_scales=(1.0,)),
            ScenarioSpec(name="x", snr_floor_db=10.0),
        ]
        hashes = {base.content_hash()} | {v.content_hash() for v in variants}
        assert len(hashes) == len(variants) + 1

    def test_hash_is_construction_independent(self):
        built = ScenarioSpec(
            name="x", workload=WorkloadSpec(kind="hotspot", total_power_w=9.0)
        )
        parsed = ScenarioSpec.from_json(built.to_json())
        assert built.content_hash() == parsed.content_hash()

    def test_hashes_are_memoised_per_instance(self, monkeypatch):
        spec = ScenarioSpec(name="x")
        content, design = spec.content_hash(), spec.design_hash()
        calls = []
        monkeypatch.setattr(
            ScenarioSpec, "to_dict", lambda self: calls.append(self) or {}
        )
        assert (spec.content_hash(), spec.design_hash()) == (content, design)
        assert calls == []
        # A derived spec is a new instance and hashes its own content.
        monkeypatch.undo()
        renamed = dataclasses.replace(spec, name="y")
        assert renamed.content_hash() != content
        assert renamed.design_hash() == design
        assert spec == ScenarioSpec(name="x")

    def test_both_hashes_come_from_one_encoding(self, monkeypatch):
        spec = ScenarioSpec(name="x", description="d")
        document = spec.to_dict()
        physical = {
            key: value
            for key, value in document.items()
            if key not in ("name", "description")
        }
        real = ScenarioSpec.to_dict
        calls = []
        monkeypatch.setattr(
            ScenarioSpec, "to_dict", lambda self: calls.append(self) or real(self)
        )
        design, content = spec.design_hash(), spec.content_hash()
        assert len(calls) == 1

        def digest(data):
            return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()

        assert (content, design) == (digest(document), digest(physical))

    def test_short_hash_prefixes_content_hash(self):
        spec = ScenarioSpec(name="x")
        assert spec.content_hash().startswith(spec.short_hash())
        assert len(spec.short_hash()) == 12


class TestRegistry:
    def test_default_registry_has_six_builtins(self):
        registry = default_registry()
        assert len(registry) >= 6
        assert "scc_case_study" in registry

    def test_get_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            default_registry().get("nope")

    def test_reregistering_identical_spec_is_idempotent(self):
        registry = ScenarioRegistry()
        spec = ScenarioSpec(name="x")
        registry.register(spec)
        registry.register(ScenarioSpec(name="x"))
        assert len(registry) == 1

    def test_conflicting_redefinition_rejected(self):
        registry = ScenarioRegistry()
        registry.register(ScenarioSpec(name="x"))
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register(ScenarioSpec(name="x", snr_floor_db=9.0))
        registry.register(
            ScenarioSpec(name="x", snr_floor_db=9.0), overwrite=True
        )
        assert registry.get("x").snr_floor_db == 9.0

    def test_registry_to_dict_round_trips(self):
        registry = default_registry()
        for name, data in registry.to_dict().items():
            assert ScenarioSpec.from_dict(data) == registry.get(name)


class TestJsonSchema:
    def test_schema_covers_every_section(self):
        schema = scenario_json_schema()
        for section in ("chip", "mesh", "network", "power", "workload", "trace"):
            assert section in schema["properties"]
            assert schema["properties"][section]["additionalProperties"] is False

    def test_schema_matches_validator_fields(self):
        schema = scenario_json_schema()
        from repro.scenarios.spec import MeshSpec

        assert set(schema["properties"]["mesh"]["properties"]) == set(
            MeshSpec.SCHEMA
        )

    def test_schema_is_json_serialisable(self):
        json.dumps(scenario_json_schema())
