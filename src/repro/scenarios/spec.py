"""Declarative scenario specifications.

A :class:`ScenarioSpec` captures one complete end-to-end configuration of the
library — chip geometry and package, mesh resolutions, ORNoC ring and ONI
placement, the ONI operating point, the chip workload and an optional
activity trace — as plain JSON-serialisable data.  The same spec can be
replayed through every engine of the repository (steady state, sweeps,
batched SNR, transient) by the :class:`~repro.scenarios.runner.ScenarioRunner`,
and its :meth:`~ScenarioSpec.content_hash` pins the configuration for the
golden-regression harness.

Specs validate eagerly: :meth:`ScenarioSpec.from_dict` checks every field
against the schema (types, ranges, enumerations, unknown keys) and raises
:class:`~repro.errors.ConfigurationError` with the offending JSON path.  The
machine-readable schema itself is exported by :func:`scenario_json_schema`
(a JSON-Schema-style document, used by the README authoring guide).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from .. import constants
from ..errors import ConfigurationError

#: Version of the spec/artifact layout; bumped on breaking schema changes so
#: stale golden artifacts fail loudly instead of drifting silently.
SCHEMA_VERSION = 1

#: Workload kinds understood by the runner (mapped onto repro.activity).
WORKLOAD_KINDS = (
    "uniform",
    "diagonal",
    "random",
    "hotspot",
    "checkerboard",
    "gradient",
)

#: Trace kinds understood by the runner (mapped onto SyntheticTraceGenerator
#: streams, plus the hand-built "two_phase" low/high alternation).
TRACE_KINDS = ("migration", "ramp", "random_walk", "two_phase")


# --------------------------------------------------------------------------
# Schema machinery
# --------------------------------------------------------------------------

_JSON_TYPES: Dict[str, Tuple[type, ...]] = {
    "number": (int, float),
    "integer": (int,),
    "string": (str,),
    "boolean": (bool,),
    "array": (list, tuple),
    "object": (dict,),
    "string_or_number": (str, int, float),
}


def _validate_value(value: Any, entry: Mapping[str, Any], path: str) -> None:
    """Validate one JSON value against a schema entry (raises on mismatch)."""
    type_name = entry["type"]
    allowed = _JSON_TYPES[type_name]
    if isinstance(value, bool) and type_name in (
        "number",
        "integer",
        "string_or_number",
    ):
        raise ConfigurationError(f"{path}: expected a {type_name}, got a boolean")
    if not isinstance(value, allowed):
        raise ConfigurationError(
            f"{path}: expected a {type_name}, got {type(value).__name__}"
        )
    if "enum" in entry and value not in entry["enum"]:
        raise ConfigurationError(
            f"{path}: {value!r} is not one of {sorted(entry['enum'])}"
        )
    if "minimum" in entry and value < entry["minimum"]:
        raise ConfigurationError(
            f"{path}: {value!r} is below the minimum {entry['minimum']!r}"
        )
    if "exclusiveMinimum" in entry and value <= entry["exclusiveMinimum"]:
        raise ConfigurationError(
            f"{path}: {value!r} must be strictly greater than "
            f"{entry['exclusiveMinimum']!r}"
        )
    if "maximum" in entry and value > entry["maximum"]:
        raise ConfigurationError(
            f"{path}: {value!r} is above the maximum {entry['maximum']!r}"
        )
    if type_name == "array":
        item_entry = entry.get("items")
        if item_entry is not None:
            for index, item in enumerate(value):
                _validate_value(item, item_entry, f"{path}[{index}]")
        if "minItems" in entry and len(value) < entry["minItems"]:
            raise ConfigurationError(
                f"{path}: needs at least {entry['minItems']} items"
            )
    if type_name == "object" and entry.get("valueTypes"):
        allowed_value_types = entry["valueTypes"]
        for key, item in value.items():
            if not isinstance(key, str):
                raise ConfigurationError(f"{path}: keys must be strings")
            # bool subclasses int: accept it only when listed explicitly.
            if isinstance(item, bool):
                allowed = bool in allowed_value_types
            else:
                allowed = isinstance(item, allowed_value_types)
            if not allowed:
                raise ConfigurationError(
                    f"{path}.{key}: unsupported value {item!r}"
                )


def _build_section(cls: type, data: Any, path: str) -> Any:
    """Validate ``data`` against ``cls.SCHEMA`` and build the dataclass."""
    schema: Mapping[str, Mapping[str, Any]] = cls.SCHEMA
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"{path}: expected an object, got {type(data).__name__}"
        )
    unknown = sorted(set(data) - set(schema))
    if unknown:
        raise ConfigurationError(f"{path}: unknown fields {unknown}")
    kwargs: Dict[str, Any] = {}
    for name, entry in schema.items():
        if name not in data:
            if entry.get("required"):
                raise ConfigurationError(f"{path}.{name}: required field missing")
            continue
        value = data[name]
        if value is None:
            if not entry.get("nullable"):
                raise ConfigurationError(f"{path}.{name}: must not be null")
            kwargs[name] = None
            continue
        _validate_value(value, entry, f"{path}.{name}")
        if entry["type"] == "array":
            value = tuple(value)
        elif entry["type"] == "object":
            value = dict(value)
        kwargs[name] = value
    return cls(**kwargs)


def _plain(value: Any) -> Any:
    """Recursively convert a spec value into plain JSON data."""
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if hasattr(value, "to_dict"):
        return value.to_dict()
    return value


def _section_dict(section: Any) -> Dict[str, Any]:
    """Plain-dict view of one sub-spec, in schema field order."""
    return {
        name: _plain(getattr(section, name)) for name in type(section).SCHEMA
    }


def canonical_json(data: Any) -> str:
    """Canonical JSON used for hashing and golden artifacts.

    Keys are sorted and separators fixed, so equal content always produces
    the identical byte sequence regardless of dict construction order.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def json_digest(data: Any) -> str:
    """SHA-256 (hex) of the canonical JSON of ``data``."""
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# Sub-specifications
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ChipSpec:
    """Die geometry and floorplan of the scenario's chip.

    Defaults reproduce the Intel-SCC-like case study (26.5 x 21.4 mm die,
    6x4 tiles, asymmetric infrastructure blocks).  ``package_overrides``
    passes any other :class:`~repro.casestudy.SccPackageParameters` field
    through verbatim (layer thicknesses, package margin, TSV fraction).
    """

    die_width_mm: float = constants.SCC_DIE_WIDTH_MM
    die_height_mm: float = constants.SCC_DIE_HEIGHT_MM
    tile_columns: int = constants.SCC_TILE_GRID[0]
    tile_rows: int = constants.SCC_TILE_GRID[1]
    include_infrastructure: bool = True
    package_overrides: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # The first-class fields above are the authoritative spelling of
        # these parameters; letting package_overrides shadow them would make
        # the spec self-inconsistent (listing says 14 mm, mesh is 26.5 mm).
        first_class = {
            "die_width_mm",
            "die_height_mm",
            "tile_columns",
            "tile_rows",
            "include_infrastructure",
        }
        shadowed = sorted(first_class & set(self.package_overrides))
        if shadowed:
            raise ConfigurationError(
                f"chip.package_overrides must not shadow the chip section's "
                f"own fields {shadowed}; set them directly on the chip spec"
            )

    SCHEMA = {
        "die_width_mm": {
            "type": "number",
            "exclusiveMinimum": 0.0,
            "description": "Die width [mm].",
        },
        "die_height_mm": {
            "type": "number",
            "exclusiveMinimum": 0.0,
            "description": "Die height [mm].",
        },
        "tile_columns": {
            "type": "integer",
            "minimum": 1,
            "description": "Tile grid columns.",
        },
        "tile_rows": {
            "type": "integer",
            "minimum": 1,
            "description": "Tile grid rows.",
        },
        "include_infrastructure": {
            "type": "boolean",
            "description": "Add the SCC-style memory controllers / system interface.",
        },
        "package_overrides": {
            "type": "object",
            "valueTypes": (int, float, bool),
            "description": "Extra SccPackageParameters fields, passed verbatim.",
        },
    }


@dataclass(frozen=True)
class MeshSpec:
    """Numerical resolution of the thermal solves."""

    oni_cell_size_um: float = 400.0
    die_cell_size_um: float = 3000.0
    zoom_cell_size_um: float = 25.0
    ambient_c: float = 35.0

    SCHEMA = {
        "oni_cell_size_um": {
            "type": "number",
            "exclusiveMinimum": 0.0,
            "description": "Lateral cell size inside ONI footprints [um].",
        },
        "die_cell_size_um": {
            "type": "number",
            "exclusiveMinimum": 0.0,
            "description": "Lateral cell size over the die [um].",
        },
        "zoom_cell_size_um": {
            "type": "number",
            "exclusiveMinimum": 0.0,
            "description": "Cell size of the device-scale zoom solver [um].",
        },
        "ambient_c": {
            "type": "number",
            "description": "Convective ambient temperature [degC].",
        },
    }


@dataclass(frozen=True)
class NetworkSpec:
    """ORNoC ring, ONI placement and traffic of the scenario."""

    ring_length_mm: float = 18.0
    oni_count: int = 6
    shift_hops: Optional[int] = None
    waveguide_count: Optional[int] = None
    channels_per_waveguide: Optional[int] = None

    SCHEMA = {
        "ring_length_mm": {
            "type": "number",
            "exclusiveMinimum": 0.0,
            "description": "Ring waveguide length [mm]; the rect must fit the die.",
        },
        "oni_count": {
            "type": "integer",
            "minimum": 2,
            "description": "ONIs placed evenly along the ring.",
        },
        "shift_hops": {
            "type": "integer",
            "minimum": 1,
            "nullable": True,
            "description": "Hops of the shift traffic (null: one third of the ring).",
        },
        "waveguide_count": {
            "type": "integer",
            "minimum": 1,
            "nullable": True,
            "description": "Ring waveguides (null: the ONI layout's count).",
        },
        "channels_per_waveguide": {
            "type": "integer",
            "minimum": 1,
            "nullable": True,
            "description": "WDM channels per waveguide (null: layout default).",
        },
    }


@dataclass(frozen=True)
class PowerSpec:
    """ONI operating point and laser drive policy."""

    vcsel_power_mw: float = 3.6
    heater_ratio: float = 0.3
    driver_power_mw: Optional[float] = None
    drive_power_mw: Optional[float] = None

    SCHEMA = {
        "vcsel_power_mw": {
            "type": "number",
            "minimum": 0.0,
            "description": "Dissipated power per VCSEL [mW] (PVCSEL).",
        },
        "heater_ratio": {
            "type": "number",
            "minimum": 0.0,
            "description": "Pheater = ratio x PVCSEL (the paper's design knob).",
        },
        "driver_power_mw": {
            "type": "number",
            "minimum": 0.0,
            "nullable": True,
            "description": "Per-driver power [mW] (null: worst case = PVCSEL).",
        },
        "drive_power_mw": {
            "type": "number",
            "exclusiveMinimum": 0.0,
            "nullable": True,
            "description": "Dissipated-power drive of the SNR analysis [mW] "
            "(null: PVCSEL).",
        },
    }


@dataclass(frozen=True)
class WorkloadSpec:
    """Chip activity of the scenario."""

    kind: str = "uniform"
    total_power_w: float = 25.0
    seed: int = 0
    infrastructure_fraction: float = 0.0
    params: Dict[str, Union[float, str]] = field(default_factory=dict)

    SCHEMA = {
        "kind": {
            "type": "string",
            "enum": list(WORKLOAD_KINDS),
            "description": "Activity pattern family.",
        },
        "total_power_w": {
            "type": "number",
            "minimum": 0.0,
            "description": "Total chip power [W] (tiles + infrastructure).",
        },
        "seed": {
            "type": "integer",
            "minimum": 0,
            "description": "Seed of randomised patterns.",
        },
        "infrastructure_fraction": {
            "type": "number",
            "minimum": 0.0,
            "maximum": 0.99,
            "description": "Share of the total power on the infrastructure blocks.",
        },
        "params": {
            "type": "object",
            "valueTypes": (int, float, str),
            "description": "Pattern-specific knobs (hotspot_fraction, contrast, ...).",
        },
    }


@dataclass(frozen=True)
class TraceSpec:
    """Activity trace of the transient path."""

    kind: str = "two_phase"
    phases: int = 4
    phase_duration_s: float = 2.0
    seed: int = 0
    dt_s: float = 0.5
    initial: Union[str, float] = "steady"
    params: Dict[str, Union[float, str]] = field(default_factory=dict)

    SCHEMA = {
        "kind": {
            "type": "string",
            "enum": list(TRACE_KINDS),
            "description": "Trace family.",
        },
        "phases": {
            "type": "integer",
            "minimum": 2,
            "description": "Number of phases of the trace.",
        },
        "phase_duration_s": {
            "type": "number",
            "exclusiveMinimum": 0.0,
            "description": "Duration of each phase [s].",
        },
        "seed": {
            "type": "integer",
            "minimum": 0,
            "description": "Seed of randomised traces.",
        },
        "dt_s": {
            "type": "number",
            "exclusiveMinimum": 0.0,
            "description": "Integrator step size [s].",
        },
        "initial": {
            "type": "string_or_number",
            "description": "'ambient', 'steady' or a uniform temperature in degC.",
        },
        "params": {
            "type": "object",
            "valueTypes": (int, float, str),
            "description": "Trace-specific knobs (active_fraction, low_fraction, ...).",
        },
    }

    def __post_init__(self) -> None:
        if isinstance(self.initial, str) and self.initial not in ("ambient", "steady"):
            raise ConfigurationError(
                "trace.initial must be 'ambient', 'steady' or a number, got "
                f"{self.initial!r}"
            )


# --------------------------------------------------------------------------
# The scenario specification
# --------------------------------------------------------------------------


#: Sections of a :class:`ScenarioSpec` its design flow is built from.
FLOW_SECTIONS: Tuple[str, ...] = ("chip", "mesh", "network", "power")


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully declarative end-to-end scenario."""

    name: str
    description: str = ""
    chip: ChipSpec = field(default_factory=ChipSpec)
    mesh: MeshSpec = field(default_factory=MeshSpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    power: PowerSpec = field(default_factory=PowerSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    trace: Optional[TraceSpec] = field(default_factory=TraceSpec)
    #: PVCSEL multipliers of the sweep / batched-SNR paths.
    sweep_scales: Tuple[float, ...] = (0.75, 1.0, 1.25)
    #: SNR floor of the transient time-below-floor summary [dB].
    snr_floor_db: float = 15.0

    _SECTIONS = {
        "chip": ChipSpec,
        "mesh": MeshSpec,
        "network": NetworkSpec,
        "power": PowerSpec,
        "workload": WorkloadSpec,
        "trace": TraceSpec,
    }

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario name must be non-empty")
        if not self.sweep_scales:
            raise ConfigurationError("sweep_scales must be non-empty")
        for scale in self.sweep_scales:
            if not scale > 0.0:
                raise ConfigurationError(
                    f"sweep scales must be positive, got {scale!r}"
                )
        object.__setattr__(self, "sweep_scales", tuple(self.sweep_scales))

    # Serialisation ---------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-serialisable view of the spec (full round trip)."""
        data: Dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "description": self.description,
        }
        for section_name in ("chip", "mesh", "network", "power", "workload"):
            data[section_name] = _section_dict(getattr(self, section_name))
        data["trace"] = None if self.trace is None else _section_dict(self.trace)
        data["sweep_scales"] = list(self.sweep_scales)
        data["snr_floor_db"] = self.snr_floor_db
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Validate a plain dict against the schema and build the spec."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"scenario: expected an object, got {type(data).__name__}"
            )
        known = {
            "schema_version",
            "name",
            "description",
            "sweep_scales",
            "snr_floor_db",
            *cls._SECTIONS,
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(f"scenario: unknown fields {unknown}")
        version = data.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigurationError(
                f"scenario: schema version {version!r} is not supported "
                f"(expected {SCHEMA_VERSION})"
            )
        name = data.get("name")
        if not isinstance(name, str) or not name:
            raise ConfigurationError("scenario.name: required non-empty string")
        description = data.get("description", "")
        if not isinstance(description, str):
            raise ConfigurationError("scenario.description: expected a string")

        kwargs: Dict[str, Any] = {"name": name, "description": description}
        for section_name, section_cls in cls._SECTIONS.items():
            if section_name not in data:
                continue
            section_data = data[section_name]
            if section_data is None:
                if section_name != "trace":
                    raise ConfigurationError(
                        f"scenario.{section_name}: must not be null"
                    )
                kwargs["trace"] = None
                continue
            kwargs[section_name] = _build_section(
                section_cls, section_data, f"scenario.{section_name}"
            )
        if "sweep_scales" in data:
            _validate_value(
                data["sweep_scales"],
                {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0.0},
                    "minItems": 1,
                },
                "scenario.sweep_scales",
            )
            kwargs["sweep_scales"] = tuple(data["sweep_scales"])
        if "snr_floor_db" in data:
            _validate_value(
                data["snr_floor_db"], {"type": "number"}, "scenario.snr_floor_db"
            )
            kwargs["snr_floor_db"] = data["snr_floor_db"]
        return cls(**kwargs)

    def to_json(self, indent: Optional[int] = 2) -> str:
        """JSON document of the spec."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse and validate a JSON document."""
        return cls.from_dict(json.loads(text))

    # Content hashing -------------------------------------------------------

    def content_hash(self) -> str:
        """SHA-256 over the canonical JSON of the spec (hex digest).

        Two specs with equal content hash identically regardless of how they
        were constructed (object graph, parsed JSON, re-serialised dict); any
        single changed leaf changes the hash.  Golden artifacts embed this
        hash, so a spec edit without a golden refresh fails loudly.

        Memoised on the instance together with :meth:`design_hash`, both
        from one :meth:`to_dict`: a spec is frozen (its mapping fields are
        read-only by convention too), and campaigns and service requests
        ask for both hashes.
        """
        return self._spec_hashes()[0]

    def short_hash(self) -> str:
        """First 12 hex characters of :meth:`content_hash` (bench/report IDs)."""
        return self.content_hash()[:12]

    def design_hash(self) -> str:
        """SHA-256 over the spec's *physical* content (hex digest).

        Like :meth:`content_hash` but with the ``name`` and ``description``
        metadata stripped, so two differently named specs describing the same
        chip / network / workload configuration hash identically.  The
        campaign matrix expansion deduplicates on this hash.
        """
        return self._spec_hashes()[1]

    def flow_hash(self) -> str:
        """SHA-256 over the sections a design flow is built from (hex digest).

        Covers :data:`FLOW_SECTIONS` only, so specs that differ in their
        name, description, workload, trace or sweep share one flow (see
        :meth:`repro.scenarios.ScenarioRunner.flow`).
        """
        memo = self.__dict__.get("_flow_hash")
        if memo is None:
            memo = json_digest(
                {name: _section_dict(getattr(self, name)) for name in FLOW_SECTIONS}
            )
            object.__setattr__(self, "_flow_hash", memo)
        return memo

    def _spec_hashes(self) -> Tuple[str, str]:
        """``(content hash, design hash)`` from one :meth:`to_dict`, memoised."""
        memo = self.__dict__.get("_hashes")
        if memo is None:
            data = self.to_dict()
            content = json_digest(data)
            del data["name"], data["description"]
            memo = (content, json_digest(data))
            object.__setattr__(self, "_hashes", memo)
        return memo

    # Parametrization -------------------------------------------------------

    def with_overrides(self, overrides: Mapping[str, Any]) -> "ScenarioSpec":
        """Spec with dotted-path overrides applied (validating round trip).

        Each key is a dotted JSON path into :meth:`to_dict`
        (``"network.ring_length_mm"``, ``"workload.kind"``, ``"name"``); the
        value replaces the leaf — or a whole section when the path names one
        (``"trace": None`` drops the trace, ``"chip": {...}`` replaces the
        chip).  The patched document is rebuilt through :meth:`from_dict`, so
        every override is schema-validated and an unknown path or ill-typed
        value raises :class:`~repro.errors.ConfigurationError` exactly as a
        hand-written JSON document would.
        """
        data = self.to_dict()
        # Deterministic application order (overrides may share a section).
        for path in sorted(overrides):
            value = overrides[path]
            parts = path.split(".")
            node: Any = data
            for part in parts[:-1]:
                child = node.get(part) if isinstance(node, dict) else None
                if not isinstance(child, dict):
                    raise ConfigurationError(
                        f"override {path!r}: {part!r} is not a spec section"
                    )
                node = child
            node[parts[-1]] = _plain(value)
        return type(self).from_dict(data)


def scenario_json_schema() -> Dict[str, Any]:
    """JSON-Schema-style document describing :class:`ScenarioSpec`.

    Hand-assembled from the per-section ``SCHEMA`` tables (the same tables
    validation runs on), so the document can never drift from the validator.
    """

    def section_schema(section_cls: type) -> Dict[str, Any]:
        properties: Dict[str, Any] = {}
        for field_name, entry in section_cls.SCHEMA.items():
            prop = {
                key: value
                for key, value in entry.items()
                if key not in ("required", "nullable", "valueTypes")
            }
            if prop["type"] == "string_or_number":
                prop["type"] = ["string", "number"]
            if entry.get("nullable"):
                prop["type"] = (
                    prop["type"] + ["null"]
                    if isinstance(prop["type"], list)
                    else [prop["type"], "null"]
                )
            properties[field_name] = prop
        return {
            "type": "object",
            "additionalProperties": False,
            "properties": properties,
        }

    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "title": "ScenarioSpec",
        "type": "object",
        "additionalProperties": False,
        "required": ["name"],
        "properties": {
            "schema_version": {"type": "integer", "const": SCHEMA_VERSION},
            "name": {"type": "string", "minLength": 1},
            "description": {"type": "string"},
            "chip": section_schema(ChipSpec),
            "mesh": section_schema(MeshSpec),
            "network": section_schema(NetworkSpec),
            "power": section_schema(PowerSpec),
            "workload": section_schema(WorkloadSpec),
            "trace": section_schema(TraceSpec),
            "sweep_scales": {
                "type": "array",
                "items": {"type": "number", "exclusiveMinimum": 0},
                "minItems": 1,
            },
            "snr_floor_db": {"type": "number"},
        },
    }
