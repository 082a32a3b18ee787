"""ArtifactStore: round trips, integrity faults, eviction, concurrency.

The store has one on-disk layout, flat ``objects/<key>.json``.  Every
behaviour test below runs twice through the ``layout``/``store``/
``make_store`` fixtures: on a fresh root (``flat``) and on a root an older
release left in its sharded layout (``sharded``: the empty
``objects/<xx>/`` directories a cleared sharded store leaves behind), which
opening must flatten.  ``TestLayout`` migrates legacy sharded stores that
still hold objects.
"""

import hashlib
import json
import os
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import telemetry
from repro.errors import ConfigurationError
from repro.campaigns import STORE_VERSION, ArtifactStore
from repro.campaigns.store import artifact_key
from repro.scenarios import (
    ALL_PATHS,
    ScenarioArtifact,
    ScenarioSpec,
    canonical_json,
    default_registry,
)
from repro.thermal import BasisScope, ReducedBasis


def make_spec(index: int = 0) -> ScenarioSpec:
    return ScenarioSpec(name=f"store_spec_{index}").with_overrides(
        {"workload.total_power_w": 10.0 + index}
    )


def make_artifact(spec: ScenarioSpec) -> ScenarioArtifact:
    return ScenarioArtifact(
        scenario=spec.name,
        spec_hash=spec.content_hash(),
        schema_version=1,
        results={"steady": {"max_oni_temperature_c": 50.0}},
    )


def start_root(root, layout):
    """Prepare ``root`` in a starting layout (see the module docstring)."""
    if layout == "sharded":
        for shard in ("0a", "7f", "ff"):
            (root / "objects" / shard).mkdir(parents=True, exist_ok=True)
    return root


def open_flat(root, layout, **kwargs):
    """Open a store on a prepared root; no shard directory may survive."""
    store = ArtifactStore(start_root(root, layout), **kwargs)
    assert not [path for path in (root / "objects").glob("*") if path.is_dir()]
    return store


@pytest.fixture(params=["flat", "sharded"])
def layout(request):
    """Starting layout of the store roots: every class below passes on each."""
    return request.param


@pytest.fixture
def store(tmp_path, layout):
    return open_flat(tmp_path / "store", layout)


@pytest.fixture
def make_store(tmp_path, layout):
    """Store factory on the parametrized starting layout (explicit roots)."""

    def _make(name="store", **kwargs):
        return open_flat(tmp_path / name, layout, **kwargs)

    return _make


def write_legacy_store(root, specs):
    """Write ``specs`` as a sharded ``objects/<key[:2]>/<key>.json`` store,
    record by record, as older releases laid it out; returns the keys."""
    addresses = ArtifactStore(root / "unused")  # keys and code version only
    keys = []
    for spec in specs:
        key = addresses.key_for(spec)
        payload = make_artifact(spec).to_dict()
        record = {
            "store_version": STORE_VERSION,
            "key": key,
            "scenario": spec.name,
            "spec_hash": spec.content_hash(),
            "paths": sorted(ALL_PATHS),
            "code_version": addresses.code_version,
            "payload": payload,
            "payload_sha256": hashlib.sha256(
                canonical_json(payload).encode("utf-8")
            ).hexdigest(),
        }
        shard = root / "objects" / key[:2]
        shard.mkdir(parents=True, exist_ok=True)
        (shard / f"{key}.json").write_text(json.dumps(record, sort_keys=True) + "\n")
        keys.append(key)
    return keys


class TestRoundTrip:
    def test_store_and_load(self, store):
        spec = make_spec()
        artifact = make_artifact(spec)
        key = store.store(spec, artifact, ALL_PATHS)
        loaded = store.load(spec, ALL_PATHS)
        assert loaded is not None
        assert loaded.to_dict() == artifact.to_dict()
        assert store.stats.hits == 1 and store.stats.writes == 1
        assert store.resolve_key(key[:10]) == key

    def test_miss_on_empty_store(self, store):
        assert store.load(make_spec(), ALL_PATHS) is None
        assert store.stats.misses == 1

    def test_key_depends_on_spec_paths_and_code_version(self, store, tmp_path):
        spec_a, spec_b = make_spec(0), make_spec(1)
        assert store.key_for(spec_a) != store.key_for(spec_b)
        assert store.key_for(spec_a, ("steady",)) != store.key_for(spec_a)
        # Path order does not matter; the set does.
        assert store.key_for(spec_a, ("snr", "steady")) == store.key_for(
            spec_a, ("steady", "snr")
        )
        other = ArtifactStore(tmp_path / "store", code_version="other")
        assert other.key_for(spec_a) != store.key_for(spec_a)

    def test_upgraded_code_version_does_not_serve_old_artifacts(self, tmp_path):
        spec = make_spec()
        old = ArtifactStore(tmp_path / "s", code_version="v1")
        old.store(spec, make_artifact(spec), ALL_PATHS)
        new = ArtifactStore(tmp_path / "s", code_version="v2")
        assert new.load(spec, ALL_PATHS) is None

    def test_addresses_are_the_digests_of_their_documents(self, tmp_path):
        # The documents are written out here, so a change of how an address
        # is derived (which strands every stored object) fails this test.
        store = ArtifactStore(tmp_path / "store", code_version="pinned")
        spec = make_spec()

        def digest(text):
            return hashlib.sha256(text.encode("utf-8")).hexdigest()

        artifact_document = (
            '{"code_version":"pinned",'
            '"paths":["snr","steady","sweep","transient"],'
            f'"spec_hash":"{spec.content_hash()}"'
        )
        paths = ("transient", "steady", "snr", "sweep", "steady")
        assert store.key_for(spec, paths) == digest(artifact_document + "}")
        assert store.key_for(spec, paths, "w4rm") == digest(
            artifact_document + ',"warm_start":"w4rm"}'
        )
        assert store._rom_basis_key("ab" * 8) == digest(
            '{"code_version":"pinned","rom_basis":"abababababababab"}'
        )

    def test_store_rejects_mismatched_artifact(self, store):
        spec = make_spec(0)
        with pytest.raises(ConfigurationError, match="spec hash"):
            store.store(spec, make_artifact(make_spec(1)), ALL_PATHS)

    def test_entries_and_sizes(self, store):
        specs = [make_spec(index) for index in range(3)]
        for spec in specs:
            store.store(spec, make_artifact(spec), ALL_PATHS)
        entries = store.entries()
        assert len(entries) == len(store) == 3
        assert {entry.scenario for entry in entries} == {
            spec.name for spec in specs
        }
        assert store.total_size_bytes() == sum(
            entry.size_bytes for entry in entries
        )
        store.clear()
        assert len(store) == 0


class TestDurability:
    def test_atomic_write_fsyncs_file_before_publishing(
        self, store, monkeypatch
    ):
        """Satellite fix: object bytes are fsynced to disk *before* the
        rename publishes them (then the directory entry, best-effort), so a
        power loss can leave a missing object but never a published
        truncated one."""
        from repro.campaigns import store as store_module

        events = []
        real_fsync, real_replace = store_module.os.fsync, store_module.os.replace

        def recording_fsync(fd):
            events.append("fsync")
            return real_fsync(fd)

        def recording_replace(src, dst):
            events.append("replace")
            return real_replace(src, dst)

        monkeypatch.setattr(store_module.os, "fsync", recording_fsync)
        monkeypatch.setattr(store_module.os, "replace", recording_replace)
        spec = make_spec()
        store.store(spec, make_artifact(spec), ALL_PATHS)
        assert "replace" in events
        # Every publish (object and index alike) is preceded by a file
        # fsync and followed by a directory fsync.
        for position, event in enumerate(events):
            if event == "replace":
                assert events[position - 1] == "fsync"
                assert position + 1 < len(events)
                assert events[position + 1] == "fsync"


class TestDeferredIndex:
    def test_one_index_write_for_the_whole_block(self, store, monkeypatch):
        writes = []
        real_write = ArtifactStore._write_index

        def counting_write(self, index):
            writes.append(sorted(index["entries"]))
            return real_write(self, index)

        monkeypatch.setattr(ArtifactStore, "_write_index", counting_write)
        specs = [make_spec(index) for index in range(3)]
        with store.deferred_index():
            keys = [store.store(spec, make_artifact(spec)) for spec in specs]
            assert writes == []
        assert writes == [sorted(keys)]
        # Recency follows the write order; every object is served.
        assert [entry.key for entry in store.entries()] == keys
        for spec in specs:
            assert store.load(spec) is not None

    def test_deferred_writes_fsync_before_and_after_publishing(
        self, store, monkeypatch
    ):
        from repro.campaigns import store as store_module

        events = []
        real_fsync, real_replace = store_module.os.fsync, store_module.os.replace

        def recording_fsync(fd):
            events.append("fsync")
            return real_fsync(fd)

        def recording_replace(src, dst):
            events.append("replace")
            return real_replace(src, dst)

        monkeypatch.setattr(store_module.os, "fsync", recording_fsync)
        monkeypatch.setattr(store_module.os, "replace", recording_replace)
        with store.deferred_index():
            for index in range(3):
                spec = make_spec(index)
                store.store(spec, make_artifact(spec))
        # Three objects plus the index, each fsynced, then published, then
        # its directory fsynced.
        assert events == ["fsync", "replace", "fsync"] * 4

    def test_failed_write_is_raised_and_left_out_of_the_index(
        self, store, monkeypatch
    ):
        from repro.campaigns import store as store_module

        real_write = store_module._atomic_write
        failing = store.key_for(make_spec(1))

        def flaky_write(directory, prefix, text, target):
            if target.stem == failing:
                raise OSError("disk full")
            return real_write(directory, prefix, text, target)

        monkeypatch.setattr(store_module, "_atomic_write", flaky_write)
        with pytest.raises(OSError, match="disk full"):
            with store.deferred_index():
                for index in range(3):
                    spec = make_spec(index)
                    store.store(spec, make_artifact(spec))
        indexed = json.loads(store._index_path.read_text())["entries"]
        assert failing not in indexed and len(indexed) == 2
        assert store.load(make_spec(1)) is None
        assert store.load(make_spec(2)) is not None

    def test_nested_block_joins_the_outer_one(self, store):
        spec = make_spec()
        with store.deferred_index():
            with store.deferred_index():
                store.store(spec, make_artifact(spec))
            assert not store._index_path.exists()
        assert store._index_path.exists()
        assert store.load(spec) is not None


class TestIntegrityFaults:
    def put_one(self, store):
        spec = make_spec()
        key = store.store(spec, make_artifact(spec), ALL_PATHS)
        return spec, store._object_path(key)

    def test_truncated_object_is_detected_and_quarantined(self, store):
        spec, path = self.put_one(store)
        raw = path.read_text()
        path.write_text(raw[: len(raw) // 2])
        assert store.load(spec, ALL_PATHS) is None
        assert store.stats.corrupt == 1
        # The damaged file is gone: the next run recomputes instead of
        # tripping over the same corruption again.
        assert not path.exists()

    def test_bit_flipped_payload_is_never_served(self, store):
        spec, path = self.put_one(store)
        record = json.loads(path.read_text())
        record["payload"]["results"]["steady"]["max_oni_temperature_c"] += 1.0
        path.write_text(json.dumps(record))
        assert store.load(spec, ALL_PATHS) is None
        assert store.stats.corrupt == 1
        assert not path.exists()

    def test_wrong_payload_spec_hash_is_a_miss(self, store):
        # A hash-valid record that answers for the wrong spec (e.g. a manual
        # file rename) is rejected by the spec-hash cross-check.
        spec, path = self.put_one(store)
        other = make_spec(1)
        target = store._object_path(store.key_for(other, ALL_PATHS))
        path.rename(target)
        # A plain miss, as re-encoding the payload judged it: the object
        # stays on disk and is not counted as corrupt.
        assert reference_outcome(target.read_text(), other) == "miss"
        assert load_outcome(store, other) == "miss"
        assert store.stats.corrupt == 0

    def test_corrupt_envelope_is_quarantined_not_crashed(self, store):
        # Damage outside the payload (here: the scenario field the index
        # rebuild reads) must quarantine the object, not raise downstream.
        spec, path = self.put_one(store)
        record = json.loads(path.read_text())
        record["scenario"] = 1234
        path.write_text(json.dumps(record))
        store._index_path.unlink()
        assert store.entries() == []
        assert store.load(spec, ALL_PATHS) is None
        assert not path.exists()

    def test_get_record_does_not_quarantine(self, store):
        # Read-only inspection (CLI show/diff) must preserve the evidence.
        spec, path = self.put_one(store)
        raw = path.read_text()
        path.write_text(raw[: len(raw) // 2])
        key = store.key_for(spec, ALL_PATHS)
        assert store.get_record(key) is None
        assert path.exists()
        # ...while load() still quarantines the same damage.
        assert store.load(spec, ALL_PATHS) is None
        assert not path.exists()

    def test_corrupt_index_is_rebuilt_from_objects(self, store):
        spec, _ = self.put_one(store)
        store._index_path.write_text("{ not json")
        loaded = store.load(spec, ALL_PATHS)
        assert loaded is not None
        assert len(store.entries()) == 1

    def test_recompute_after_corruption_round_trips(self, store):
        spec, path = self.put_one(store)
        path.write_text("garbage")
        assert store.load(spec, ALL_PATHS) is None
        store.store(spec, make_artifact(spec), ALL_PATHS)
        assert store.load(spec, ALL_PATHS) is not None


def reference_outcome(raw, spec):
    """The verdict of re-encoding the parsed payload to check its digest
    (the rule a store applied to every record before it hashed the stored
    payload text): ``"hit"``, ``"miss"`` or ``"quarantined"``."""
    try:
        record = json.loads(raw)
        payload, declared = record["payload"], record["payload_sha256"]
        if not isinstance(payload, dict) or not isinstance(declared, str):
            raise ValueError("malformed object record")
        for field, kind in (("scenario", str), ("spec_hash", str), ("paths", list)):
            if not isinstance(record[field], kind):
                raise ValueError(f"malformed {field} field")
    except (ValueError, KeyError, TypeError):
        return "quarantined"
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
    if digest != declared:
        return "quarantined"
    return "hit" if payload.get("spec_hash") == spec.content_hash() else "miss"


def load_outcome(store, spec):
    """What ``store.load(spec)`` made of the object at the spec's address."""
    path = store._object_path(store.key_for(spec, ALL_PATHS))
    corrupt = store.stats.corrupt
    if store.load(spec, ALL_PATHS) is not None:
        return "hit"
    if store.stats.corrupt == corrupt + 1 and not path.exists():
        return "quarantined"
    assert store.stats.corrupt == corrupt and path.exists()
    return "miss"


def spaced_payload(raw):
    """Valid record, same digest, payload text not in canonical spacing."""
    return raw.replace('"results":{', '"results": {')


def edited_payload(raw):
    """The payload text edited inside its slice (digest left stale)."""
    assert '"max_oni_temperature_c":50.0' in raw
    return raw.replace('"max_oni_temperature_c":50.0', '"max_oni_temperature_c":51.0')


def damaged_envelope(raw):
    """The scenario field a number; the payload text and digest intact."""
    record = json.loads(raw)
    return raw.replace(
        f'"scenario":"{record["scenario"]}"', '"scenario":1234', 1
    )


def flipped_digest(raw):
    digest = json.loads(raw)["payload_sha256"]
    flipped = ("0" if digest[0] != "0" else "1") + digest[1:]
    return raw.replace(digest, flipped)


#: Rewrites of a current-layout record, with the verdict each must get.
RECORD_VARIANTS = {
    "current layout": (lambda raw: raw, "hit"),
    "sorted default separators": (
        lambda raw: json.dumps(json.loads(raw), sort_keys=True) + "\n",
        "hit",
    ),
    "json.dumps(record)": (lambda raw: json.dumps(json.loads(raw)), "hit"),
    "no final newline": (lambda raw: raw[:-1], "hit"),
    "non-canonical payload spacing": (spaced_payload, "hit"),
    "payload edited inside the slice": (edited_payload, "quarantined"),
    "truncated": (lambda raw: raw[: len(raw) // 2], "quarantined"),
    "damaged envelope": (damaged_envelope, "quarantined"),
    "flipped digest": (flipped_digest, "quarantined"),
    "trailing bytes": (lambda raw: raw + "x", "quarantined"),
}


class TestVerificationParity:
    """A hit hashes the stored payload text and falls back to re-encoding
    the parsed payload; the verdicts stay those of re-encoding alone."""

    @staticmethod
    def spy_canonical_json(monkeypatch):
        """Record every document the store module encodes canonically."""
        import repro.campaigns.store as store_module

        calls = []
        real = store_module.canonical_json

        def spy(document):
            calls.append(document)
            return real(document)

        monkeypatch.setattr(store_module, "canonical_json", spy)
        return calls

    @staticmethod
    def payload_encodings(calls):
        """The spied calls that encoded something other than a store key."""
        return [document for document in calls if "code_version" not in document]

    @pytest.mark.parametrize("variant", sorted(RECORD_VARIANTS))
    def test_verdict_equals_re_encoding(self, store, variant):
        rewrite, expected = RECORD_VARIANTS[variant]
        spec = make_spec()
        path = store._object_path(store.store(spec, make_artifact(spec), ALL_PATHS))
        raw = rewrite(path.read_text(encoding="utf-8"))
        path.write_text(raw, encoding="utf-8")
        assert reference_outcome(raw, spec) == expected
        assert load_outcome(store, spec) == expected

    def test_current_layout_hit_encodes_nothing(self, store, monkeypatch):
        spec = make_spec()
        artifact = make_artifact(spec)
        store.store(spec, artifact, ALL_PATHS)
        calls = self.spy_canonical_json(monkeypatch)
        loaded = store.load(spec, ALL_PATHS)
        text = store.load(spec, ALL_PATHS, as_text=True)
        assert loaded == artifact
        assert self.payload_encodings(calls) == []
        # The text is the stored, verified canonical text.
        assert text == canonical_json(artifact.to_dict())

    def test_older_layouts_load_through_the_fallback(self, tmp_path, monkeypatch):
        root = tmp_path / "store"
        specs = [make_spec(index) for index in range(2)]
        write_legacy_store(root, specs)
        store = ArtifactStore(root)
        rewritten = store._object_path(store.key_for(specs[1], ALL_PATHS))
        rewritten.write_text(json.dumps(json.loads(rewritten.read_text())))
        calls = self.spy_canonical_json(monkeypatch)
        for spec in specs:
            text = store.load(spec, ALL_PATHS, as_text=True)
            loaded = ScenarioArtifact.from_json(text)
            assert loaded == make_artifact(spec)
            assert text == canonical_json(loaded.to_dict())
        assert len(self.payload_encodings(calls)) == len(specs)
        assert store.stats.corrupt == 0

    def test_text_is_not_carried_when_the_payload_has_extra_members(self, store):
        # The artifact keeps four members of its payload; a stored text with
        # more would not be the artifact's document.
        spec = make_spec()
        key = store.key_for(spec, ALL_PATHS)
        store._store_record(
            key=key,
            scenario=spec.name,
            spec_hash=spec.content_hash(),
            paths=sorted(ALL_PATHS),
            payload={**make_artifact(spec).to_dict(), "extra": 1},
        )
        loaded = store.load(spec, ALL_PATHS)
        assert loaded == make_artifact(spec)


def flip_bit(bit):
    """Rewrite flipping ``bit`` of one digit inside the payload text."""

    def rewrite(raw, other):
        damaged = bytearray(raw)
        damaged[raw.rindex(b"50.0")] ^= bit
        return bytes(damaged)

    return rewrite


def damage_envelope_field(raw, other):
    return damaged_envelope(raw.decode("utf-8")).encode("utf-8")


def old_layout(raw, other):
    """The record as older releases wrote it: default separators."""
    return (json.dumps(json.loads(raw), sort_keys=True) + "\n").encode("utf-8")


def non_object_payload(raw, other):
    """A current-layout record whose payload is a list, with its digest."""
    record = json.loads(raw)
    payload = [record.pop("payload")]
    record["payload_sha256"] = hashlib.sha256(
        canonical_json(payload).encode("utf-8")
    ).hexdigest()
    envelope = canonical_json(record)
    text = f'{envelope[:-1]},"payload":{canonical_json(payload)}}}\n'
    return text.encode("utf-8")


#: Damage done to one object on disk (``rewrite(raw, raw of another
#: spec's object)``), with the outcome and ``stats.corrupt`` count of
#: loading it.  Each is what a store that parsed whole records gave, but
#: the non-UTF-8 byte: that store raised ``UnicodeDecodeError``.
DAMAGE = {
    "truncated": (lambda raw, other: raw[: len(raw) // 2], "quarantined", 1),
    "flipped payload byte": (flip_bit(0x01), "quarantined", 1),
    "type-damaged envelope field": (damage_envelope_field, "quarantined", 1),
    "copied under another spec's key": (lambda raw, other: other, "miss", 0),
    "old layout, default separators": (old_layout, "hit", 0),
    "non-UTF-8 byte": (flip_bit(0x80), "quarantined", 1),
    "digest-valid non-object payload": (non_object_payload, "quarantined", 1),
}


class TestEnvelopeRead:
    """A current-layout hit parses the envelope only and checks the stored
    payload text; the outcomes of damage are those of a whole-record parse."""

    @pytest.mark.parametrize("case", sorted(DAMAGE))
    def test_damage_outcome(self, store, case):
        rewrite, expected, corrupt = DAMAGE[case]
        spec, other = make_spec(0), make_spec(1)
        path = store._object_path(store.store(spec, make_artifact(spec), ALL_PATHS))
        other_path = store._object_path(
            store.store(other, make_artifact(other), ALL_PATHS)
        )
        path.write_bytes(rewrite(path.read_bytes(), other_path.read_bytes()))
        assert load_outcome(store, spec) == expected
        assert store.stats.corrupt == corrupt

    def test_current_layout_hit_parses_the_envelope_only(self, store, monkeypatch):
        import repro.campaigns.store as store_module

        spec = make_spec()
        artifact = make_artifact(spec)
        key = store.store(spec, artifact, ALL_PATHS)
        parsed = []

        def loads(text):
            parsed.append(text)
            return json.loads(text)

        monkeypatch.setattr(store_module, "json", types.SimpleNamespace(loads=loads))
        text = store.load(spec, ALL_PATHS, key=key, as_text=True)
        assert text == canonical_json(artifact.to_dict())
        (envelope,) = parsed
        assert "payload" not in json.loads(envelope)
        assert "results" not in envelope

    def test_artifact_payload_text_ends_with_its_spec_hash(self, store):
        # The hit check reads the payload's spec_hash member as the text's
        # last: it is the artifact document's greatest key.
        for index in range(3):
            spec = make_spec(index)
            artifact = make_artifact(spec)
            assert max(artifact.to_dict()) == "spec_hash"
            raw = store._object_path(store.store(spec, artifact, ALL_PATHS)).read_text()
            text = raw[raw.index(',"payload":') + len(',"payload":') : -2]
            assert text == canonical_json(artifact.to_dict())
            assert text.endswith(f'"spec_hash":"{spec.content_hash()}"}}')


class TestHitRecency:
    def test_hits_keep_one_pending_touch_per_key(self, store):
        specs = [make_spec(index) for index in range(3)]
        keys = [
            store.store(spec, make_artifact(spec), ALL_PATHS) for spec in specs
        ]
        order = [(index * 7919) % 3 for index in range(10_000)] + [2, 0, 1]
        for index in order:
            assert store.load(specs[index], ALL_PATHS) is not None
        assert len(store._pending_touches) <= 3
        # Replaying every hit, one touch each, orders the objects the same.
        index_document = store._load_index()
        for position in order:
            store._touch(index_document, keys[position])
        entries = index_document["entries"]
        replayed = sorted(keys, key=lambda key: (entries[key]["last_used"], key))
        assert [entry.key for entry in store.entries()] == replayed
        assert replayed == [keys[2], keys[0], keys[1]]
        # The next write persists that order, the written object last.
        fourth = make_spec(3)
        store.store(fourth, make_artifact(fourth), ALL_PATHS)
        assert not store._pending_touches
        assert [entry.key for entry in store.entries()] == replayed + [
            store.key_for(fourth, ALL_PATHS)
        ]


class TestEviction:
    def test_eviction_respects_size_bound(self, make_store):
        store = make_store(max_bytes=1)
        # Write several artifacts into a store bounded below one object: the
        # newest entry always survives, everything older is evicted.
        for index in range(4):
            spec = make_spec(index)
            store.store(spec, make_artifact(spec), ALL_PATHS)
        assert len(store) == 1
        assert store.stats.evictions == 3
        assert store.entries()[0].scenario == "store_spec_3"

    def test_lru_order_not_insertion_order(self, make_store):
        specs = [make_spec(index) for index in range(3)]
        artifacts = [make_artifact(spec) for spec in specs]
        sizes = []
        probe = make_store("probe")
        for spec, artifact in zip(specs, artifacts):
            key = probe.store(spec, artifact, ALL_PATHS)
            sizes.append(probe._object_path(key).stat().st_size)
        # Bound to exactly two objects.
        store = make_store(max_bytes=sizes[0] + sizes[1] + 1)
        store.store(specs[0], artifacts[0], ALL_PATHS)
        store.store(specs[1], artifacts[1], ALL_PATHS)
        # Touch the oldest: it becomes most recent and must survive.
        assert store.load(specs[0], ALL_PATHS) is not None
        store.store(specs[2], artifacts[2], ALL_PATHS)
        assert store.load(specs[0], ALL_PATHS) is not None
        assert store.load(specs[1], ALL_PATHS) is None
        assert store.load(specs[2], ALL_PATHS) is not None

    def test_invalid_bound(self, tmp_path):
        with pytest.raises(ConfigurationError, match="max_bytes"):
            ArtifactStore(tmp_path / "store", max_bytes=0)

    def test_eviction_counts_objects_the_index_lost(self, tmp_path, layout):
        """The size bound holds against disk truth, not the index.

        An object orphaned from the index (e.g. a racing writer's
        last-writer-wins index replacement) must still be adopted and
        evicted — the store may not grow past max_bytes just because the
        accelerator went stale.
        """
        root = tmp_path / "store"
        seed = open_flat(root, layout)
        orphan_spec = make_spec(0)
        seed.store(orphan_spec, make_artifact(orphan_spec), ALL_PATHS)
        # Simulate the race: the object survives, the index forgot it.
        seed._index_path.unlink()
        seed._write_index(
            {"version": 1, "sequence": 0, "entries": {}}
        )

        bounded = ArtifactStore(root, max_bytes=1)
        fresh_spec = make_spec(1)
        bounded.store(fresh_spec, make_artifact(fresh_spec), ALL_PATHS)
        # The orphan was adopted (zero recency) and evicted; only the
        # protected fresh object remains.
        assert len(bounded) == 1
        assert bounded.entries()[0].scenario == fresh_spec.name
        assert bounded.stats.evictions == 1

    def test_stale_index_entries_never_act_as_victims(self, tmp_path, layout):
        """An index entry whose object vanished must not absorb an eviction.

        If the phantom were popped as the LRU victim, its bytes — never part
        of the disk total — would be subtracted and the loop could exit with
        the bound still violated and no file actually deleted.
        """
        root = tmp_path / "store"
        seed = open_flat(root, layout)
        specs = [make_spec(index) for index in range(3)]
        keys = [
            seed.store(spec, make_artifact(spec), ALL_PATHS) for spec in specs
        ]
        # Simulate another process's eviction: object 0 is gone but its
        # (oldest, so first-victim) index entry survives.
        seed._object_path(keys[0]).unlink()

        size = seed._object_path(keys[1]).stat().st_size
        bounded = ArtifactStore(root, max_bytes=size + 1)
        fresh = make_spec(3)
        bounded.store(fresh, make_artifact(fresh), ALL_PATHS)
        # Real objects were evicted down to the bound (fresh one protected).
        assert len(bounded) == 1
        assert bounded.load(fresh, ALL_PATHS) is not None


class TestConcurrency:
    def test_concurrent_writers_do_not_corrupt(self, tmp_path, layout):
        """Many writers racing on one root: every object stays loadable.

        Each writer uses its own ArtifactStore instance (same directory) so
        index read-modify-write races genuinely happen; the objects are the
        source of truth and must all survive intact.  On the sharded start
        the writers also race to flatten the same root.
        """
        root = start_root(tmp_path / "store", layout)
        specs = [make_spec(index) for index in range(16)]
        artifacts = [make_artifact(spec) for spec in specs]

        def write(index: int) -> str:
            store = ArtifactStore(root)
            return store.store(specs[index], artifacts[index], ALL_PATHS)

        with ThreadPoolExecutor(max_workers=8) as pool:
            keys = list(pool.map(write, range(len(specs))))
        assert len(set(keys)) == len(specs)

        reader = ArtifactStore(root)
        assert len(reader) == len(specs)
        for spec, artifact in zip(specs, artifacts):
            loaded = reader.load(spec, ALL_PATHS)
            assert loaded is not None
            assert loaded.to_dict() == artifact.to_dict()
        # The index (whatever subset of the races it recorded) lists every
        # object after a scan, and no temporary files linger.
        assert {entry.scenario for entry in reader.entries()} == {
            spec.name for spec in specs
        }
        assert not list((root / "objects").rglob(".*tmp"))

    def test_concurrent_readers_and_writers(self, tmp_path, layout):
        root = tmp_path / "store"
        seed_store = open_flat(root, layout)
        specs = [make_spec(index) for index in range(8)]
        for spec in specs:
            seed_store.store(spec, make_artifact(spec), ALL_PATHS)

        def churn(index: int) -> bool:
            store = ArtifactStore(root)
            spec = specs[index % len(specs)]
            if index % 2:
                store.store(spec, make_artifact(spec), ALL_PATHS)
            return store.load(spec, ALL_PATHS) is not None

        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(pool.map(churn, range(32)))
        assert all(outcomes)

    def test_listings_survive_objects_vanishing_mid_scan(
        self, store, monkeypatch
    ):
        """Satellite fix: an object unlinked between the directory listing
        and its ``stat`` (a racing eviction in another process) is skipped
        by ``total_size_bytes``/``entries``/``__len__``, not raised."""
        for index in range(3):
            spec = make_spec(index)
            store.store(spec, make_artifact(spec), ALL_PATHS)
        real_listing = store._object_paths
        real_size = store.total_size_bytes()

        def racing_listing():
            paths = real_listing()
            # The listing saw a fourth object, but the evictor unlinked it
            # before this reader could stat it.
            ghost = paths[0].with_name("0" * 16 + paths[0].suffix)
            return paths + [ghost]

        monkeypatch.setattr(store, "_object_paths", racing_listing)
        assert store.total_size_bytes() == real_size
        assert len(store.entries()) == 3

    def test_concurrent_evictor_never_breaks_listings(self, tmp_path, layout):
        """Live race: one thread unlinks every object while another keeps
        listing — the reader must finish clean, never with an OSError."""
        root = tmp_path / "store"
        writer = open_flat(root, layout)
        for index in range(24):
            spec = make_spec(index)
            writer.store(spec, make_artifact(spec), ALL_PATHS)
        reader = ArtifactStore(root)
        paths = writer._object_paths()

        def evict():
            for path in paths:
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - racing test cleanup
                    pass

        evictor = threading.Thread(target=evict)
        evictor.start()
        try:
            while evictor.is_alive():
                reader.total_size_bytes()
                reader.entries()
                len(reader)
        finally:
            evictor.join()
        assert reader.total_size_bytes() == 0


class TestLayout:
    """The one flat layout, and the legacy sharded layout it migrates."""

    def test_flat_on_disk_layout(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        spec = make_spec()
        key = store.store(spec, make_artifact(spec), ALL_PATHS)
        assert store._object_path(key) == (
            tmp_path / "store" / "objects" / f"{key}.json"
        )
        assert store._object_path(key).exists()

    def test_foreign_files_are_not_objects(self, tmp_path):
        # Stray files outside the layout contract (a README, a directory
        # that is no shard of its contents) are neither moved nor adopted
        # by rebuilds or eviction.
        root = tmp_path / "store"
        spec = make_spec()
        ArtifactStore(root).store(spec, make_artifact(spec), ALL_PATHS)
        (root / "objects" / "README").write_text("not an object")
        (root / "objects" / "zz").mkdir()
        (root / "objects" / "zz" / "mismatched.json").write_text("{}")
        store = ArtifactStore(root)
        assert (root / "objects" / "zz" / "mismatched.json").exists()
        assert len(store) == 1
        store._index_path.unlink()
        assert len(store.entries()) == 1

    def test_legacy_sharded_store_is_flattened(self, tmp_path):
        root = tmp_path / "store"
        specs = [make_spec(index) for index in range(4)]
        keys = write_legacy_store(root, specs)
        assert len({key[:2] for key in keys}) > 1  # really several shards

        store = ArtifactStore(root)
        # Flat now: every object under objects/, no shard directory left.
        assert sorted(path.name for path in (root / "objects").iterdir()) == (
            sorted(f"{key}.json" for key in keys)
        )
        for spec in specs:
            loaded = store.load(spec, ALL_PATHS)
            assert loaded is not None
            assert loaded.to_dict() == make_artifact(spec).to_dict()
        assert {entry.key for entry in store.entries()} == set(keys)
        assert store.resolve_key(keys[0][:10]) == keys[0]
        # The index rebuilds from the flattened objects.
        store._index_path.write_text("{ not json")
        assert {entry.key for entry in store.entries()} == set(keys)
        # Eviction sees every migrated object.
        bounded = ArtifactStore(root, max_bytes=1)
        fresh = make_spec(len(specs))
        bounded.store(fresh, make_artifact(fresh), ALL_PATHS)
        assert len(bounded) == 1
        assert bounded.stats.evictions == len(specs)
        assert bounded.load(fresh, ALL_PATHS) is not None

    def test_concurrent_openers_on_one_legacy_root_lose_no_object(self, tmp_path):
        # Openers racing to flatten the same shards (more threads than
        # cores, frequent switches): every object must end up flat, once.
        root = tmp_path / "store"
        specs = [make_spec(index) for index in range(48)]
        keys = write_legacy_store(root, specs)
        openers = 4
        start = threading.Barrier(openers, timeout=30)

        def open_store(_):
            start.wait()
            return ArtifactStore(root)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=openers) as pool:
                stores = list(pool.map(open_store, range(openers), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(os.listdir(root / "objects")) == sorted(
            f"{key}.json" for key in keys
        )
        for store in stores:
            assert len(store) == len(specs)
            for spec in specs:
                assert store.load(spec, ALL_PATHS) is not None


class TestBackends:
    """Reopening a root in either layout, and key-prefix resolution."""

    def test_reopen_auto_detects_layout(self, tmp_path, layout):
        # Reopened with no option, a root in either layout serves its
        # object, which now lies flat.
        root = tmp_path / "store"
        spec = make_spec()
        if layout == "sharded":
            (key,) = write_legacy_store(root, [spec])
        else:
            key = ArtifactStore(root).store(spec, make_artifact(spec), ALL_PATHS)
        reopened = ArtifactStore(root)
        assert reopened._object_path(key) == root / "objects" / f"{key}.json"
        assert reopened._object_path(key).exists()
        loaded = reopened.load(spec, ALL_PATHS)
        assert loaded is not None and loaded.scenario == spec.name

    def test_prefix_resolution_shorter_than_shard_width(self, tmp_path):
        # A prefix shorter than the old two-character shard name still
        # resolves once a legacy sharded store has been flattened.
        root = tmp_path / "store"
        (key,) = write_legacy_store(root, [make_spec()])
        store = ArtifactStore(root)
        assert store.resolve_key(key[:1]) == key
        assert store.resolve_key(key[:10]) == key


class TestRomBasisRecords:
    @staticmethod
    def make_payload(key="a1b2c3d4e5f6a7b8", seed=0):
        rng = np.random.default_rng(seed)
        matrix, _ = np.linalg.qr(rng.standard_normal((10, 3)))
        return ReducedBasis(matrix, key).to_payload_json()

    def test_round_trip_and_warm_start_bundle(self, store):
        first = self.make_payload("a" * 16, seed=1)
        second = self.make_payload("b" * 16, seed=2)
        store.store_rom_basis(first)
        store.store_rom_basis(second)
        assert store.load_rom_basis("a" * 16) == first
        assert store.load_rom_basis("b" * 16) == second
        assert store.rom_basis_payloads() == sorted([first, second])
        # The served bundle parses into a scope of both bases.
        scope = BasisScope.from_payloads(store.rom_basis_payloads())
        assert sorted(scope.bases) == ["a" * 16, "b" * 16]

    def test_miss_returns_none_and_counts(self, store):
        misses_before = store.stats.misses
        assert store.load_rom_basis("nope") is None
        assert store.stats.misses == misses_before + 1

    def test_malformed_payload_rejected(self, store):
        with pytest.raises(ConfigurationError, match="reduced-basis"):
            store.store_rom_basis(json.dumps(["not", "a", "dict"]))
        with pytest.raises(ConfigurationError, match="content key"):
            store.store_rom_basis(json.dumps({"data": "zz"}))

    def test_basis_records_coexist_with_artifacts(self, store):
        spec = make_spec()
        stored_key = store.store(spec, make_artifact(spec), ALL_PATHS)
        store.store_rom_basis(self.make_payload("c" * 16, seed=3))
        assert store.load(spec, ALL_PATHS) is not None
        assert len(store.rom_basis_payloads()) == 1
        kinds = {entry.paths for entry in store.entries()}
        assert ("rom_basis",) in kinds
        assert any(entry.key == stored_key for entry in store.entries())

    def test_load_telemetry_parity_with_artifact_load(self, store):
        """Satellite fix: ``load_rom_basis`` emits ``store.hits``/
        ``store.misses`` counters and a ``store.load`` span exactly like
        artifact ``load`` does — warm-start traffic was invisible in
        ``/stats`` before."""
        payload = self.make_payload("e" * 16, seed=5)
        store.store_rom_basis(payload)
        with telemetry.enabled_scope():
            with telemetry.collect() as collector:
                assert store.load_rom_basis("e" * 16) == payload
                assert store.load_rom_basis("f" * 16) is None
        assert collector.registry.counter_value("store.hits") == 1
        assert collector.registry.counter_value("store.misses") == 1
        spans = [r for r in collector.spans if r.name == "store.load"]
        assert sorted(r.attrs["hit"] for r in spans) == [False, True]
        assert all(
            r.attrs["scenario"].startswith("rom-basis:") for r in spans
        )

    def test_corrupt_basis_record_is_a_miss(self, store):
        store.store_rom_basis(self.make_payload("d" * 16, seed=4))
        key = next(
            entry.key
            for entry in store.entries()
            if entry.paths == ("rom_basis",)
        )
        path = store._object_path(key)
        path.write_text(path.read_text(encoding="utf-8")[:-25], encoding="utf-8")
        assert store.load_rom_basis("d" * 16) is None


class TestWarmStartKeying:
    def test_a_default_key_is_pinned(self):
        # The key a default (not warm-started) kernel stores a registry
        # spec under, with the code version of 0.2.0 written out: a change
        # here strands every object of every existing store.
        spec = default_registry().get("scc_case_study")
        assert artifact_key(spec, code_version="0.2.0/schema1/store1") == (
            "0b026ff356528a72915f30a1e8eb7d19e41875708cd69afaa945d42150a9cec4"
        )

    def test_warm_start_folds_into_the_key_only_when_set(self, store):
        spec = make_spec()
        default = store.key_for(spec, ALL_PATHS)
        assert default == store.key_for(spec, ALL_PATHS, warm_start="")
        assert default != store.key_for(spec, ALL_PATHS, warm_start="a" * 64)
        assert store.key_for(
            spec, ALL_PATHS, warm_start="a" * 64
        ) != store.key_for(spec, ALL_PATHS, warm_start="b" * 64)

    def test_artifacts_of_different_warm_starts_never_answer_for_each_other(
        self, store
    ):
        spec = make_spec()
        artifact = make_artifact(spec)
        store.store(spec, artifact, ALL_PATHS, warm_start="a" * 64)
        assert store.load(spec, ALL_PATHS) is None
        assert store.load(spec, ALL_PATHS, warm_start="b" * 64) is None
        served = store.load(spec, ALL_PATHS, warm_start="a" * 64)
        assert served is not None and served.scenario == spec.name
