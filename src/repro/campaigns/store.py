"""Persistent content-addressed artifact store with integrity checking.

The :class:`ArtifactStore` generalises the in-process
:class:`~repro.caching.LruCache` to a disk backend for whole
:class:`~repro.scenarios.runner.ScenarioArtifact` documents, so a campaign
re-run only computes specs whose content is new — across processes and
across sessions.

Design:

* **content addressing** — the key is the SHA-256 of (spec content hash,
  requested analysis paths, artifact schema version, code version), so a
  spec edit, a different path selection or a library upgrade can never serve
  a stale artifact;
* **atomic writes** — objects are written to a per-process temporary file in
  the store root and :func:`os.replace`-d into place, so readers only ever
  observe complete documents and concurrent writers cannot interleave bytes;
* **integrity re-hash on read** — every object embeds the SHA-256 of its
  canonical payload; a truncated or bit-flipped file fails the re-hash, is
  counted, quarantined (unlinked) and reported as a miss, never served.  A
  record in the current layout ends with the payload's canonical text, so a
  hit parses only the envelope before it and hashes those stored bytes,
  and hands the verified text on to its consumers;
* **bounded size with LRU eviction** — an index records byte sizes and a
  monotonic access sequence; when the store exceeds ``max_bytes`` the least
  recently used objects are evicted (the newest entry always survives);
* **crash-tolerant index** — the index is a pure accelerator: object files
  are the source of truth, keyed by their own content address, so a lost or
  corrupt ``index.json`` (e.g. racing writers) degrades recency accounting
  but never correctness; it is rebuilt from the object directory on demand;
* **one flat layout** — every object lives at ``objects/<key>.json``.  A
  store written by an older release in the sharded
  ``objects/<key[:2]>/<key>.json`` layout is flattened when it is opened
  (same object format and keys), so it keeps resolving.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .. import __version__ as _code_version
from .. import telemetry
from ..errors import ConfigurationError
from ..log import get_logger
from ..scenarios import (
    ALL_PATHS,
    SCHEMA_VERSION,
    ScenarioArtifact,
    ScenarioSpec,
    canonical_json,
    json_digest,
)

#: Store layout version; bumped on breaking changes of the object format.
STORE_VERSION = 1

#: The code version a store folds into its keys by default.
CODE_VERSION = f"{_code_version}/schema{SCHEMA_VERSION}/store{STORE_VERSION}"

logger = get_logger("store")


#: What precedes the payload text in a record :func:`_write_record` wrote.
_PAYLOAD_MEMBER = ',"payload":'


def artifact_key(
    spec: ScenarioSpec,
    paths: Sequence[str] = ALL_PATHS,
    warm_start: str = "",
    code_version: str = CODE_VERSION,
) -> str:
    """Content address of one (spec, paths, warm start) computation under
    ``code_version``.

    ``warm_start`` is the :attr:`~repro.campaigns.kernel.EvaluationKernel.
    warm_start_digest` of the computing kernel, folded in only when it has
    bases: a reduced replay differs from the full-space numbers at the
    last-few-ulps level and must not answer for them, nor for a replay of
    other bases, while every full-space key stays exactly where it was.
    """
    document = {
        "spec_hash": spec.content_hash(),
        "paths": sorted(set(paths)),
        "code_version": code_version,
    }
    if warm_start:
        document["warm_start"] = warm_start
    return json_digest(document)


def _text_digest(text: str) -> str:
    """SHA-256 of one JSON text (the ``payload_sha256`` of its payload)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _checked_envelope(record: Any) -> str:
    """The declared payload digest of a record; raises on a malformed one.

    The envelope metadata is read by the index rebuild and the listing
    paths without further checks: validating it here quarantines a damaged
    envelope like a damaged payload.
    """
    declared = record["payload_sha256"]
    if not isinstance(declared, str):
        raise ValueError("malformed payload_sha256 field")
    if not isinstance(record["scenario"], str):
        raise ValueError("malformed scenario field")
    if not isinstance(record["spec_hash"], str):
        raise ValueError("malformed spec_hash field")
    if not isinstance(record["paths"], list):
        raise ValueError("malformed paths field")
    return declared


def _verified_envelope(raw: str) -> Optional[Tuple[Dict[str, Any], str]]:
    """Envelope and payload text of an intact current-layout record, parsing
    the envelope only; ``None`` when ``raw`` is not one.

    :func:`_write_record` appends the payload's canonical text after the
    canonical envelope, so it is the slice after the first ``,"payload":``
    up to the closing ``}\n``.  A quote inside a JSON string is escaped, so
    that separator cannot occur inside one.  Records written with default
    separators (older layouts) never contain it.  Every writer hashed
    canonical text, so a slice matching the digest is the payload's
    canonical text.  A payload that is not a JSON object is left to
    :func:`_verified_record`, which rejects it.
    """
    start = raw.find(_PAYLOAD_MEMBER)
    if start < 0 or not raw.endswith("}\n"):
        return None
    try:
        envelope = json.loads(raw[:start] + "}")
        declared = _checked_envelope(envelope)
    except (ValueError, KeyError, TypeError):
        return None
    text = raw[start + len(_PAYLOAD_MEMBER) : -2]
    if not text.startswith("{") or _text_digest(text) != declared:
        return None
    return envelope, text


def _verified_record(raw: str) -> Tuple[Dict[str, Any], str]:
    """Envelope and payload text of any intact record, parsing all of it and
    re-encoding the payload; raises on a defect."""
    record = json.loads(raw)
    payload = record["payload"]
    declared = _checked_envelope(record)
    if not isinstance(payload, dict):
        raise ValueError("malformed object record")
    text = canonical_json(payload)
    if _text_digest(text) != declared:
        raise ValueError("payload digest mismatch")
    return {name: value for name, value in record.items() if name != "payload"}, text


def _answers_for(text: str, spec_hash: str) -> bool:
    """Whether the verified payload ``text`` names ``spec_hash`` as its own.

    An artifact's canonical text ends with its ``spec_hash`` member (its
    greatest key), which this reads without parsing: a quote inside a
    string is escaped and a nested member ends in ``}}``, so that suffix is
    the payload's own member.  Any other payload is parsed.
    """
    if text.endswith(f'"spec_hash":"{spec_hash}"}}'):
        return True
    try:
        payload = json.loads(text)
    except ValueError:
        return False
    return isinstance(payload, dict) and payload.get("spec_hash") == spec_hash


def _read_file(path: str) -> bytes:
    """The bytes of the file at ``path``, read without a file object: one
    ``os.read`` of its ``fstat`` size, then reads until the end of the file
    (one, for an object no writer extends)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = [os.read(fd, os.fstat(fd).st_size)]
        while chunks[-1]:
            chunks.append(os.read(fd, 1 << 16))
    finally:
        os.close(fd)
    return b"".join(chunks)


def _write_record(
    directory: Path,
    prefix: str,
    fields: Mapping[str, Any],
    payload: Mapping[str, Any],
    target: Path,
) -> int:
    """Write one object document atomically: the envelope ``fields``, the
    payload's digest and the payload.  Returns its size in bytes.

    The payload is serialised once, for its digest and the record both:
    its canonical text is appended to the envelope's as the last member,
    where :func:`_verified_envelope` finds it on a read.
    """
    payload_text = canonical_json(payload)
    digest = _text_digest(payload_text)
    envelope = canonical_json({**fields, "payload_sha256": digest})
    text = f"{envelope[:-1]}{_PAYLOAD_MEMBER}{payload_text}}}\n"
    _atomic_write(directory, prefix, text, target)
    return len(text.encode("utf-8"))


def _fsync_directory(directory: Path) -> None:
    """Best-effort fsync of a directory (persists a completed rename).

    Failure is swallowed: not every filesystem supports opening a directory
    for fsync (and the rename itself already happened), so this only ever
    *adds* durability, never turns a successful write into an error.
    """
    try:
        fd = os.open(directory, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without directory fsync
        pass
    finally:
        os.close(fd)


def _atomic_write(directory: Path, prefix: str, text: str, target: Path) -> None:
    """Write ``text`` to a unique temp file and rename it over ``target``.

    ``mkstemp`` gives every caller — threads sharing a PID included — its own
    temp name, and :func:`os.replace` is atomic on POSIX, so readers only
    ever observe complete documents and racing writers settle on a
    last-writer-wins full document instead of interleaved bytes.

    The temp file is flushed and fsynced *before* the rename, and the
    directory is fsynced (best-effort) after it: the atomicity claim must
    hold across power loss, not just process crash — a rename that lands
    before its data would leave a complete-looking file of garbage bytes.
    """
    try:
        handle, tmp_name = tempfile.mkstemp(prefix=f"{prefix}.", suffix=".tmp", dir=directory)
    except FileNotFoundError:  # the first write into a new directory
        directory.mkdir(parents=True, exist_ok=True)
        handle, tmp_name = tempfile.mkstemp(prefix=f"{prefix}.", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            stream.write(text)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:  # pragma: no cover - already renamed or gone
            pass
        raise
    _fsync_directory(directory)


@dataclass(frozen=True)
class StoreEntry:
    """One stored artifact, as listed by :meth:`ArtifactStore.entries`."""

    key: str
    scenario: str
    spec_hash: str
    paths: Tuple[str, ...]
    size_bytes: int
    last_used: int


@dataclass
class StoreStats:
    """Counters of one :class:`ArtifactStore` instance (cumulative)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when nothing was looked up yet)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def to_dict(self) -> Dict[str, int]:
        """Plain-dict view of the counters (campaign reports)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt": self.corrupt,
            "evictions": self.evictions,
        }


class ArtifactStore:
    """Content-addressed on-disk store of scenario artifacts.

    Parameters
    ----------
    root:
        Directory of the store (created on first use).  Layout:
        ``objects/<key>.json`` plus an ``index.json`` accelerator.
    max_bytes:
        Total object-size bound; least-recently-used objects are evicted
        beyond it.  ``None`` leaves the store unbounded.
    code_version:
        Folded into every key; defaults to the library version, so a library
        upgrade starts a fresh keyspace instead of trusting old numerics.
    """

    def __init__(
        self,
        root: os.PathLike,
        max_bytes: Optional[int] = None,
        code_version: Optional[str] = None,
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ConfigurationError("max_bytes must be >= 1 (or None)")
        self.root = Path(root)
        self._objects_dir = self.root / "objects"
        #: ``_objects_dir`` with a trailing separator, as a string: a hit
        #: reads ``<this><key>.json`` without building a ``Path``.
        self._objects_prefix = os.path.join(self._objects_dir, "")
        self._flatten_shards()
        self.max_bytes = max_bytes
        self.code_version = CODE_VERSION if code_version is None else code_version
        self.stats = StoreStats()
        #: Keys bumped by hits and writes since the last index write, least
        #: recently touched first; a key keeps only its last touch, so a
        #: hit-only store holds one per object.  The index is a pure
        #: accelerator, so hits never pay an index read-modify-write of their
        #: own; pending touches are folded in by the next index refresh (or,
        #: in memory only, by :meth:`entries`).
        self._pending_touches: Dict[str, None] = {}
        #: Index entries of objects written since the last index write, in
        #: write order (a rewrite moves its key last).
        self._pending_entries: Dict[str, Dict[str, Any]] = {}
        #: Object writer thread of the open :meth:`deferred_index` block.
        self._writer: Optional[ThreadPoolExecutor] = None
        #: ``(key, write future)`` of every object handed to the writer.
        self._writes: List[Tuple[str, "Future[int]"]] = []

    # Paths -----------------------------------------------------------------

    @property
    def _index_path(self) -> Path:
        return self.root / "index.json"

    def _object_path(self, key: str) -> Path:
        return self._objects_dir / f"{key}.json"

    def _object_paths(self) -> List[Path]:
        """Every object file, sorted by key (deterministic rebuilds)."""
        return sorted(self._objects_dir.glob("*.json"))

    def _flatten_shards(self) -> None:
        """Move the objects of a legacy sharded store to the flat layout.

        Each ``objects/<xx>/<key>.json`` is renamed to ``objects/<key>.json``
        (same filesystem, so atomic) and the emptied shard directories are
        removed.  Another process opening the same store concurrently may
        move an object, or remove a shard, first: its ``FileNotFoundError``
        is ignored, and the objects are in place either way.
        """
        try:
            with os.scandir(self._objects_dir) as entries:
                shards = [Path(entry.path) for entry in entries if entry.is_dir()]
        except OSError:  # no store yet
            return
        for shard in shards:
            try:
                legacy = list(shard.glob(f"{shard.name}*.json"))
            except FileNotFoundError:
                continue
            for path in legacy:
                with contextlib.suppress(FileNotFoundError):
                    os.replace(path, self._object_path(path.stem))
            # Fails harmlessly while a racing opener or a stray temp file
            # still holds the directory.
            with contextlib.suppress(OSError):
                shard.rmdir()

    # Keys ------------------------------------------------------------------

    def key_for(
        self,
        spec: ScenarioSpec,
        paths: Sequence[str] = ALL_PATHS,
        warm_start: str = "",
    ) -> str:
        """Content address of one (spec, paths, warm start) computation in
        this store: :func:`artifact_key` under its :attr:`code_version`."""
        return artifact_key(spec, paths, warm_start, self.code_version)

    def _rom_basis_key(self, basis_key: str) -> str:
        """Store address of a reduced-basis payload (by its content key)."""
        return json_digest({"rom_basis": basis_key, "code_version": self.code_version})

    # Index -----------------------------------------------------------------

    def _load_index(self, known: Collection[str] = ()) -> Dict[str, Any]:
        """The index document, rebuilt from the objects when unreadable.

        A rebuild skips the ``known`` objects: the caller holds their entries.
        """
        try:
            data = json.loads(self._index_path.read_text(encoding="utf-8"))
            if (
                isinstance(data, dict)
                and isinstance(data.get("entries"), dict)
                and isinstance(data.get("sequence"), int)
            ):
                return data
        except (OSError, ValueError):
            pass
        return self._rebuild_index(known)

    def _rebuild_index(self, known: Collection[str] = ()) -> Dict[str, Any]:
        """Index rebuilt by scanning the object directory (deterministic)."""
        entries: Dict[str, Any] = {}
        for path in self._object_paths():
            if path.stem in known:
                continue
            entry = self._adopt(path.stem)
            if entry is not None:
                entries[path.stem] = entry
        return {"version": STORE_VERSION, "sequence": 0, "entries": entries}

    def _write_index(self, index: Dict[str, Any]) -> None:
        """Atomically replace the index document."""
        self.root.mkdir(parents=True, exist_ok=True)
        text = json.dumps(index, sort_keys=True) + "\n"
        _atomic_write(self.root, ".index", text, self._index_path)

    def _touch(self, index: Dict[str, Any], key: str) -> None:
        """Bump the access sequence of ``key`` (LRU recency)."""
        index["sequence"] = int(index["sequence"]) + 1
        # An object the index never saw (another writer, or a hit served
        # while the index was unreadable) is adopted.
        entry = index["entries"].get(key) or self._adopt(key)
        if entry is None:
            return
        index["entries"][key] = entry
        entry["last_used"] = index["sequence"]

    def _note_touch(self, key: str) -> None:
        """Queue a recency bump of ``key``, replacing its earlier one."""
        self._pending_touches.pop(key, None)
        self._pending_touches[key] = None

    def _refresh_index(self) -> None:
        """Fold the pending writes and touches into the index, evict, persist.

        Touches replay in the order of each key's last one, a written
        object's entry joining the index at its touch; the last object
        written is protected from eviction.
        """
        index = self._load_index(known=self._pending_entries)
        protect = next(reversed(self._pending_entries), None)
        for key in self._pending_touches:
            entry = self._pending_entries.pop(key, None)
            if entry is not None:
                index["entries"][key] = entry
            self._touch(index, key)
        self._pending_touches.clear()
        self._evict(index, protect=protect)
        self._write_index(index)

    @contextlib.contextmanager
    def deferred_index(self) -> Iterator["ArtifactStore"]:
        """Publish objects in the background and refresh the index once.

        Inside the block, :meth:`store` hands each record to one writer
        thread, which serialises and writes it (temp file, fsync, atomic
        replace, directory fsync, as always), so the encoding and the disk
        latency overlap the caller's next computation (the ``store.put``
        span then times the hand-off).  The index read-modify-write, and the
        eviction it drives, run once when the block exits, error or not,
        after every write has landed; the first failed write is re-raised
        there.  A crash inside the block loses recency only: the objects are
        on disk, and loads and the next index refresh adopt the ones the
        index never saw.  A nested block joins the outer one.
        """
        if self._writer is not None:
            yield self
            return
        self._writer = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="store-writer"
        )
        try:
            yield self
        finally:
            self._writer.shutdown(wait=True)
            self._writer = None
            failure: Optional[BaseException] = None
            for key, write in self._writes:
                error = write.exception()
                if error is not None:
                    self._pending_entries.pop(key, None)
                    failure = failure or error
                elif key in self._pending_entries:
                    self._pending_entries[key]["size_bytes"] = write.result()
            self._writes.clear()
            if self._pending_entries:
                self._refresh_index()
            if failure is not None:
                raise failure

    # Objects ---------------------------------------------------------------

    def _read_verified(
        self,
        key: str,
        count_corrupt: bool = True,
        quarantine: bool = True,
    ) -> Optional[Tuple[Dict[str, Any], str]]:
        """Integrity-check one object file: its envelope (the record without
        ``payload``) and the payload's canonical text, or ``None`` on any
        defect.

        A record in the current layout is verified from its envelope and
        stored payload text (see :func:`_verified_envelope`); any other is
        parsed whole and its payload re-encoded (:func:`_verified_record`),
        so records of older layouts still verify, and damage fails both.

        A missing file is a plain miss; an undecodable, unparseable or
        hash-mismatched file is counted as corruption and — unless
        ``quarantine`` is off (read-only inspection paths like the CLI's
        ``show``/``diff`` must not destroy the evidence) — unlinked so the
        next run recomputes it instead of tripping over the same damage
        again.
        """
        try:
            data = _read_file(f"{self._objects_prefix}{key}.json")
        except OSError:
            return None
        try:
            raw = data.decode("utf-8")
            return _verified_envelope(raw) or _verified_record(raw)
        except (ValueError, KeyError, TypeError):
            self._quarantine(self._object_path(key), count_corrupt, quarantine)
            return None

    def _quarantine(self, path: Path, count: bool, unlink: bool) -> None:
        if count:
            self.stats.corrupt += 1
            telemetry.count("store.corrupt")
            logger.warning(
                "corrupt store object %s (failed parse or integrity re-hash)"
                "%s",
                path.name,
                "; quarantined" if unlink else "",
            )
        if not unlink:
            return
        try:
            path.unlink()
        except OSError:  # pragma: no cover - racing unlink is fine
            pass

    @staticmethod
    def _entry_from_record(record: Mapping[str, Any], size: int) -> Dict[str, Any]:
        """Index entry of one object record (single spelling of the layout)."""
        return {
            "scenario": record["scenario"],
            "spec_hash": record["spec_hash"],
            "paths": list(record["paths"]),
            "size_bytes": size,
            "last_used": 0,
        }

    def _adopt(self, key: str) -> Optional[Dict[str, Any]]:
        """Index entry of the object stored under ``key``, read from the
        object itself (for an object the index does not hold); ``None`` when
        it is gone or damaged.  Damage is quarantined here but counted only
        by lookups.
        """
        verified = self._read_verified(key, count_corrupt=False)
        if verified is None:
            return None
        try:
            size = self._object_path(key).stat().st_size
        except OSError:  # racing eviction/unlink: the object is gone
            return None
        return self._entry_from_record(verified[0], size)

    def _lookup(
        self, key: str, scenario: str, answers: Callable[[str], bool]
    ) -> Optional[str]:
        """Verified payload text stored under ``key`` when ``answers``
        accepts it as the requested content, else ``None``; counts the hit
        or miss and times the lookup as one ``store.load`` span.

        A hit queues a recency bump of ``key``.  A rejected intact object is
        a plain miss and stays on disk.
        """
        with telemetry.span("store.load", scenario=scenario) as load_span:
            verified = self._read_verified(key)
            hit = verified is not None and answers(verified[1])
            load_span.set(hit=hit)
            if not hit:
                self.stats.misses += 1
                telemetry.count("store.misses")
                return None
            self.stats.hits += 1
            telemetry.count("store.hits")
            self._note_touch(key)
            return verified[1]

    # Public API ------------------------------------------------------------

    def load(
        self,
        spec: ScenarioSpec,
        paths: Sequence[str] = ALL_PATHS,
        warm_start: str = "",
        *,
        key: Optional[str] = None,
        as_text: bool = False,
    ) -> Union[ScenarioArtifact, str, None]:
        """Stored artifact of (spec, paths), or ``None`` on miss/corruption.

        The payload is checked against the digest embedded at write time;
        a truncated or bit-flipped object fails and is quarantined.  The
        payload's own spec hash is additionally cross-checked against
        ``spec`` — a hash-valid object answering for the wrong spec (key
        collision, external rename) is a plain miss: it is intact, just not
        the requested content, so it stays on disk.

        ``key`` is :meth:`key_for` of the same arguments, for a caller that
        holds it already.  With ``as_text`` a hit returns the verified
        payload text itself, unparsed (what the service splices into a
        response).
        """
        if key is None:
            key = self.key_for(spec, paths, warm_start)
        text = self._lookup(
            key, spec.name, lambda text: _answers_for(text, spec.content_hash())
        )
        if text is None or as_text:
            return text
        return ScenarioArtifact.from_json(text)

    def store(
        self,
        spec: ScenarioSpec,
        artifact: ScenarioArtifact,
        paths: Sequence[str] = ALL_PATHS,
        warm_start: str = "",
        *,
        key: Optional[str] = None,
    ) -> str:
        """Persist one artifact atomically; returns its content address.

        Outside a :meth:`deferred_index` block each call re-reads and
        atomically rewrites ``index.json`` so racing writers converge on a
        complete document; the index write is O(store size), so campaigns
        defer it to one refresh per run.  The correctness-critical object
        write is O(1), and hits (:meth:`load`) never touch the index at all.

        ``key`` is :meth:`key_for` of the same arguments, for a caller that
        holds it already (as for :meth:`load`).
        """
        if artifact.spec_hash != spec.content_hash():
            raise ConfigurationError(
                f"artifact of {artifact.scenario!r} carries spec hash "
                f"{artifact.spec_hash[:12]} but the spec hashes to "
                f"{spec.content_hash()[:12]}"
            )
        if key is None:
            key = self.key_for(spec, paths, warm_start)
        return self._store_record(
            key=key,
            scenario=artifact.scenario,
            spec_hash=artifact.spec_hash,
            paths=sorted(set(paths)),
            payload=artifact.to_dict(),
        )

    def _store_record(
        self,
        key: str,
        scenario: str,
        spec_hash: str,
        paths: List[str],
        payload: Dict[str, Any],
    ) -> str:
        """Write one record envelope atomically and queue its index entry.

        Inside a :meth:`deferred_index` block the writer thread serialises
        the record too; the entry's size is filled in when the block exits.
        """
        fields = {
            "store_version": STORE_VERSION,
            "key": key,
            "scenario": scenario,
            "spec_hash": spec_hash,
            "paths": paths,
            "code_version": self.code_version,
        }
        write = (
            self._objects_dir, f".{key[:16]}", fields, payload, self._object_path(key)
        )
        with telemetry.span("store.put", scenario=scenario):
            entry = self._entry_from_record(fields, 0)
            if self._writer is None:
                entry["size_bytes"] = _write_record(*write)
            else:
                self._writes.append((key, self._writer.submit(_write_record, *write)))
            self.stats.writes += 1
            telemetry.count("store.writes")

            self._pending_entries.pop(key, None)
            self._pending_entries[key] = entry
            self._note_touch(key)
            if self._writer is None:
                self._refresh_index()
        return key

    # Reduced-basis records ---------------------------------------------------

    def store_rom_basis(self, payload_json: str) -> str:
        """Persist one serialised reduced-basis payload; returns its address.

        ``payload_json`` is the deterministic JSON document produced by
        :meth:`repro.thermal.BasisScope.payloads`.
        Basis records live in the same object space as artifacts (same
        envelope, integrity re-hash, LRU eviction) under the reserved path
        tag ``"rom_basis"``; the record's ``spec_hash`` carries the basis
        *content* key so :meth:`load_rom_basis` can cross-check it.
        """
        payload = json.loads(payload_json)
        if not isinstance(payload, dict) or not isinstance(payload.get("key"), str):
            raise ConfigurationError(
                "not a reduced-basis payload document (missing content key)"
            )
        basis_key = payload["key"]
        return self._store_record(
            key=self._rom_basis_key(basis_key),
            scenario=f"rom-basis:{basis_key[:12]}",
            spec_hash=basis_key,
            paths=["rom_basis"],
            payload=payload,
        )

    def load_rom_basis(self, basis_key: str) -> Optional[str]:
        """Serialised payload of the basis with content key ``basis_key``,
        or ``None`` on miss/corruption (deterministic JSON, ready for a
        kernel warm start).

        Basis lookups are counted by the same lookup as :meth:`load` (one
        ``store.load`` span, ``store.hits``/``store.misses``), so ``repro
        stats`` counts warm-start traffic like artifact traffic.
        """
        parsed: List[Dict[str, Any]] = []

        def answers(text: str) -> bool:
            parsed.append(json.loads(text))
            return parsed[-1].get("key") == basis_key

        text = self._lookup(
            self._rom_basis_key(basis_key), f"rom-basis:{basis_key[:12]}", answers
        )
        return None if text is None else json.dumps(parsed[-1], sort_keys=True)

    def rom_basis_payloads(self) -> List[str]:
        """Serialised payloads of every stored reduced basis (key order) —
        the warm-start bundle of a campaign sharing this store."""
        payloads: List[str] = []
        for entry in self.entries():
            if entry.paths != ("rom_basis",):
                continue
            verified = self._read_verified(entry.key, quarantine=False)
            if verified is not None:
                payloads.append(json.dumps(json.loads(verified[1]), sort_keys=True))
        return sorted(payloads)

    def _evict(self, index: Dict[str, Any], protect: str) -> None:
        """Drop least-recently-used objects beyond ``max_bytes``.

        The bound is judged against the *object directory*, not the index
        alone: objects the index lost to a racing writer (last-writer-wins
        index replacement) are adopted here with zero recency, so the size
        bound holds even when the accelerator went stale.  The just-written
        ``protect`` entry always survives, so a single oversized artifact
        parks in the store instead of thrashing it.
        """
        if self.max_bytes is None:
            return
        entries = index["entries"]
        total = 0
        on_disk = set()
        for path in self._object_paths():
            key = path.stem
            entry = entries.get(key) or self._adopt(key)
            if entry is None:
                continue
            entries[key] = entry
            on_disk.add(key)
            total += int(entry["size_bytes"])
        # Entries whose object vanished (another process evicted it) must
        # not act as victims: popping one would subtract bytes the total
        # never counted and leave the bound violated.  Drop them outright.
        for key in list(entries):
            if key not in on_disk:
                del entries[key]

        while total > self.max_bytes and len(entries) > 1:
            victim = min(
                (key for key in entries if key != protect),
                key=lambda key: (int(entries[key]["last_used"]), key),
                default=None,
            )
            if victim is None:
                return
            total -= int(entries.pop(victim)["size_bytes"])
            try:
                self._object_path(victim).unlink()
            except OSError:  # pragma: no cover - racing unlink is fine
                pass
            self.stats.evictions += 1
            telemetry.count("store.evictions")

    def get_record(self, key: str) -> Optional[Dict[str, Any]]:
        """Raw object record stored under ``key`` (CLI ``show``/``diff``).

        Read-only: a corrupt object is reported as missing but *not*
        quarantined, so inspection commands never destroy the evidence.
        """
        verified = self._read_verified(key, quarantine=False)
        if verified is None:
            return None
        return {**verified[0], "payload": json.loads(verified[1])}

    def resolve_key(self, prefix: str) -> str:
        """Full key matching a unique prefix (raises on none/ambiguous)."""
        matches = sorted(
            path.stem for path in self._objects_dir.glob(f"{prefix}*.json")
        )
        if not matches:
            raise ConfigurationError(
                f"no stored artifact matches key prefix {prefix!r}"
            )
        if len(matches) > 1:
            raise ConfigurationError(
                f"key prefix {prefix!r} is ambiguous: "
                f"{[m[:12] for m in matches]}"
            )
        return matches[0]

    def entries(self) -> List[StoreEntry]:
        """Every stored artifact, most recently used last (objects scan)."""
        index = self._load_index()
        # Fold this instance's unwritten hit recency in (memory only; the
        # next store() persists it).
        for key in self._pending_touches:
            self._touch(index, key)
        known = index["entries"]
        result: List[StoreEntry] = []
        for path in self._object_paths():
            key = path.stem
            entry = known.get(key) or self._adopt(key)
            if entry is None:
                continue
            result.append(
                StoreEntry(
                    key=key,
                    scenario=str(entry["scenario"]),
                    spec_hash=str(entry["spec_hash"]),
                    paths=tuple(entry["paths"]),
                    size_bytes=int(entry["size_bytes"]),
                    last_used=int(entry["last_used"]),
                )
            )
        result.sort(key=lambda entry: (entry.last_used, entry.key))
        return result

    def total_size_bytes(self) -> int:
        """Summed object sizes currently on disk.

        An object unlinked between the directory listing and its ``stat``
        (a racing eviction in another process) contributes nothing instead
        of raising — the listing is advisory by design.
        """
        total = 0
        for path in self._object_paths():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def __len__(self) -> int:
        return sum(1 for _ in self._object_paths())

    def clear(self) -> None:
        """Drop every object and the index."""
        for path in self._object_paths():
            try:
                path.unlink()
            except OSError:  # pragma: no cover
                pass
        try:
            self._index_path.unlink()
        except OSError:
            pass
