"""``repro serve``: a resident evaluation service with request coalescing.

Every consumer of the campaign layer so far has been a one-shot CLI process
paying import plus engine construction on every invocation, even though the
warm path serves a full scenario in ~2 ms.  The :class:`EvaluationService`
keeps the hot state resident across requests instead:

* the content-addressed :class:`~repro.campaigns.store.ArtifactStore` stays
  open, so a warm spec is answered from disk without a process start;
* the process-global factorization LRU and the kernel's parsed warm-start
  bases stay warm, so even *cold* specs of a seen geometry reuse the
  expensive symbolic work;
* kernel calls run on the event loop's default thread pool
  (``loop.run_in_executor``) while the loop keeps accepting requests.

**Spec-hash request coalescing** is the "millions of users" lever: requests
are keyed by the exact store address of their computation (spec content
hash × analysis paths × warm-start digest × code version), and concurrent
requests for the same key share one in-flight future — N identical clients
cost one solve, and every one of them receives the byte-identical response
document.

The wire protocol is deliberately minimal HTTP/1.1 over one asyncio
protocol per connection (stdlib only), served on TCP and/or a unix domain
socket; a body answered from the store before is answered from it again in
the connection's data callback:

``GET /health``
    Liveness document: pid, uptime, in-flight count, request totals.
``GET /stats``
    The live :func:`repro.telemetry.snapshot` plus service counters, store
    counters/hit rate and the factorisation cache's counters and bytes held
    — per-request worker captures are folded in via
    :func:`repro.telemetry.absorb_payload`, so per-spec spans show up here.
``GET /scenarios``
    Registered scenario and campaign names (what ``POST`` bodies can say).
``POST /evaluate``
    One :class:`~repro.scenarios.spec.ScenarioSpec` JSON document in, one
    response document out (``status``/``source``/``artifact`` or
    ``failure`` provenance).  ``?stream=1`` upgrades the response to
    line-delimited JSON progress events (``accepted`` / ``coalesced`` /
    ``store_hit`` / ``computing`` / ``result``).
``POST /campaign/<name>``
    Runs a whole campaign matrix through the same coalescing evaluate path
    and streams one ``scenario`` event per point as it completes, then a
    ``summary`` event — always line-delimited JSON.

A failing spec never kills the server loop: evaluation failures come back
as structured failure-provenance documents (the same shape campaign reports
record), and protocol or validation errors map to 4xx/5xx JSON bodies.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import re
import time
from typing import (
    Any,
    Awaitable,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)
from urllib.parse import parse_qs, urlsplit

from .. import telemetry
from ..errors import ConfigurationError, ReproError
from ..log import get_logger
from ..scenarios import (
    ALL_PATHS,
    ScenarioArtifact,
    ScenarioSpec,
    canonical_json,
)
from ..thermal import factorization_cache_stats
from .executors import WorkItem, run_item
from .kernel import EvaluationKernel
from .matrix import ScenarioMatrix, builtin_matrices
from .store import ArtifactStore, artifact_key

logger = get_logger("service")

#: Default TCP bind of ``repro serve``.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8732

#: Largest request body the server will read (specs are a few KiB).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Bytes the spec memo may charge, at most: some hundreds of distinct
#: design points.
SPEC_MEMO_BYTES = 2 * 1024 * 1024

#: What one memo entry is charged beside its body's length: a generous
#: estimate of a memoised spec's resident size (~1.7 KiB measured for a
#: minimal ``{"name": ...}`` body, ~2.5 KiB for a campaign spec), so a
#: flood of tiny bodies cannot hold many more specs than the bound implies.
SPEC_MEMO_ENTRY_BYTES = 4096

#: An async event sink: receives one JSON-ready dict per progress event.
EventSink = Callable[[Dict[str, Any]], Awaitable[None]]


async def _emit(on_event: Optional[EventSink], event: Dict[str, Any]) -> None:
    if on_event is not None:
        await on_event(event)


class _StoredArtifact(dict):
    """A store hit's artifact: the plain dict of the store's verified
    canonical ``text``, which :func:`_json_line` splices in instead of
    encoding the dict again.  Never mutated after construction."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        super().__init__(json.loads(text))
        self.text = text


class _SpecEntry:
    """One request's validated spec and request key, as the spec memo holds
    them for a body, with the ``charge`` the memo counts for it."""

    __slots__ = ("spec", "key", "charge", "envelope")

    def __init__(self, spec: ScenarioSpec, key: str, charge: int = 0) -> None:
        self.spec = spec
        self.key = key
        self.charge = charge
        #: The encoded members around the artifact of this request's store
        #: hit response (see :func:`_envelope`), filled by its first hit:
        #: they are fixed by the spec, the key and the service, and
        #: :meth:`EvaluationService.stored_response` joins a repeat's
        #: artifact text between them.
        self.envelope: Optional[Tuple[bytes, bytes]] = None


class EvaluationService:
    """Resident evaluation state: kernel, store, in-flight map.

    Parameters
    ----------
    store:
        Artifact store consulted before computing and updated after;
        ``None`` computes every request.
    paths:
        Analysis paths every evaluation runs (fixed per service instance so
        request keys stay exact store addresses).  Ignored when ``kernel``
        is given — the kernel's own paths win.
    warm_start:
        Forwarded to the default :class:`~repro.campaigns.kernel.
        EvaluationKernel` (see :class:`~repro.campaigns.runner.
        CampaignRunner` for semantics); like ``paths``, ignored when
        ``kernel`` is given.
    concurrency:
        Bound on kernel calls in flight across *all* requests (one shared
        semaphore over the loop's default thread pool).
    kernel:
        Evaluation kernel override (tests, fault injection).
    matrices:
        Campaign-name registry for ``POST /campaign/<name>``; defaults to
        the built-in matrices.
    """

    def __init__(
        self,
        store: Optional[ArtifactStore] = None,
        paths: Sequence[str] = ALL_PATHS,
        warm_start: Sequence[str] = (),
        concurrency: int = 4,
        kernel: Optional[EvaluationKernel] = None,
        matrices: Optional[Mapping[str, ScenarioMatrix]] = None,
    ) -> None:
        if concurrency < 1:
            raise ConfigurationError("service concurrency must be >= 1")
        self.kernel = (
            EvaluationKernel(tuple(paths), warm_start=tuple(warm_start))
            if kernel is None
            else kernel
        )
        self.store = store
        self.concurrency = concurrency
        self.matrices = dict(builtin_matrices() if matrices is None else matrices)
        #: Store key -> future of the in-flight computation (coalescing).
        self._inflight: Dict[str, "asyncio.Future[Dict[str, Any]]"] = {}
        self._semaphore: Optional[asyncio.Semaphore] = None
        self.counters: Dict[str, int] = {}
        self._started_perf = time.perf_counter()
        #: SHA-256 of a request body -> its entry, least recently used
        #: first; bounded by :data:`SPEC_MEMO_BYTES` charged.
        self._spec_memo: Dict[bytes, _SpecEntry] = {}
        self._spec_memo_bytes = 0
        self._spec_memo_hits = 0

    # Bookkeeping ------------------------------------------------------------

    def _count(self, name: str) -> None:
        """Bump a service counter (plain dict always, telemetry when on)."""
        self.counters[name] = self.counters.get(name, 0) + 1
        telemetry.count(name)

    @property
    def paths(self) -> Tuple[str, ...]:
        """Analysis paths every evaluation runs: the kernel's."""
        return self.kernel.paths

    def _kernel_semaphore(self) -> asyncio.Semaphore:
        """The shared compute bound, created lazily on the serving loop."""
        if self._semaphore is None:
            self._semaphore = asyncio.Semaphore(self.concurrency)
        return self._semaphore

    def request_key(self, spec: ScenarioSpec) -> str:
        """Coalescing key of one request: the exact store address.

        With a store attached this *is* :meth:`~repro.campaigns.store.
        ArtifactStore.key_for`, so two requests coalesce exactly when they
        would read/write the same store object; without one, the address a
        store of the default code version would give it
        (:func:`~repro.campaigns.store.artifact_key`).
        """
        key_for = artifact_key if self.store is None else self.store.key_for
        return key_for(spec, self.kernel.paths, self.kernel.warm_start_digest)

    def spec_for_body(self, body: bytes) -> Tuple[ScenarioSpec, str]:
        """Validated spec and request key of one JSON request body.

        Memoised by the body's SHA-256, so a body seen before is neither
        parsed nor hashed again.  Each entry is charged its body's length
        plus :data:`SPEC_MEMO_ENTRY_BYTES`; the least recently used entries
        leave the memo beyond :data:`SPEC_MEMO_BYTES`.  An invalid body
        raises :class:`~repro.errors.ConfigurationError` and is never
        memoised.
        """
        entry = self._entry_for_body(body)
        return entry.spec, entry.key

    def _entry_for_body(self, body: bytes) -> _SpecEntry:
        """The memo entry of one request body (see :meth:`spec_for_body`);
        it also keeps the encoded envelope of the body's store hits."""
        digest = hashlib.sha256(body).digest()
        memo = self._spec_memo
        entry = memo.pop(digest, None)
        if entry is not None:
            memo[digest] = entry
            self._spec_memo_hits += 1
            return entry
        try:
            document = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise ConfigurationError(f"request body is not JSON: {error}") from None
        if not isinstance(document, dict):
            raise ConfigurationError("request body must be a JSON object")
        spec = ScenarioSpec.from_dict(document)
        entry = _SpecEntry(
            spec, self.request_key(spec), len(body) + SPEC_MEMO_ENTRY_BYTES
        )
        if entry.charge <= SPEC_MEMO_BYTES:
            memo[digest] = entry
            self._spec_memo_bytes += entry.charge
            while self._spec_memo_bytes > SPEC_MEMO_BYTES:
                oldest = next(iter(memo))
                self._spec_memo_bytes -= memo.pop(oldest).charge
        return entry

    # Evaluation -------------------------------------------------------------

    async def evaluate(
        self,
        request: Union[bytes, Mapping[str, Any], ScenarioSpec],
        on_event: Optional[EventSink] = None,
    ) -> Dict[str, Any]:
        """Serve one spec: validate, coalesce, store-or-compute, persist.

        ``request`` is a validated spec, a spec document, or the raw JSON
        body of one (the HTTP transport's), which goes through
        :meth:`spec_for_body`.  Every caller gets the same document: a store
        hit's artifact is a :class:`_StoredArtifact`, equal to the plain
        dict, whose verified text :func:`_json_line` splices in.

        Returns the response document; never raises for a *failing* spec
        (the document carries the failure provenance instead).  Invalid
        specs raise :class:`~repro.errors.ReproError` — the transport maps
        those to a 400.
        """
        self._count("service.requests")
        with telemetry.span("service.request") as request_span:
            if isinstance(request, bytes):
                entry = self._entry_for_body(request)
            else:
                spec = (
                    request
                    if isinstance(request, ScenarioSpec)
                    else ScenarioSpec.from_dict(dict(request))
                )
                entry = _SpecEntry(spec, self.request_key(spec))
            spec, key = entry.spec, entry.key
            request_span.set(scenario=spec.name)
            await _emit(
                on_event, {"event": "accepted", "scenario": spec.name, "key": key}
            )
            future = self._inflight.get(key)
            if future is not None:
                # Coalesce: ride the in-flight computation.  shield() keeps
                # one cancelled follower (client disconnect) from cancelling
                # the shared future under everyone else.
                self._count("service.coalesced")
                request_span.set(source="coalesced")
                await _emit(on_event, {"event": "coalesced", "key": key})
                document = await asyncio.shield(future)
            else:
                future = asyncio.get_running_loop().create_future()
                self._inflight[key] = future
                try:
                    document = await self._resolve(entry, on_event)
                    future.set_result(document)
                    request_span.set(source=document["source"])
                except BaseException:
                    # Only cancellation (or a genuine bug) escapes _resolve;
                    # wake the followers with the same fate instead of
                    # hanging them.
                    if not future.done():
                        future.cancel()
                    raise
                finally:
                    self._inflight.pop(key, None)
        return document

    async def _resolve(
        self, entry: _SpecEntry, on_event: Optional[EventSink]
    ) -> Dict[str, Any]:
        """Store lookup, then one kernel dispatch; returns the document."""
        spec, key = entry.spec, entry.key
        text = self._stored_text(entry)
        if text is not None:
            await _emit(on_event, {"event": "store_hit", "key": key})
            document = self._document(
                spec, key, "store", artifact=_StoredArtifact(text)
            )
            if entry.envelope is None:
                entry.envelope = _envelope(document)
            return document
        await _emit(on_event, {"event": "computing", "key": key})
        async with self._kernel_semaphore():
            # Counted here, in the request's context: the pool thread does
            # not see the caller's telemetry contextvars.
            telemetry.count("executor.dispatches")
            result = await asyncio.get_running_loop().run_in_executor(
                None, run_item, self.kernel, WorkItem(0, spec)
            )
            if not result.ok:
                telemetry.count("executor.failures")
        if result.telemetry is not None:
            telemetry.absorb_payload(result.telemetry)
        if result.ok:
            self._count("service.computed")
            if self.store is not None:
                self.store.store(
                    spec,
                    ScenarioArtifact.from_dict(result.artifact),
                    self.kernel.paths,
                    key=key,
                )
            return self._document(
                spec, key, "computed", artifact=result.artifact
            )
        self._count("service.failures")
        error = result.error
        logger.warning(
            "spec %r failed in service: %s: %s",
            spec.name,
            error["type"],
            error["message"],
        )
        return self._document(
            spec, key, "computed", failure=result.provenance()
        )

    def _stored_text(self, entry: _SpecEntry) -> Optional[str]:
        """The verified artifact text the store holds for ``entry``, unparsed,
        or ``None`` on a miss or with no store: the one store lookup of a
        request, in :meth:`evaluate` and :meth:`stored_response` alike."""
        if self.store is None:
            return None
        text = self.store.load(entry.spec, key=entry.key, as_text=True)
        if text is not None:
            self._count("service.store_served")
        return text

    def stored_response(self, body: bytes) -> Optional[bytes]:
        """The response line of a plain request ``body`` when the store
        answers it now, else ``None``: the transport then awaits
        :meth:`evaluate` for it.

        Synchronous, so the transport answers a store hit in the
        connection's data callback, with the counters and request span
        :meth:`evaluate` gives a hit.  Only a body the spec memo holds with
        an envelope (one answered from the store before) whose key is not in
        flight is tried, so a first sighting, a failed spec or a key being
        computed costs no lookup here.  A tried body whose object has left
        the store since costs one more store lookup, and one more request
        span, before :meth:`evaluate` computes it.
        """
        digest = hashlib.sha256(body).digest()
        memo = self._spec_memo
        entry = memo.get(digest)
        if entry is None or entry.envelope is None or entry.key in self._inflight:
            return None
        with telemetry.span("service.request", scenario=entry.spec.name) as span:
            text = self._stored_text(entry)
            if text is None:
                entry.envelope = None
                return None
            span.set(source="store")
            self._count("service.requests")
            memo[digest] = memo.pop(digest)
            self._spec_memo_hits += 1
            head, tail = entry.envelope
            return head + text.encode("utf-8") + tail

    def _document(
        self,
        spec: ScenarioSpec,
        key: str,
        source: str,
        artifact: Optional[Any] = None,
        failure: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """One response document.  ``source`` describes how the *result* was
        produced (``store``/``computed``), not the request path — coalesced
        followers share the leader's document byte for byte."""
        document: Dict[str, Any] = {
            "status": "ok" if artifact is not None else "failed",
            "scenario": spec.name,
            "key": key,
            "spec_hash": spec.content_hash(),
            "design_hash": spec.design_hash(),
            "paths": list(self.kernel.paths),
            "source": source,
        }
        if artifact is not None:
            document["artifact"] = artifact
        if failure is not None:
            document["failure"] = failure
        return document

    # Campaigns --------------------------------------------------------------

    def _matrix(self, name: str) -> ScenarioMatrix:
        if name not in self.matrices:
            raise ConfigurationError(
                f"unknown campaign {name!r}; available: {sorted(self.matrices)}"
            )
        return self.matrices[name]

    async def run_campaign(
        self, name: str, on_event: Optional[EventSink] = None
    ) -> Dict[str, Any]:
        """Fan a campaign matrix through :meth:`evaluate` concurrently.

        Every point rides the same coalescing/store path a single request
        does (so a re-run is all store hits, and a point another client is
        already computing is joined, not recomputed).  Emits one
        ``scenario`` event per point in completion order and returns the
        summary document.
        """
        matrix = self._matrix(name)
        points = matrix.points()
        await _emit(
            on_event,
            {
                "event": "campaign",
                "campaign": matrix.name,
                "scenarios": len(points),
            },
        )

        async def one(point: Any) -> Dict[str, Any]:
            document = await self.evaluate(point.spec)
            await _emit(
                on_event,
                {
                    "event": "scenario",
                    "scenario": point.spec.name,
                    "status": document["status"],
                    "source": document["source"],
                    "key": document["key"],
                },
            )
            return document

        documents = await asyncio.gather(*(one(point) for point in points))
        summary = {
            "event": "summary",
            "campaign": matrix.name,
            "scenarios": len(points),
            "ok": sum(1 for d in documents if d["status"] == "ok"),
            "failed": sum(1 for d in documents if d["status"] == "failed"),
            "store_served": sum(1 for d in documents if d["source"] == "store"),
            "computed": sum(1 for d in documents if d["source"] == "computed"),
        }
        await _emit(on_event, summary)
        return summary

    # Introspection ----------------------------------------------------------

    def health_document(self) -> Dict[str, Any]:
        """The ``/health`` liveness document."""
        return {
            "status": "ok",
            "pid": os.getpid(),
            "uptime_s": time.perf_counter() - self._started_perf,
            "inflight": len(self._inflight),
            "requests": self.counters.get("service.requests", 0),
            "paths": list(self.kernel.paths),
            "warm_start_bases": len(self.kernel.warm_start),
            "store_attached": self.store is not None,
            "telemetry_enabled": telemetry.is_enabled(),
        }

    def stats_document(self) -> Dict[str, Any]:
        """The ``/stats`` document: live telemetry snapshot + counters."""
        document = telemetry.snapshot()
        document["service"] = {
            "counters": {
                name: self.counters[name] for name in sorted(self.counters)
            },
            "inflight": len(self._inflight),
            "uptime_s": time.perf_counter() - self._started_perf,
            "concurrency": self.concurrency,
        }
        document["spec_memo"] = {
            "entries": len(self._spec_memo),
            "bytes": self._spec_memo_bytes,
            "max_bytes": SPEC_MEMO_BYTES,
            "hits": self._spec_memo_hits,
        }
        document["factorization"] = factorization_cache_stats()
        if self.store is None:
            document["store"] = None
        else:
            stats = self.store.stats
            document["store"] = {
                **stats.to_dict(),
                "hit_rate": stats.hit_rate,
                "objects": len(self.store),
                "root": str(self.store.root),
            }
        return document

    def scenarios_document(self) -> Dict[str, Any]:
        """The ``/scenarios`` listing (what POST bodies can reference)."""
        from ..scenarios import default_registry

        return {
            "scenarios": default_registry().names(),
            "campaigns": sorted(self.matrices),
        }


# HTTP transport -------------------------------------------------------------


class _HttpError(ReproError):
    """A protocol-level failure with an HTTP status attached."""

    def __init__(self, status: int, message: str) -> None:
        self.status = status
        super().__init__(message)


class _Request:
    """One parsed HTTP request (method, path, query, headers, body)."""

    __slots__ = ("method", "path", "query", "headers", "body")

    def __init__(
        self,
        method: str,
        path: str,
        query: Dict[str, List[str]],
        headers: Dict[str, str],
        body: bytes,
    ) -> None:
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body

    def flag(self, name: str) -> bool:
        """Truthiness of query parameter ``name`` (``?stream=1``)."""
        values = self.query.get(name, [])
        return bool(values) and values[-1].lower() not in ("0", "false", "no")

    @property
    def wants_stream(self) -> bool:
        return self.flag("stream") or "ndjson" in self.headers.get(
            "accept", ""
        )

    @property
    def wants_close(self) -> bool:
        return self.headers.get("connection", "").lower() == "close"


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


def _envelope(document: Mapping[str, Any]) -> Tuple[bytes, bytes]:
    """The encoded members of ``document`` before and after its
    ``artifact``: its canonical line is ``head``, the artifact's canonical
    text, then ``tail``."""
    before = {name: value for name, value in document.items() if name < "artifact"}
    after = {name: value for name, value in document.items() if name > "artifact"}
    head = canonical_json(before)[:-1] + ("," if before else "") + '"artifact":'
    tail = ("," if after else "") + canonical_json(after)[1:] + "\n"
    return head.encode("utf-8"), tail.encode("utf-8")


def _json_line(document: Mapping[str, Any]) -> bytes:
    """One response line: the canonical compact JSON of ``document``.

    Every body and ndjson event goes through here.  An artifact loaded from
    the store (a :class:`_StoredArtifact`) is spliced in as its verified
    canonical text, at its sorted place, between the document's other
    members encoded by :func:`_envelope`; the line is byte-identical to
    encoding the plain dict.
    """
    text = getattr(document.get("artifact"), "text", None)
    if text is None:
        return (canonical_json(document) + "\n").encode("utf-8")
    head, tail = _envelope(document)
    return head + text.encode("utf-8") + tail


#: The end of a request head: its first empty line.  Each line may end in
#: CRLF or a bare LF.
_HEAD_END = re.compile(rb"\n\r?\n")

#: Longest request head the server reads, and how many bytes a connection
#: buffers while a request of it is being answered before it stops reading.
_MAX_HEAD_BYTES = 64 * 1024


class _RequestBuffer:
    """A connection's bytes received and not yet parsed into requests.

    A request's head is the block before its first empty line, or, at EOF,
    everything received; its body follows in the same buffer.
    """

    __slots__ = ("data", "eof", "scanned")

    def __init__(self) -> None:
        self.data = bytearray()
        #: Whether the client has sent its last byte (or a head beyond
        #: :data:`_MAX_HEAD_BYTES`, which ends the stream too).
        self.eof = False
        #: Where the search for the head's end resumes.
        self.scanned = 0

    def next_request(self) -> Optional[_Request]:
        """The next whole request, taken off the buffer; ``None`` while the
        buffer holds none.  At :attr:`eof`, ``None`` means no request is
        left, whole or not: the connection then closes without an answer.
        A malformed head raises :class:`_HttpError`.
        """
        data = self.data
        if not data:
            return None
        end = _HEAD_END.search(data, self.scanned)
        if end is not None:
            head, body_start = data[: end.start()], end.end()
        elif self.eof:
            head, body_start = data.removesuffix(b"\n"), len(data)
        else:
            if len(data) > _MAX_HEAD_BYTES:
                data.clear()
                self.eof = True
            self.scanned = max(0, len(data) - 2)
            return None
        request_line, *lines = head.decode("latin-1").split("\n")
        parts = request_line.strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _HttpError(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        for line in lines:
            name, separator, value = line.partition(":")
            if not separator:
                raise _HttpError(400, f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        if not (length_text.isascii() and length_text.isdigit()):
            raise _HttpError(400, "malformed Content-Length")
        length = int(length_text)
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        body_end = body_start + length
        if len(data) < body_end:
            return None
        body = bytes(data[body_start:body_end])
        del data[:body_end]
        self.scanned = 0
        split = urlsplit(target)
        query = parse_qs(split.query) if split.query else {}
        return _Request(method, split.path, query, headers, body)


def _response(status: int, body: bytes, keep_alive: bool) -> bytes:
    """One JSON response: status line, headers and ``body``."""
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


def _error_line(error: BaseException) -> bytes:
    """The body of a 500 answer to an unexpected ``error``."""
    return _json_line(
        {"status": "error", "error": f"{type(error).__name__}: {error}"}
    )


class _Connection(asyncio.Protocol):
    """One client connection, TCP or unix.

    Each read is parsed in :meth:`data_received` without awaiting.  A plain
    ``POST /evaluate`` the store answers now is answered there, through
    :meth:`EvaluationService.stored_response`; any other request runs
    :meth:`ServiceServer._dispatch` on a task, with this connection as its
    writer, and nothing more is parsed until that task finishes, so answers
    leave in request order.  A lost connection drops what is written to it
    and leaves a running task alone: its computation completes and is
    stored.
    """

    def __init__(self, server: "ServiceServer") -> None:
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self.buffer = _RequestBuffer()
        #: The task answering this connection's current request, if any.
        self.task: Optional["asyncio.Task[bool]"] = None
        #: Set while the transport's write buffer is full (reading pauses
        #: meanwhile); resolved when it drains or the connection is lost.
        self.writable: Optional["asyncio.Future[None]"] = None

    # Protocol callbacks -----------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]

    def data_received(self, data: bytes) -> None:
        self.buffer.data += data
        if self.task is None:
            self._serve()
        elif len(self.buffer.data) > _MAX_HEAD_BYTES:
            self.transport.pause_reading()

    def eof_received(self) -> bool:
        self.buffer.eof = True
        if self.task is None:
            self._serve()
        return True  # keep writing the answers still owed

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self.resume_writing()

    def pause_writing(self) -> None:
        # A client that stops reading its answers stops having its requests
        # read, so answers written here cannot pile up without bound.
        self.writable = asyncio.get_running_loop().create_future()
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        if self.writable is not None and not self.writable.done():
            self.writable.set_result(None)
        self.writable = None
        self.transport.resume_reading()

    # The writer of a dispatched request -------------------------------------

    def write(self, data: bytes) -> None:
        if not self.transport.is_closing():
            self.transport.write(data)

    async def drain(self) -> None:
        if self.writable is not None:
            await self.writable

    # Serving ----------------------------------------------------------------

    def _serve(self) -> None:
        """Answer the buffered requests in order until one needs a task."""
        service = self.server.service
        while not self.transport.is_closing():
            try:
                request = self.buffer.next_request()
            except _HttpError as error:
                document = {"status": "error", "error": str(error)}
                self._close_with(_response(error.status, _json_line(document), False))
                return
            if request is None:
                if self.buffer.eof:
                    self.transport.close()
                return
            keep_alive = not request.wants_close
            if (
                request.method == "POST"
                and request.path == "/evaluate"
                and not request.wants_stream
            ):
                try:
                    line = service.stored_response(request.body)
                except Exception as error:  # keep serving, as a task would
                    logger.exception("request handler failed")
                    self._close_with(_response(500, _error_line(error), False))
                    return
                if line is not None:
                    if not keep_alive:
                        self._close_with(_response(200, line, False))
                        return
                    self.write(_response(200, line, True))
                    continue
            self.task = asyncio.get_running_loop().create_task(
                self.server._dispatch(request, self)
            )
            self.task.add_done_callback(self._dispatched)
            return

    def _close_with(self, data: bytes) -> None:
        """Write ``data``, the connection's last answer, and close."""
        self.write(data)
        self.transport.close()

    def _dispatched(self, task: "asyncio.Task[bool]") -> None:
        self.task = None
        if task.cancelled() or task.exception() is not None or not task.result():
            self.transport.close()
            return
        self.transport.resume_reading()
        self._serve()


class ServiceServer:
    """Binds an :class:`EvaluationService` to TCP and/or a unix socket.

    One :class:`_Connection` protocol per connection serves both
    transports; connections are keep-alive for plain JSON responses and
    close-delimited for streaming (ndjson) ones.  Every handler error is
    answered as a JSON document — the serving loop itself never dies with a
    request.
    """

    def __init__(
        self,
        service: EvaluationService,
        host: Optional[str] = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        socket_path: Optional[Union[str, os.PathLike]] = None,
    ) -> None:
        if host is None and socket_path is None:
            raise ConfigurationError(
                "the server needs a TCP host/port, a unix socket path, or both"
            )
        self.service = service
        self.host = host
        self.port = port
        self.socket_path = None if socket_path is None else str(socket_path)
        self.address: Optional[Tuple[str, int]] = None
        self._servers: List[asyncio.AbstractServer] = []

    # Lifecycle --------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listeners; ``self.address`` carries the actual TCP port
        (ephemeral binds via ``port=0`` resolve here)."""
        loop = asyncio.get_running_loop()
        if self.host is not None:
            server = await loop.create_server(
                self._connection, host=self.host, port=self.port
            )
            bound = server.sockets[0].getsockname()
            self.address = (bound[0], bound[1])
            self._servers.append(server)
        if self.socket_path is not None:
            server = await loop.create_unix_server(
                self._connection, path=self.socket_path
            )
            self._servers.append(server)

    def _connection(self) -> _Connection:
        return _Connection(self)

    @property
    def endpoints(self) -> List[str]:
        """Human-readable bound endpoints (log lines, CLI banner)."""
        endpoints = []
        if self.address is not None:
            endpoints.append(f"http://{self.address[0]}:{self.address[1]}")
        if self.socket_path is not None:
            endpoints.append(f"unix:{self.socket_path}")
        return endpoints

    async def serve_forever(self) -> None:
        if not self._servers:
            raise ConfigurationError("server not started; call start() first")
        await asyncio.gather(
            *(server.serve_forever() for server in self._servers)
        )

    async def stop(self) -> None:
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers.clear()
        if self.socket_path is not None:
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass

    # Request handling -------------------------------------------------------

    async def _dispatch(
        self, request: _Request, writer: _Connection
    ) -> bool:
        """Route one request; returns whether to keep the connection."""
        keep_alive = not request.wants_close
        try:
            if request.method == "GET" and request.path == "/health":
                document = self.service.health_document()
            elif request.method == "GET" and request.path == "/stats":
                document = self.service.stats_document()
            elif request.method == "GET" and request.path == "/scenarios":
                document = self.service.scenarios_document()
            elif request.method == "POST" and request.path == "/evaluate":
                return await self._handle_evaluate(request, writer, keep_alive)
            elif request.method == "POST" and request.path.startswith(
                "/campaign/"
            ):
                name = request.path[len("/campaign/") :]
                return await self._handle_campaign(name, writer)
            else:
                await self._send_json(
                    writer,
                    404 if request.path not in ("/evaluate",) else 405,
                    {
                        "status": "error",
                        "error": f"no route {request.method} {request.path}",
                    },
                    keep_alive=keep_alive,
                )
                return keep_alive
        except ReproError as error:
            await self._send_json(
                writer,
                400,
                {"status": "error", "error": str(error)},
                keep_alive=keep_alive,
            )
            return keep_alive
        except Exception as error:  # keep serving on unexpected failures
            logger.exception("request handler failed")
            writer.write(_response(500, _error_line(error), False))
            await writer.drain()
            return False
        await self._send_json(writer, 200, document, keep_alive=keep_alive)
        return keep_alive

    async def _handle_evaluate(
        self, request: _Request, writer: _Connection, keep_alive: bool
    ) -> bool:
        """An invalid body raises (a 400 from :meth:`_dispatch`), streamed
        or not: a stream starts with its first event, which ``evaluate``
        emits only once the spec is valid."""
        if not request.wants_stream:
            document = await self.service.evaluate(request.body)
            await self._send_json(
                writer, 200, document, keep_alive=keep_alive
            )
            return keep_alive
        stream: Optional[EventSink] = None

        async def emit(event: Dict[str, Any]) -> None:
            nonlocal stream
            if stream is None:
                stream = await self._start_stream(writer)
            await stream(event)

        try:
            document = await self.service.evaluate(request.body, on_event=emit)
        except ReproError as error:
            if stream is None:
                raise
            await emit({"event": "error", "error": str(error)})
            return False
        await emit({"event": "result", **document})
        return False

    async def _handle_campaign(
        self, name: str, writer: _Connection
    ) -> bool:
        """Campaign runs always stream (that is their point)."""
        emit = await self._start_stream(writer)
        try:
            await self.service.run_campaign(name, on_event=emit)
        except ReproError as error:
            await emit({"event": "error", "error": str(error)})
        return False

    # Response writing -------------------------------------------------------

    async def _send_json(
        self,
        writer: _Connection,
        status: int,
        document: Mapping[str, Any],
        keep_alive: bool = True,
    ) -> None:
        writer.write(_response(status, _json_line(document), keep_alive))
        await writer.drain()

    async def _start_stream(self, writer: _Connection) -> EventSink:
        """Send ndjson headers; returns a locked per-connection event sink.

        The lock serialises concurrent emitters (a campaign's points finish
        concurrently) so event lines never interleave mid-line; the body is
        close-delimited (``Connection: close``), which every HTTP/1.1
        client understands without chunked encoding.
        """
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Cache-Control: no-store\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1"))
        await writer.drain()
        lock = asyncio.Lock()

        async def emit(event: Dict[str, Any]) -> None:
            async with lock:
                writer.write(_json_line(event))
                await writer.drain()

        return emit


async def serve(
    service: EvaluationService,
    host: Optional[str] = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    socket_path: Optional[Union[str, os.PathLike]] = None,
    ready: Optional[Callable[[ServiceServer], None]] = None,
) -> None:
    """Run a server until cancelled (the ``repro serve`` main coroutine).

    ``ready`` is called once the listeners are bound (the CLI prints the
    endpoints there; tests grab the ephemeral port).
    """
    server = ServiceServer(
        service, host=host, port=port, socket_path=socket_path
    )
    await server.start()
    if ready is not None:
        ready(server)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:  # clean shutdown path
        pass
    finally:
        await server.stop()
