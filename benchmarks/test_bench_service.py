"""Service store hits: where one warm ``/evaluate`` spends its time.

A store-served request does these things before its bytes reach the socket:

* **head** — parse the request off the connection's buffer: its head as
  one block (request line and headers), then its body;
* **parse** — on a body's first sighting, into a validated
  :class:`ScenarioSpec`;
* **key** — on a first sighting, the request's store address (spec content
  hash × paths);
* **repeat** — instead of both, for a body seen before: the service's spec
  memo, body to spec and key;
* **store_load** — read the object, parse its envelope and verify the
  stored payload text against its digest (``ArtifactStore.load`` with
  ``as_text``, as the service reads it);
* **encode** — the response line of a hit document from
  :meth:`EvaluationService.evaluate`: ``_json_line`` splices the verified
  artifact text between the other members, encoded on the spot, rather
  than re-encoding the artifact.

**hit** times the whole synchronous answer the connection writes for a
body it has seen answered from the store before
(:meth:`EvaluationService.stored_response`: memo, verified load and line,
with its counters and request span).  It is the memoised path: the other
members were encoded once per spec-memo entry, at the body's first hit.

Each stage is timed per hit over :data:`REPEATS` passes of the
``campaign_smoke`` specs, warm, and reported as median and interquartile
range in microseconds.  ``encode_reencoded`` times the same line built from
the plain dict of an artifact loaded through :class:`ScenarioArtifact`,
which is what the splice and the memoised envelope save.  The bench checks
that the spliced line is byte-identical to that independent re-encoding
and faster than it.
Records land in ``BENCH_service.json`` keyed by ``<campaign>@<hash
prefix>`` over the spec hashes, only under ``--bench-record``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import statistics
import time
from pathlib import Path

from repro.campaigns import ArtifactStore, CampaignRunner, EvaluationService, get_matrix
from repro.campaigns.service import _json_line, _RequestBuffer
from repro.scenarios import ScenarioSpec

BENCH_RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"

BENCH_CAMPAIGN = "campaign_smoke"

#: Timed passes over the campaign's specs (each pass hits every spec once).
REPEATS = 100

STAGES = (
    "head",
    "parse",
    "key",
    "repeat",
    "store_load",
    "encode",
    "encode_reencoded",
    "hit",
)


def _http_request(body):
    """A keep-alive ``POST /evaluate`` of ``body``, as a client sends it."""
    head = (
        "POST /evaluate HTTP/1.1\r\nHost: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


def _summary_us(samples_ns):
    """Median and interquartile range of ``samples_ns``, in microseconds."""
    quartiles = statistics.quantiles(samples_ns, n=4)
    return {
        "median_us": round(statistics.median(samples_ns) / 1e3, 2),
        "iqr_us": round((quartiles[2] - quartiles[0]) / 1e3, 2),
    }


def test_store_hit_split(tmp_path, bench_record):
    matrix = get_matrix(BENCH_CAMPAIGN)
    store = ArtifactStore(tmp_path / "store")
    cold = CampaignRunner(matrix, store=store).run()
    assert not cold.failures
    service = EvaluationService(store=store, paths=cold.paths)
    specs = [point.spec for point in matrix.points()]
    bodies = [spec.to_json().encode("utf-8") for spec in specs]

    async def warm_documents():
        return [await service.evaluate(body) for body in bodies]

    documents = asyncio.run(warm_documents())
    assert all(document["source"] == "store" for document in documents)
    plain_documents = [
        {**document, "artifact": store.load(spec, service.paths).to_dict()}
        for spec, document in zip(specs, documents)
    ]

    requests = [_http_request(body) for body in bodies]
    samples = {stage: [] for stage in STAGES}
    clock = time.perf_counter_ns

    def timed_passes():
        # The buffer is fed each request whole, as one read of a local
        # socket brings it.
        buffer = _RequestBuffer()
        for _ in range(REPEATS):
            for request, body, document, plain in zip(
                requests, bodies, documents, plain_documents
            ):
                buffer.data += request
                start = clock()
                received = buffer.next_request()
                read = clock()
                spec = ScenarioSpec.from_dict(json.loads(received.body))
                parsed = clock()
                service.request_key(spec)
                keyed = clock()
                memoised, key = service.spec_for_body(body)
                repeated = clock()
                text = store.load(memoised, service.paths, key=key, as_text=True)
                loaded = clock()
                line = _json_line(document)
                encoded = clock()
                reencoded_line = _json_line(plain)
                reencoded = clock()
                answer = service.stored_response(body)
                answered = clock()
                assert received.body == body
                assert answer == line
                assert text == document["artifact"].text
                assert line == reencoded_line
                for stage, begin, end in (
                    ("head", start, read),
                    ("parse", read, parsed),
                    ("key", parsed, keyed),
                    ("repeat", keyed, repeated),
                    ("store_load", repeated, loaded),
                    ("encode", loaded, encoded),
                    ("encode_reencoded", encoded, reencoded),
                    ("hit", reencoded, answered),
                ):
                    samples[stage].append(end - begin)

    timed_passes()

    split = {stage: _summary_us(samples[stage]) for stage in STAGES}
    assert split["encode"]["median_us"] < split["encode_reencoded"]["median_us"]
    assert store.stats.corrupt == 0

    record = {
        "campaign": BENCH_CAMPAIGN,
        "scenarios": len(bodies),
        "paths": list(cold.paths),
        "repeats": REPEATS,
        "response_bytes": round(statistics.mean(len(_json_line(d)) for d in documents)),
        "split": split,
    }
    spec_hashes = "".join(point.spec.content_hash() for point in matrix.points())
    bench_id = f"{BENCH_CAMPAIGN}@{hashlib.sha256(spec_hashes.encode()).hexdigest()[:8]}"
    bench_record(BENCH_RECORD_PATH, {bench_id: record}, sort_keys=True)

    print()
    print(
        "store hit split (median us): "
        + ", ".join(f"{stage} {split[stage]['median_us']:.1f}" for stage in STAGES)
    )
