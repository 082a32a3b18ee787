"""``repro serve``: coalescing, store residency, streaming, failure isolation.

The service contract this module pins:

* concurrent requests for the same spec hash cost ONE kernel invocation
  (the ``executor.dispatches`` counter is the witness) and every coalesced
  client receives the byte-identical response document;
* a warm spec is answered from the resident store without dispatching, and
  fast (the end-to-end HTTP round trip, not just the lookup);
* responses are canonical compact JSON, and a store-served body splices the
  artifact text the store verified: it is byte-identical to the computed
  body except for ``source``;
* a failing spec produces a structured failure-provenance document — and
  the server loop survives to serve the next request;
* progress streams as line-delimited JSON events over plain HTTP/1.1, on
  TCP and unix sockets alike, and protocol errors map to 4xx/5xx JSON
  bodies instead of dead connections;
* a connection answers pipelined requests in order, store hits as soon as
  they are read, and a client that leaves mid-answer cancels nothing.
"""

import asyncio
import json
import logging
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro import telemetry
from repro.campaigns import (
    ArtifactStore,
    EvaluationKernel,
    EvaluationService,
    MatrixAxis,
    ScenarioMatrix,
    ServiceServer,
)
from repro.errors import ConfigurationError, ReproError
from repro.scenarios import ScenarioSpec, canonical_json
from repro.thermal import ReducedBasis


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Every test starts and ends with the tracer off and empty."""
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


def spec_dict(name="svc_spec", power=10.0):
    """A cheap steady-only-friendly spec document (the POST body)."""
    return (
        ScenarioSpec(name=name)
        .with_overrides({"workload.total_power_w": power})
        .to_dict()
    )


def make_service(tmp_path=None, **kwargs):
    kwargs.setdefault("paths", ("steady",))
    kwargs.setdefault("concurrency", 2)
    if tmp_path is not None:
        kwargs.setdefault("store", ArtifactStore(tmp_path / "store"))
    return EvaluationService(**kwargs)


class PoisonKernel(EvaluationKernel):
    """Kernel failing every listed spec name (in-process, thread-safe)."""

    def run(self, spec):
        if spec.name.startswith("poison"):
            raise RuntimeError("poison spec, fails on every attempt")
        return super().run(spec)


class TestEvaluationService:
    def test_compute_then_store_round_trip(self, tmp_path):
        service = make_service(tmp_path)

        async def main():
            first = await service.evaluate(spec_dict())
            second = await service.evaluate(spec_dict())
            return first, second

        first, second = asyncio.run(main())
        assert (first["status"], first["source"]) == ("ok", "computed")
        assert (second["status"], second["source"]) == ("ok", "store")
        # The response document is the store address plus the artifact.
        assert first["key"] == second["key"]
        assert first["artifact"] == second["artifact"]
        assert first["artifact"]["results"]["steady"]
        assert service.counters == {
            "service.requests": 2,
            "service.computed": 1,
            "service.store_served": 1,
        }

    def test_concurrent_same_spec_requests_cost_one_dispatch(self, tmp_path):
        """The tentpole pin: N concurrent clients, one solve.

        ``executor.dispatches`` counts kernel dispatches on the service
        loop; two gathered requests for the same spec hash must coalesce to
        exactly one, and both clients must receive the byte-identical
        document.
        """
        telemetry.enable()
        service = make_service(tmp_path)

        async def main():
            return await asyncio.gather(
                service.evaluate(spec_dict()),
                service.evaluate(spec_dict()),
            )

        first, second = asyncio.run(main())
        dispatches = telemetry.global_registry().counter_value(
            "executor.dispatches"
        )
        assert dispatches == 1
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
        assert service.counters["service.coalesced"] == 1
        assert service.counters["service.computed"] == 1

    def test_distinct_specs_do_not_coalesce(self, tmp_path):
        telemetry.enable()
        service = make_service(tmp_path)

        async def main():
            return await asyncio.gather(
                service.evaluate(spec_dict(power=10.0)),
                service.evaluate(spec_dict(power=12.0)),
            )

        first, second = asyncio.run(main())
        assert first["key"] != second["key"]
        assert (
            telemetry.global_registry().counter_value("executor.dispatches")
            == 2
        )
        assert "service.coalesced" not in service.counters

    def test_coalescing_works_without_a_store(self):
        telemetry.enable()
        service = make_service(store=None)

        async def main():
            return await asyncio.gather(
                service.evaluate(spec_dict()),
                service.evaluate(spec_dict()),
            )

        first, second = asyncio.run(main())
        assert first == second
        assert first["source"] == "computed"
        assert (
            telemetry.global_registry().counter_value("executor.dispatches")
            == 1
        )

    def test_failing_spec_returns_structured_provenance(self, tmp_path):
        """A poison spec yields a failure document — and the service keeps
        serving afterwards (the loop survives)."""
        service = make_service(
            tmp_path, kernel=PoisonKernel(("steady",))
        )

        async def main():
            failed = await service.evaluate(spec_dict(name="poison_spec"))
            healthy = await service.evaluate(spec_dict(name="healthy_spec"))
            return failed, healthy

        failed, healthy = asyncio.run(main())
        assert failed["status"] == "failed"
        assert "artifact" not in failed
        failure = failed["failure"]
        assert failure["resolved"] is False
        assert failure["attempts"] == 1
        assert failure["design_hash"]
        assert failure["incidents"][-1]["type"] == "RuntimeError"
        assert "poison" in failure["incidents"][-1]["message"]
        assert healthy["status"] == "ok"
        assert service.counters["service.failures"] == 1

    def test_failure_documents_are_not_stored(self, tmp_path):
        """A failed spec must not poison the store: retrying after the bug
        is fixed recomputes instead of serving the failure."""
        store = ArtifactStore(tmp_path / "store")
        poisoned = make_service(
            store=store, kernel=PoisonKernel(("steady",))
        )
        asyncio.run(poisoned.evaluate(spec_dict(name="poison_spec")))
        assert len(store) == 0
        healthy = make_service(store=store)
        document = asyncio.run(healthy.evaluate(spec_dict(name="poison_spec")))
        assert (document["status"], document["source"]) == ("ok", "computed")

    def test_request_key_matches_store_address(self, tmp_path):
        service = make_service(tmp_path)
        spec = ScenarioSpec.from_dict(spec_dict())
        assert service.request_key(spec) == service.store.key_for(
            spec, service.paths
        )

    def test_a_storeless_key_is_the_default_store_address(self, tmp_path):
        spec = ScenarioSpec.from_dict(spec_dict())
        basis = ReducedBasis(np.eye(4)[:, :2], "k" * 16)
        for warm_start in ((), (basis.to_payload_json(),)):
            service = make_service(warm_start=warm_start)
            assert service.store is None
            assert service.request_key(spec) == ArtifactStore(
                tmp_path / "store"
            ).key_for(spec, service.paths, service.kernel.warm_start_digest)

    def test_every_caller_gets_one_hit_form(self, tmp_path):
        from repro.campaigns.service import _json_line

        service = make_service(tmp_path)
        asyncio.run(service.evaluate(spec_dict()))

        async def main():
            by_body = await service.evaluate(body_of(spec_dict()))
            by_dict = await service.evaluate(spec_dict())
            return by_body, by_dict

        by_body, by_dict = asyncio.run(main())
        assert by_body["source"] == by_dict["source"] == "store"
        spec = ScenarioSpec.from_dict(spec_dict())
        plain = service.store.load(spec, service.paths).to_dict()
        assert by_body["artifact"] == by_dict["artifact"] == plain
        assert _json_line(by_body) == _json_line(by_dict)

    def test_a_computed_spec_is_keyed_once(self, tmp_path, monkeypatch):
        """The request key is the store address the computed artifact is
        written under: ``key_for`` runs for the request only."""
        keyed = []
        real = ArtifactStore.key_for

        def spy(self, spec, *args, **kwargs):
            keyed.append(spec.name)
            return real(self, spec, *args, **kwargs)

        monkeypatch.setattr(ArtifactStore, "key_for", spy)
        service = make_service(tmp_path)
        document = asyncio.run(service.evaluate(spec_dict()))
        assert document["source"] == "computed"
        assert keyed == ["svc_spec"]
        assert service.store._object_path(document["key"]).exists()

    def test_events_in_order(self, tmp_path):
        service = make_service(tmp_path)
        events = []

        async def sink(event):
            events.append(event["event"])

        async def main():
            await service.evaluate(spec_dict(), on_event=sink)
            await service.evaluate(spec_dict(), on_event=sink)

        asyncio.run(main())
        assert events == ["accepted", "computing", "accepted", "store_hit"]

    def test_health_and_stats_documents(self, tmp_path):
        telemetry.enable()
        service = make_service(tmp_path)
        asyncio.run(service.evaluate(spec_dict()))
        health = service.health_document()
        assert health["status"] == "ok"
        assert health["requests"] == 1
        assert health["inflight"] == 0
        assert health["store_attached"] is True
        assert health["telemetry_enabled"] is True
        stats = service.stats_document()
        assert stats["service"]["counters"]["service.computed"] == 1
        assert stats["store"]["writes"] == 1
        assert stats["store"]["objects"] == 1
        # The kernel's per-request span payload was absorbed into the live
        # snapshot: per-spec spans are visible in /stats.
        assert any(
            name.startswith("spec:") for name in stats.get("spans", {})
        )
        assert stats["metrics"]["counters"]["executor.dispatches"] == 1
        # The request's thermal solve left its factor in the shared cache.
        assert stats["factorization"]["entries"] >= 1
        assert stats["factorization"]["bytes"] > 0

    def test_run_campaign_rides_the_coalescing_path(self, tmp_path):
        matrix = ScenarioMatrix(
            name="svc_tiny",
            description="two-point service campaign",
            base=ScenarioSpec(name="svc_base"),
            axes=(
                MatrixAxis(
                    name="p",
                    path="workload.total_power_w",
                    values=(9.0, 11.0),
                ),
            ),
        )
        service = make_service(tmp_path, matrices={"svc_tiny": matrix})
        events = []

        async def sink(event):
            events.append(event)

        cold = asyncio.run(service.run_campaign("svc_tiny", on_event=sink))
        assert (cold["ok"], cold["computed"]) == (2, 2)
        warm = asyncio.run(service.run_campaign("svc_tiny"))
        assert (warm["ok"], warm["store_served"]) == (2, 2)
        kinds = [event["event"] for event in events]
        assert kinds[0] == "campaign"
        assert kinds.count("scenario") == 2
        assert kinds[-1] == "summary"
        with pytest.raises(ConfigurationError, match="unknown campaign"):
            asyncio.run(service.run_campaign("nope"))

    def test_constructor_rejects_bad_configuration(self):
        with pytest.raises(ConfigurationError, match="concurrency"):
            EvaluationService(concurrency=0)
        with pytest.raises(ConfigurationError, match="host/port"):
            ServiceServer(EvaluationService(), host=None, socket_path=None)


# HTTP transport -------------------------------------------------------------


async def start_server(service, **kwargs):
    kwargs.setdefault("host", "127.0.0.1")
    kwargs.setdefault("port", 0)
    server = ServiceServer(service, **kwargs)
    await server.start()
    return server


async def http_exchange(server, method, path, body=None, socket_path=None):
    """One ``Connection: close`` request; returns (status, raw body bytes)."""
    if socket_path is not None:
        reader, writer = await asyncio.open_unix_connection(socket_path)
    else:
        host, port = server.address
        reader, writer = await asyncio.open_connection(host, port)
    payload = b"" if body is None else json.dumps(body).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
    )
    writer.write(head.encode("latin-1") + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    header, _, content = raw.partition(b"\r\n\r\n")
    return int(header.split(b" ")[1]), content


async def http_request(server, method, path, body=None, socket_path=None):
    """One ``Connection: close`` request; returns (status, [json lines])."""
    status, content = await http_exchange(server, method, path, body, socket_path)
    lines = [
        json.loads(line)
        for line in content.decode("utf-8").splitlines()
        if line.strip()
    ]
    return status, lines


def is_canonical_line(line):
    """Whether ``line`` is one canonical compact JSON document plus newline."""
    return line == (canonical_json(json.loads(line)) + "\n").encode("utf-8")


class TestServiceServer:
    def test_evaluate_cold_then_warm_over_http(self, tmp_path):
        service = make_service(tmp_path)

        async def main():
            server = await start_server(service)
            try:
                status, (cold,) = await http_request(
                    server, "POST", "/evaluate", spec_dict()
                )
                assert status == 200
                started = time.perf_counter()
                status, (warm,) = await http_request(
                    server, "POST", "/evaluate", spec_dict()
                )
                elapsed = time.perf_counter() - started
                assert status == 200
                return cold, warm, elapsed
            finally:
                await server.stop()

        cold, warm, elapsed = asyncio.run(main())
        assert (cold["status"], cold["source"]) == ("ok", "computed")
        assert (warm["status"], warm["source"]) == ("ok", "store")
        assert cold["artifact"] == warm["artifact"]
        # The acceptance pin: a warm re-request is store-served fast — the
        # full HTTP round trip, not just the lookup.
        assert elapsed < 0.05, f"warm request took {elapsed * 1e3:.1f} ms"

    def test_streaming_evaluate_emits_ndjson_events(self, tmp_path):
        service = make_service(tmp_path)

        async def main():
            server = await start_server(service)
            try:
                return await http_request(
                    server, "POST", "/evaluate?stream=1", spec_dict()
                )
            finally:
                await server.stop()

        status, events = asyncio.run(main())
        assert status == 200
        assert [event["event"] for event in events] == [
            "accepted",
            "computing",
            "result",
        ]
        assert events[-1]["status"] == "ok"
        assert events[-1]["artifact"]["results"]["steady"]

    def test_campaign_endpoint_streams_summary(self, tmp_path):
        matrix = ScenarioMatrix(
            name="svc_tiny",
            description="two-point service campaign",
            base=ScenarioSpec(name="svc_base"),
            axes=(
                MatrixAxis(
                    name="p",
                    path="workload.total_power_w",
                    values=(9.0, 11.0),
                ),
            ),
        )
        service = make_service(tmp_path, matrices={"svc_tiny": matrix})

        async def main():
            server = await start_server(service)
            try:
                good = await http_request(
                    server, "POST", "/campaign/svc_tiny", {}
                )
                bad = await http_request(server, "POST", "/campaign/nope", {})
                return good, bad
            finally:
                await server.stop()

        (status, events), (bad_status, bad_events) = asyncio.run(main())
        assert status == 200
        assert events[0]["event"] == "campaign"
        assert events[-1]["event"] == "summary"
        assert events[-1]["ok"] == 2
        # Unknown campaigns stream a structured error event (the ndjson
        # response has already started when the name resolves).
        assert bad_status == 200
        assert bad_events[-1]["event"] == "error"
        assert "unknown campaign" in bad_events[-1]["error"]

    def test_health_stats_scenarios_endpoints(self, tmp_path):
        telemetry.enable()
        service = make_service(tmp_path)

        async def main():
            server = await start_server(service)
            try:
                await http_request(server, "POST", "/evaluate", spec_dict())
                health = await http_request(server, "GET", "/health")
                stats = await http_request(server, "GET", "/stats")
                names = await http_request(server, "GET", "/scenarios")
                return health, stats, names
            finally:
                await server.stop()

        health, stats, names = asyncio.run(main())
        assert health[0] == 200 and health[1][0]["status"] == "ok"
        assert health[1][0]["requests"] == 1
        assert stats[0] == 200
        assert stats[1][0]["store"]["hit_rate"] == 0.0
        assert stats[1][0]["service"]["counters"]["service.computed"] == 1
        assert names[0] == 200
        assert "campaign_smoke" in names[1][0]["campaigns"]
        assert names[1][0]["scenarios"]

    def test_protocol_and_validation_errors_keep_serving(self, tmp_path):
        """Bad bodies and bad routes answer as JSON errors; the server
        stays healthy for the next request."""
        service = make_service(tmp_path)

        async def main():
            server = await start_server(service)
            host, port = server.address
            try:
                bad_route = await http_request(server, "GET", "/nope")
                bad_method = await http_request(server, "PUT", "/health")
                bad_spec = await http_request(
                    server, "POST", "/evaluate", {"name": ""}
                )
                # Raw non-JSON body.
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    b"POST /evaluate HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: 9\r\nConnection: close\r\n\r\nnot json!"
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                await writer.wait_closed()
                not_json = int(raw.split(b" ")[1])
                health = await http_request(server, "GET", "/health")
                return bad_route, bad_method, bad_spec, not_json, health
            finally:
                await server.stop()

        bad_route, bad_method, bad_spec, not_json, health = asyncio.run(main())
        assert bad_route[0] == 404
        assert bad_method[0] == 404
        assert bad_spec[0] == 400
        assert "scenario.name" in bad_spec[1][0]["error"]
        assert not_json == 400
        assert health[0] == 200 and health[1][0]["status"] == "ok"

    def test_keep_alive_serves_sequential_requests(self, tmp_path):
        service = make_service(tmp_path)

        async def main():
            server = await start_server(service)
            host, port = server.address
            try:
                reader, writer = await asyncio.open_connection(host, port)
                statuses = []
                for _ in range(2):
                    writer.write(b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n")
                    await writer.drain()
                    status_line = await reader.readline()
                    statuses.append(int(status_line.split(b" ")[1]))
                    length = None
                    while True:
                        line = await reader.readline()
                        if line in (b"\r\n", b"\n"):
                            break
                        if line.lower().startswith(b"content-length:"):
                            length = int(line.split(b":")[1])
                    await reader.readexactly(length)
                writer.close()
                await writer.wait_closed()
                return statuses
            finally:
                await server.stop()

        assert asyncio.run(main()) == [200, 200]

    def test_unix_socket_transport(self, tmp_path):
        service = make_service(tmp_path)
        socket_path = tmp_path / "serve.sock"

        async def main():
            server = await start_server(
                service, host=None, socket_path=socket_path
            )
            try:
                assert server.endpoints == [f"unix:{socket_path}"]
                return await http_request(
                    server,
                    "POST",
                    "/evaluate",
                    spec_dict(),
                    socket_path=str(socket_path),
                )
            finally:
                await server.stop()

        status, (document,) = asyncio.run(main())
        assert status == 200
        assert document["status"] == "ok"
        assert not socket_path.exists()  # stop() removes the socket file

    def test_concurrent_http_clients_coalesce_to_one_dispatch(self, tmp_path):
        """The tentpole pin, end to end over the wire: two concurrent HTTP
        clients posting the same spec cost one kernel dispatch and read
        byte-identical bodies."""
        telemetry.enable()
        service = make_service(tmp_path)

        async def main():
            server = await start_server(service)
            try:
                return await asyncio.gather(
                    http_request(server, "POST", "/evaluate", spec_dict()),
                    http_request(server, "POST", "/evaluate", spec_dict()),
                )
            finally:
                await server.stop()

        (status_a, lines_a), (status_b, lines_b) = asyncio.run(main())
        assert status_a == status_b == 200
        assert json.dumps(lines_a, sort_keys=True) == json.dumps(
            lines_b, sort_keys=True
        )
        # Whether the slower client coalesced onto the in-flight solve or
        # (having arrived after it finished) was served from the store,
        # exactly one kernel dispatch ever happens.
        dispatches = telemetry.global_registry().counter_value(
            "executor.dispatches"
        )
        assert dispatches == 1
        assert service.counters["service.requests"] == 2

    def test_failing_spec_over_http_does_not_kill_the_loop(self, tmp_path):
        service = make_service(
            tmp_path, kernel=PoisonKernel(("steady",))
        )

        async def main():
            server = await start_server(service)
            try:
                failed = await http_request(
                    server, "POST", "/evaluate", spec_dict(name="poison_http")
                )
                healthy = await http_request(
                    server, "POST", "/evaluate", spec_dict(name="healthy_http")
                )
                return failed, healthy
            finally:
                await server.stop()

        (failed_status, (failed,)), (ok_status, (ok,)) = asyncio.run(main())
        assert failed_status == 200
        assert failed["status"] == "failed"
        assert failed["failure"]["incidents"][-1]["type"] == "RuntimeError"
        assert ok_status == 200 and ok["status"] == "ok"


class TestResponseBytes:
    """Store hits answer with the stored artifact text, spliced verbatim."""

    def test_store_served_body_equals_the_computed_one(self, tmp_path):
        service = make_service(tmp_path)

        async def main():
            server = await start_server(service)
            try:
                cold = await http_exchange(server, "POST", "/evaluate", spec_dict())
                warm = await http_exchange(server, "POST", "/evaluate", spec_dict())
                return cold, warm
            finally:
                await server.stop()

        (cold_status, cold), (warm_status, warm) = asyncio.run(main())
        assert cold_status == warm_status == 200
        assert b'"source":"computed"' in cold and b'"source":"store"' in warm
        assert cold.replace(b'"source":"computed"', b'"source":"store"') == warm
        assert is_canonical_line(cold) and is_canonical_line(warm)
        spec = ScenarioSpec.from_dict(spec_dict())
        text = service.store.load(spec, service.paths, as_text=True)
        assert b'"artifact":' + text.encode("utf-8") + b"," in warm

    def test_stream_result_carries_the_stored_artifact_bytes(self, tmp_path):
        service = make_service(tmp_path)
        asyncio.run(service.evaluate(spec_dict()))

        async def main():
            server = await start_server(service)
            try:
                return await http_exchange(
                    server, "POST", "/evaluate?stream=1", spec_dict()
                )
            finally:
                await server.stop()

        status, content = asyncio.run(main())
        assert status == 200
        lines = content.splitlines(keepends=True)
        assert all(is_canonical_line(line) for line in lines)
        events = [json.loads(line) for line in lines]
        assert [event["event"] for event in events] == [
            "accepted",
            "store_hit",
            "result",
        ]
        spec = ScenarioSpec.from_dict(spec_dict())
        text = service.store.load(spec, service.paths, as_text=True)
        assert b'"artifact":' + text.encode("utf-8") + b"," in lines[-1]

    def test_in_process_documents_hold_plain_equal_artifacts(self, tmp_path):
        service = make_service(tmp_path)

        async def main():
            leader, follower = await asyncio.gather(
                service.evaluate(spec_dict()), service.evaluate(spec_dict())
            )
            served = await service.evaluate(spec_dict())
            return leader, follower, served

        leader, follower, served = asyncio.run(main())
        assert service.counters["service.coalesced"] == 1
        # Coalesced followers share the leader's document.
        assert follower is leader
        assert served["source"] == "store"
        plain = json.loads(json.dumps(leader["artifact"]))
        assert served["artifact"] == plain
        assert plain == served["artifact"]
        assert dict(served["artifact"]) == plain
        assert json.loads(json.dumps(served)) == {**leader, "source": "store"}

    def test_request_spans_tag_their_source(self, tmp_path):
        telemetry.enable()
        service = make_service(tmp_path)

        async def main():
            await asyncio.gather(
                service.evaluate(spec_dict()), service.evaluate(spec_dict())
            )
            await service.evaluate(spec_dict())

        asyncio.run(main())
        spans = [
            record
            for record in telemetry.global_spans()
            if record.name == "service.request"
        ]
        assert sorted(record.attrs["source"] for record in spans) == [
            "coalesced",
            "computed",
            "store",
        ]
        assert {record.attrs["scenario"] for record in spans} == {"svc_spec"}
        stats = service.stats_document()
        assert stats["spans"]["service.request"]["count"] == 3

    def test_store_hit_artifact_is_spliced_not_encoded(self, tmp_path, monkeypatch):
        import repro.campaigns.service as service_module

        service = make_service(tmp_path)
        asyncio.run(service.evaluate(spec_dict()))
        served = asyncio.run(service.evaluate(spec_dict()))
        assert served["source"] == "store"
        encoded = []
        real = service_module.canonical_json

        def spy(document):
            encoded.append(document)
            return real(document)

        monkeypatch.setattr(service_module, "canonical_json", spy)
        line = service_module._json_line(served)
        assert encoded and not [doc for doc in encoded if "artifact" in doc]
        plain = json.loads(json.dumps(served))
        assert line == (real(plain) + "\n").encode("utf-8")


async def read_response(reader):
    """One HTTP response off ``reader``: (status, headers, body bytes)."""
    status_line = await reader.readline()
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    if "content-length" in headers:
        body = await reader.readexactly(int(headers["content-length"]))
    else:
        body = await reader.read()
    return int(status_line.split(b" ")[1]), headers, body


async def raw_exchange(server, chunks, responses=1, eof=False):
    """Write ``chunks`` of raw bytes on one connection, half-closing it
    after them with ``eof``; returns the ``responses`` read in order,
    then whatever the server sent before closing (``b""`` when it closed
    without a word)."""
    host, port = server.address
    reader, writer = await asyncio.open_connection(host, port)
    for chunk in chunks:
        writer.write(chunk)
        await writer.drain()
    if eof:
        writer.write_eof()
    answers = [await read_response(reader) for _ in range(responses)]
    rest = await reader.read() if eof else None
    writer.close()
    await writer.wait_closed()
    return answers, rest


def post_head(body, target="/evaluate", newline="\r\n"):
    """The head of a ``POST`` of ``body`` with ``newline`` line endings."""
    lines = [f"POST {target} HTTP/1.1", "Host: t", f"Content-Length: {len(body)}"]
    return (newline.join(lines) + newline + newline).encode("latin-1")


class TestRequestHead:
    """The request head is read as one block and answered as before:
    CRLF or bare-LF lines, 400 for a malformed line, 413 for an oversized
    body, a quiet close at EOF, and ``?stream=1`` streaming."""

    def serve(self, service, exchange):
        async def main():
            server = await start_server(service)
            try:
                return await exchange(server)
            finally:
                await server.stop()

        return asyncio.run(main())

    def test_crlf_requests_with_and_without_headers(self, tmp_path):
        service = make_service(tmp_path)
        body = body_of(spec_dict())

        async def exchange(server):
            return await raw_exchange(
                server,
                [
                    b"GET /health HTTP/1.1\r\n\r\n",
                    # Two requests in one write: the second waits in the
                    # connection's buffer while the first is answered.
                    b"GET /scenarios HTTP/1.1\r\nHost: t\r\n\r\n"
                    + post_head(body)
                    + body,
                ],
                responses=3,
            )

        (health, names, evaluated), _ = self.serve(service, exchange)
        assert health[0] == names[0] == evaluated[0] == 200
        assert json.loads(health[2])["status"] == "ok"
        assert "campaign_smoke" in json.loads(names[2])["campaigns"]
        assert json.loads(evaluated[2])["source"] == "computed"
        assert evaluated[1]["connection"] == "keep-alive"

    def test_bare_lf_header_lines(self, tmp_path):
        service = make_service(tmp_path)
        body = body_of(spec_dict())
        crlf_line = post_head(body, newline="\n").replace(
            b"HTTP/1.1\n", b"HTTP/1.1\r\n", 1
        )

        async def exchange(server):
            return await raw_exchange(
                server,
                [
                    post_head(body, newline="\n") + body,
                    b"GET /health HTTP/1.1\n\n",
                    crlf_line + body,
                ],
                responses=3,
            )

        (computed, health, served), _ = self.serve(service, exchange)
        assert computed[0] == health[0] == served[0] == 200
        assert json.loads(computed[2])["source"] == "computed"
        assert json.loads(health[2])["status"] == "ok"
        assert json.loads(served[2])["source"] == "store"

    def test_a_request_split_anywhere_parses_the_same(self):
        from repro.campaigns.service import _RequestBuffer

        body = body_of(spec_dict())
        stream = (
            post_head(body, "/evaluate?stream=1") + body
            + b"GET /health HTTP/1.1\r\n\r\n"
            + post_head(body, newline="\n") + body
            + b"GET /scenarios HTTP/1.1\nHost: t\n\n"
        )

        def parse(chunk_size):
            """Feed ``stream`` ``chunk_size`` bytes at a time, as reads of a
            connection bring it, taking every whole request off the buffer
            after each; at EOF nothing is left."""
            buffer = _RequestBuffer()
            requests = []
            for start in range(0, len(stream), chunk_size):
                buffer.data += stream[start : start + chunk_size]
                while (request := buffer.next_request()) is not None:
                    requests.append(
                        (
                            request.method,
                            request.path,
                            request.query,
                            request.headers,
                            request.body,
                        )
                    )
            buffer.eof = True
            assert buffer.next_request() is None and not buffer.data
            return requests

        whole = parse(len(stream))
        assert [(method, path) for method, path, *_ in whole] == [
            ("POST", "/evaluate"),
            ("GET", "/health"),
            ("POST", "/evaluate"),
            ("GET", "/scenarios"),
        ]
        assert whole[0][2] == {"stream": ["1"]} and whole[0][4] == body
        assert whole[2][3]["content-length"] == str(len(body))
        for chunk_size in (1, 2, 3, 7):
            assert parse(chunk_size) == whole

    @pytest.mark.parametrize(
        "head, error",
        [
            (b"GARBAGE\r\nHost: t\r\n\r\n", "malformed request line"),
            (b"GET /health HTTP/1.1 extra\r\n\r\n", "malformed request line"),
            (b"GET /health FTP/1.1\n\n", "malformed request line"),
            (b"GET /health HTTP/1.1\r\nno colon\r\n\r\n", "malformed header line"),
            (b"GET /health HTTP/1.1\nHost: t\nno colon\n\n", "malformed header line"),
            (
                b"POST /evaluate HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
                "malformed Content-Length",
            ),
            (
                b"POST /evaluate HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
                "malformed Content-Length",
            ),
            (
                b"POST /evaluate HTTP/1.1\r\nContent-Length: +2\r\n\r\n",
                "malformed Content-Length",
            ),
            (
                b"POST /evaluate HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n",
                "malformed Content-Length",
            ),
        ],
    )
    def test_a_malformed_head_answers_400_and_closes(self, tmp_path, head, error):
        service = make_service(tmp_path)

        async def exchange(server):
            answered = await raw_exchange(server, [head], responses=1, eof=True)
            health = await http_request(server, "GET", "/health")
            return answered, health

        (((status, headers, body),), rest), health = self.serve(service, exchange)
        assert status == 400
        assert headers["connection"] == "close"
        assert error in json.loads(body)["error"]
        assert rest == b""
        assert health[0] == 200

    def test_a_body_beyond_the_bound_answers_413(self, tmp_path):
        from repro.campaigns.service import MAX_BODY_BYTES

        service = make_service(tmp_path)
        head = (
            "POST /evaluate HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
        ).encode("latin-1")

        async def exchange(server):
            return await raw_exchange(server, [head], responses=1, eof=True)

        ((status, headers, body),), rest = self.serve(service, exchange)
        assert status == 413
        assert headers["connection"] == "close"
        assert str(MAX_BODY_BYTES) in json.loads(body)["error"]
        assert rest == b""

    @pytest.mark.parametrize(
        "sent",
        [
            b"",
            b"POST /evaluate HTTP/1.1\r\nContent-Length: 10\r\n",
            b"POST /evaluate HTTP/1.1\nContent-Length: 10\n",
            b"POST /evaluate HTTP/1.1\r\nContent-Length: 10\r\n\r\n{\"na",
        ],
    )
    def test_eof_inside_a_request_closes_quietly(self, tmp_path, sent):
        service = make_service(tmp_path)

        async def exchange(server):
            closed = await raw_exchange(server, [sent], responses=0, eof=True)
            health = await http_request(server, "GET", "/health")
            return closed, health

        (answers, rest), health = self.serve(service, exchange)
        assert (answers, rest) == ([], b"")
        assert health[0] == 200 and health[1][0]["requests"] == 0

    def test_the_stream_flag_streams(self, tmp_path):
        service = make_service(tmp_path)
        body = body_of(spec_dict())

        async def exchange(server):
            plain = await raw_exchange(
                server, [post_head(body, "/evaluate?stream=0") + body]
            )
            streamed = await raw_exchange(
                server, [post_head(body, "/evaluate?stream=1") + body], eof=True
            )
            return plain, streamed

        ((plain,), _), ((streamed,), rest) = self.serve(service, exchange)
        assert plain[0] == 200 and plain[1]["content-type"] == "application/json"
        assert json.loads(plain[2])["source"] == "computed"
        assert streamed[0] == 200
        assert streamed[1]["content-type"] == "application/x-ndjson"
        assert streamed[1]["connection"] == "close"
        events = [json.loads(line) for line in streamed[2].splitlines()]
        assert [event["event"] for event in events] == [
            "accepted",
            "store_hit",
            "result",
        ]
        assert rest == b""


async def settle(condition, timeout_s=60.0):
    """Wait on the running loop until ``condition()`` holds."""
    deadline = time.perf_counter() + timeout_s
    while not condition():
        assert time.perf_counter() < deadline, "condition never held"
        await asyncio.sleep(0.01)


def gated_kernel():
    """A steady-path kernel whose runs wait while ``gate`` is clear; returns
    it, the names of the specs it ran, and the gate (open)."""
    runs = []
    gate = threading.Event()
    gate.set()

    class GatedKernel(EvaluationKernel):
        def run(self, spec):
            runs.append(spec.name)
            assert gate.wait(60)
            return super().run(spec)

    return GatedKernel(("steady",)), runs, gate


async def abort_after_first_event(server, head):
    """Send ``head``, read the response head and its first ndjson event,
    then reset the connection; returns that event."""
    host, port = server.address
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(head)
    await writer.drain()
    await reader.readuntil(b"\r\n\r\n")
    event = json.loads(await reader.readline())
    # A zero linger time makes the close send a reset, not an orderly EOF.
    writer.get_extra_info("socket").setsockopt(
        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
    )
    writer.transport.abort()
    return event


class TestConnection:
    """One protocol per connection: store hits answered as they are read,
    everything else on a task, answers in request order, and a client that
    leaves does not stop what it asked for."""

    def serve(self, service, exchange):
        async def main():
            server = await start_server(service)
            try:
                return await exchange(server)
            finally:
                await server.stop()

        return asyncio.run(main())

    def test_a_client_gone_mid_campaign_leaves_its_points_computing(
        self, tmp_path, caplog
    ):
        service = make_service(tmp_path)
        head = b"POST /campaign/campaign_smoke HTTP/1.1\r\nHost: t\r\n\r\n"

        async def exchange(server):
            first = await abort_after_first_event(server, head)
            await settle(lambda: len(service.store) == 4 and not service._inflight)
            return first, await http_request(server, "GET", "/health")

        with caplog.at_level(logging.WARNING, logger="repro"):
            first, (status, (health,)) = self.serve(service, exchange)
        assert first["event"] == "campaign" and first["scenarios"] == 4
        assert status == 200 and health["inflight"] == 0
        assert service.counters["service.computed"] == 4
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []

    def test_a_client_gone_mid_stream_leaves_its_spec_computing(
        self, tmp_path, caplog
    ):
        kernel, runs, gate = gated_kernel()
        service = make_service(tmp_path, kernel=kernel)
        body = body_of(spec_dict())

        async def exchange(server):
            gate.clear()
            first = await abort_after_first_event(
                server, post_head(body, "/evaluate?stream=1") + body
            )
            # The server sees the connection lost while the kernel runs,
            # and writes its last events after that.
            await settle(lambda: runs)
            await asyncio.sleep(0.1)
            gate.set()
            await settle(lambda: len(service.store) == 1 and not service._inflight)
            return first, await http_request(server, "GET", "/health")

        with caplog.at_level(logging.WARNING, logger="repro"):
            first, (status, (health,)) = self.serve(service, exchange)
        assert first["event"] == "accepted"
        assert status == 200 and health["inflight"] == 0
        assert service.counters["service.computed"] == 1
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []

    def test_a_full_write_buffer_holds_drain_and_reading(self, tmp_path):
        from repro.campaigns.service import _Connection

        class Transport(asyncio.Transport):
            reading = True

            def pause_reading(self):
                self.reading = False

            def resume_reading(self):
                self.reading = True

            def is_closing(self):
                return False

        async def main():
            connection = _Connection(ServiceServer(make_service(tmp_path)))
            transport = Transport()
            connection.connection_made(transport)
            states = []
            lose = lambda: connection.connection_lost(None)  # noqa: E731
            for wake in (connection.resume_writing, lose):
                connection.pause_writing()
                drained = asyncio.ensure_future(connection.drain())
                await asyncio.sleep(0)
                states.append((drained.done(), transport.reading))
                wake()
                await asyncio.sleep(0)
                states.append((drained.done(), transport.reading))
            return states

        assert asyncio.run(main()) == [(False, False), (True, True)] * 2

    def test_pipelined_answers_stay_in_order(self, tmp_path):
        service = make_service(tmp_path)
        stored = body_of(spec_dict("svc_stored"))
        computed = body_of(spec_dict("svc_computed"))

        async def exchange(server):
            # Computed, then served from the store: the body's next hit is
            # answered as soon as it is read.
            await service.evaluate(stored)
            await service.evaluate(stored)
            return await raw_exchange(
                server,
                [post_head(computed) + computed + post_head(stored) + stored],
                responses=2,
            )

        (first, second), _ = self.serve(service, exchange)
        assert first[0] == second[0] == 200
        assert json.loads(first[2])["scenario"] == "svc_computed"
        assert json.loads(first[2])["source"] == "computed"
        assert json.loads(second[2])["scenario"] == "svc_stored"
        assert json.loads(second[2])["source"] == "store"
        assert service.counters["service.requests"] == 4

    def test_a_hit_for_a_key_in_flight_coalesces(self, tmp_path):
        kernel, runs, gate = gated_kernel()
        service = make_service(tmp_path, kernel=kernel)
        body = body_of(spec_dict())

        async def exchange(server):
            await service.evaluate(body)
            served = await service.evaluate(body)
            # The object leaves the store; a request recomputes it, and a
            # client's request for the same body arrives meanwhile.
            service.store._object_path(served["key"]).unlink()
            gate.clear()
            leader = asyncio.ensure_future(service.evaluate(body))
            await settle(lambda: len(runs) == 2)
            follower = asyncio.ensure_future(
                http_exchange(server, "POST", "/evaluate", json.loads(body))
            )
            await settle(lambda: service.counters.get("service.coalesced") == 1)
            gate.set()
            return await leader, await follower

        from repro.campaigns.service import _json_line

        leader, (status, follower) = self.serve(service, exchange)
        assert runs == ["svc_spec", "svc_spec"]
        assert status == 200 and leader["source"] == "computed"
        assert follower == _json_line(leader)


def count_spec_parses(monkeypatch):
    """Record the name of every spec ``ScenarioSpec.from_dict`` builds."""
    parses = []
    real = ScenarioSpec.from_dict.__func__

    def from_dict(cls, data):
        parses.append(data.get("name") if isinstance(data, dict) else None)
        return real(cls, data)

    monkeypatch.setattr(ScenarioSpec, "from_dict", classmethod(from_dict))
    return parses


def body_of(document):
    return json.dumps(document).encode("utf-8")


class TestSpecMemo:
    """A request body seen before is neither parsed nor hashed again, and
    its request still reads (and verifies) the store."""

    def test_same_body_twice_is_parsed_once(self, tmp_path, monkeypatch):
        from repro.campaigns.service import _json_line

        service = make_service(tmp_path)
        body = body_of(spec_dict())
        computed = asyncio.run(service.evaluate(spec_dict()))
        parses = count_spec_parses(monkeypatch)

        async def main():
            return [await service.evaluate(body) for _ in range(2)]

        first, second = asyncio.run(main())
        assert parses == ["svc_spec"]
        assert first["source"] == second["source"] == "store"
        assert _json_line(first) == _json_line(second)
        assert _json_line(first) == _json_line({**computed, "source": "store"})
        assert service.stats_document()["spec_memo"]["hits"] == 1

    def test_reordered_body_is_the_same_request(self, tmp_path):
        service = make_service(tmp_path)
        document = spec_dict()
        reordered = dict(reversed(list(document.items())))
        assert body_of(reordered) != body_of(document)

        async def main():
            return [
                await service.evaluate(body)
                for body in (body_of(document), body_of(reordered))
            ]

        computed, served = asyncio.run(main())
        assert served["source"] == "store" and served["key"] == computed["key"]
        assert service.stats_document()["spec_memo"]["entries"] == 2

    def test_invalid_bodies_answer_the_same_400_and_are_not_memoised(
        self, tmp_path, monkeypatch
    ):
        service = make_service(tmp_path)
        parses = count_spec_parses(monkeypatch)
        bodies = [body_of({"name": ""}), body_of([1, 2]), b"not json!"]

        async def post(server, path, body):
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                f"POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: "
                f"{len(body)}\r\nConnection: close\r\n\r\n".encode("latin-1")
                + body
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            return raw

        async def main():
            server = await start_server(service)
            try:
                return [
                    [
                        await post(server, path, body)
                        for path in ("/evaluate", "/evaluate", "/evaluate?stream=1")
                    ]
                    for body in bodies
                ]
            finally:
                await server.stop()

        for plain, again, streamed in asyncio.run(main()):
            assert plain.startswith(b"HTTP/1.1 400 ")
            assert plain == again
            assert streamed.startswith(b"HTTP/1.1 400 ")
        assert parses == ["", "", ""]
        memo = service.stats_document()["spec_memo"]
        assert (memo["entries"], memo["bytes"], memo["hits"]) == (0, 0, 0)

    def test_memo_holds_at_most_its_bound(self, monkeypatch):
        import repro.campaigns.service as service_module
        from repro.campaigns.service import SPEC_MEMO_ENTRY_BYTES

        service = make_service(store=None)
        bodies = [body_of(spec_dict(power=10.0 + index)) for index in range(6)]
        charges = [len(body) + SPEC_MEMO_ENTRY_BYTES for body in bodies]
        bound = 2 * max(charges) + 1
        monkeypatch.setattr(service_module, "SPEC_MEMO_BYTES", bound)
        for body in bodies:
            service.spec_for_body(body)
            assert service.stats_document()["spec_memo"]["bytes"] <= bound
        memo = service.stats_document()["spec_memo"]
        assert memo["entries"] == 2
        assert memo["bytes"] == sum(charges[-2:])
        # The least recently used bodies left; the last two are hits.
        service.spec_for_body(bodies[-1])
        service.spec_for_body(bodies[-2])
        assert service.stats_document()["spec_memo"]["hits"] == 2
        oversized = body_of({**spec_dict(), "description": "x" * bound})
        service.spec_for_body(oversized)
        assert service.stats_document()["spec_memo"]["entries"] == 2

    def test_tiny_bodies_cannot_flood_the_memo(self):
        from repro.campaigns.service import SPEC_MEMO_BYTES, SPEC_MEMO_ENTRY_BYTES

        service = make_service(store=None)
        bodies = [body_of({"name": f"a{index}"}) for index in range(1200)]
        for body in bodies:
            service.spec_for_body(body)
        memo = service.stats_document()["spec_memo"]
        assert memo["bytes"] <= SPEC_MEMO_BYTES
        assert memo["entries"] <= SPEC_MEMO_BYTES // SPEC_MEMO_ENTRY_BYTES
        assert memo["entries"] < len(bodies)

    def test_entry_charge_covers_a_memoised_spec(self):
        # The charge per entry stands for memory: what memoising minimal
        # bodies really holds stays within it.
        import gc
        import tracemalloc

        from repro.campaigns.service import SPEC_MEMO_ENTRY_BYTES

        service = make_service(store=None)
        service.spec_for_body(body_of({"name": "warm"}))
        bodies = [body_of({"name": f"b{index}"}) for index in range(200)]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for body in bodies:
                service.spec_for_body(body)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert service.stats_document()["spec_memo"]["entries"] == 201
        assert held / len(bodies) <= SPEC_MEMO_ENTRY_BYTES

    def test_streamed_first_sighting_is_not_a_memo_hit(self, tmp_path):
        service = make_service(tmp_path)

        async def main():
            server = await start_server(service)
            try:
                streamed = await http_request(
                    server, "POST", "/evaluate?stream=1", spec_dict()
                )
                return streamed, service.stats_document()["spec_memo"]
            finally:
                await server.stop()

        (status, events), memo = asyncio.run(main())
        assert status == 200 and events[-1]["event"] == "result"
        assert (memo["entries"], memo["hits"]) == (1, 0)

    def test_memoised_spec_still_reads_the_store(self, tmp_path):
        service = make_service(tmp_path)
        body = body_of(spec_dict())

        async def main():
            computed = await service.evaluate(body)
            served = await service.evaluate(body)
            service.store._object_path(served["key"]).unlink()
            recomputed = await service.evaluate(body)
            return computed, served, recomputed

        computed, served, recomputed = asyncio.run(main())
        assert [computed["source"], served["source"], recomputed["source"]] == [
            "computed",
            "store",
            "computed",
        ]
        assert service.stats_document()["spec_memo"]["hits"] == 2
        assert service.counters["service.computed"] == 2

    def test_stats_report_the_memo(self, tmp_path):
        from repro.campaigns.service import SPEC_MEMO_BYTES, SPEC_MEMO_ENTRY_BYTES

        service = make_service(tmp_path)
        body = spec_dict()

        async def main():
            server = await start_server(service)
            try:
                for _ in range(2):
                    await http_request(server, "POST", "/evaluate", body)
                return await http_request(server, "GET", "/stats")
            finally:
                await server.stop()

        status, (stats,) = asyncio.run(main())
        assert status == 200
        assert stats["spec_memo"] == {
            "entries": 1,
            "bytes": len(body_of(body)) + SPEC_MEMO_ENTRY_BYTES,
            "max_bytes": SPEC_MEMO_BYTES,
            "hits": 1,
        }

    def test_non_utf8_store_object_is_recomputed(self, tmp_path):
        service = make_service(tmp_path)

        async def main():
            server = await start_server(service)
            try:
                status, (cold,) = await http_request(
                    server, "POST", "/evaluate", spec_dict()
                )
                path = service.store._object_path(cold["key"])
                damaged = bytearray(path.read_bytes())
                damaged[len(damaged) // 2] ^= 0x80
                path.write_bytes(bytes(damaged))
                return await http_request(server, "POST", "/evaluate", spec_dict())
            finally:
                await server.stop()

        status, (document,) = asyncio.run(main())
        assert (status, document["source"]) == (200, "computed")
        assert service.store.stats.corrupt == 1


def plain_line(document):
    """The canonical line of ``document`` with a stored artifact's text
    parsed: what encoding the plain dict gives."""
    artifact = document["artifact"]
    if hasattr(artifact, "text"):
        artifact = json.loads(artifact.text)
    return (canonical_json({**document, "artifact": artifact}) + "\n").encode("utf-8")


class TestMemoisedEnvelope:
    """A store hit answers a body with the members around its artifact
    encoded once per memo entry; its bytes are those of encoding the plain
    document, however the entry came to be."""

    def test_hits_encode_as_the_plain_document(self, tmp_path, monkeypatch):
        import repro.campaigns.service as service_module
        from repro.campaigns.service import SPEC_MEMO_ENTRY_BYTES, _json_line

        service = make_service(tmp_path)
        body = body_of(spec_dict())
        other = body_of(spec_dict(power=11.0))
        lines = []

        async def yielding(event):
            await asyncio.sleep(0)

        async def main():
            computed = await service.evaluate(body)
            for _ in range(3):  # the first hit, then repeats
                lines.append(_json_line(await service.evaluate(body)))
            leader, follower = await asyncio.gather(
                service.evaluate(body, on_event=yielding),
                service.evaluate(body, on_event=yielding),
            )
            assert follower is leader
            lines.append(_json_line(follower))
            # A bound of one entry: the other body evicts this one, which
            # is then parsed, keyed and encoded again.
            monkeypatch.setattr(
                service_module, "SPEC_MEMO_BYTES", len(body) + SPEC_MEMO_ENTRY_BYTES
            )
            await service.evaluate(other)
            rebuilt = await service.evaluate(body)
            lines.append(_json_line(rebuilt))
            return computed, rebuilt

        computed, rebuilt = asyncio.run(main())
        assert service.counters["service.coalesced"] == 1
        assert service.stats_document()["spec_memo"]["entries"] == 1
        assert rebuilt["source"] == "store"
        expected = plain_line({**computed, "source": "store"})
        assert lines == [expected] * 5
        assert plain_line(rebuilt) == expected

    def test_entry_charge_covers_a_spec_with_its_envelope(self, tmp_path):
        # A memo entry answered from the store also holds the encoded
        # envelope of its hits; the charge per entry still covers it.
        import gc
        import tracemalloc

        from repro.campaigns.service import SPEC_MEMO_ENTRY_BYTES

        service = make_service(tmp_path)
        body = body_of(spec_dict())
        # Trailing spaces: distinct bodies, each its own entry, one object.
        bodies = [body + b" " * count for count in range(1, 201)]

        async def hits(bodies):
            for body in bodies:
                document = await service.evaluate(body)
                assert document["source"] == "store"

        asyncio.run(service.evaluate(body))
        asyncio.run(hits([body]))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            asyncio.run(hits(bodies))
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert service.stats_document()["spec_memo"]["entries"] == 201
        assert all(entry.envelope for entry in service._spec_memo.values())
        assert held / len(bodies) <= SPEC_MEMO_ENTRY_BYTES
