"""The serving tier: protocol parsing, the app's routes, a live server.

Three layers of coverage mirroring the module layering:

* pure protocol tests (``parse_job_spec``, tenant policies) — no engine;
* a live in-process replica (`_Replica`) driven through
  :class:`repro.serve.ServeClient` — submissions, coalescing across
  tenants, deadline degradation, cancellation, SSE, metrics formats,
  malformed-request handling, concurrent clients;
* the job table, transport-free (:class:`repro.serve.app.ServeApp` fed
  :class:`repro.serve.http.Request` objects) — what a finished job
  keeps, and the ``max_jobs`` bound;
* a real subprocess (``python -m repro serve``) for the SIGTERM drain.
"""

import asyncio
import gc
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import weakref

import pytest

import repro
from repro.engine import BatchEngine
from repro.serve import (
    PROTOCOL_VERSION,
    ProtocolError,
    ReproServer,
    ServeClient,
    ServeConfig,
    ServeError,
    TenantTable,
    parse_job_spec,
)
from repro.serve import app as app_module
from repro.serve.app import ServeApp
from repro.serve.http import Request

# Two α-equivalent spellings of one containment question (variables
# renamed, body reordered) plus a structurally different third query.
OMQ_A = """
schema: R/2, P/1, T/1
rules:
    P(x) -> R(x, w)
    R(x, y) -> P(y)
query: q(x) :- R(x, y), P(y)
"""
OMQ_A2 = """
schema: R/2, P/1, T/1
rules:
    P(u) -> R(u, v)
    R(u, v) -> P(v)
query: q(a) :- P(b), R(a, b)
"""
OMQ_B = """
schema: R/2, P/1, T/1
rules:
    T(x) -> P(x)
query: q(x) :- R(x, y)
"""


def containment_doc(q1: str, q2: str, **extra) -> dict:
    return {"kind": "containment", "q1": q1, "q2": q2, **extra}


# ---------------------------------------------------------------------------
# Protocol layer (no engine, no socket)
# ---------------------------------------------------------------------------


class TestParseJobSpec:
    def test_containment_spec(self):
        spec = parse_job_spec(
            containment_doc(OMQ_A, OMQ_B, tenant="t1", deadline_ms=500)
        )
        assert spec.tenant == "t1"
        assert spec.deadline_ms == 500
        assert spec.job.kind == "containment"
        assert "⊆" in spec.label

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError) as exc:
            parse_job_spec(["not", "an", "object"])
        assert exc.value.status == 400

    def test_rejects_missing_omq(self):
        with pytest.raises(ProtocolError):
            parse_job_spec({"kind": "containment", "q1": OMQ_A})

    def test_unparsable_omq_is_422(self):
        with pytest.raises(ProtocolError) as exc:
            parse_job_spec(containment_doc(OMQ_A, "query: nope("))
        assert exc.value.status == 422

    def test_rejects_bad_deadline(self):
        with pytest.raises(ProtocolError):
            parse_job_spec(containment_doc(OMQ_A, OMQ_B, deadline_ms=-5))
        with pytest.raises(ProtocolError):
            parse_job_spec(containment_doc(OMQ_A, OMQ_B, deadline_ms="soon"))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ProtocolError):
            parse_job_spec({"kind": "mine-bitcoin"})

    def test_sleep_is_gated(self):
        with pytest.raises(ProtocolError):
            parse_job_spec({"kind": "sleep", "seconds": 1})
        spec = parse_job_spec(
            {"kind": "sleep", "seconds": 1}, allow_test_jobs=True
        )
        assert spec.job.kind == "sleep"


class TestTenantTable:
    def test_defaults_on_first_sight(self):
        table = TenantTable()
        policy = table.get("newcomer")
        assert policy.weight == 1.0
        assert policy.default_deadline_ms is None

    def test_update_and_load(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(
            json.dumps(
                {
                    "tenants": {
                        "gold": {"weight": 4, "priority": "high"},
                        "bulk": {
                            "weight": 1,
                            "priority": "low",
                            "default_deadline_ms": 2000,
                        },
                    }
                }
            )
        )
        table = TenantTable.load(str(path))
        assert table.get("gold").weight == 4.0
        assert table.get("bulk").default_deadline_ms == 2000
        assert table.names() == ["bulk", "gold"]

    def test_rejects_bad_policy(self):
        table = TenantTable()
        with pytest.raises(ProtocolError):
            table.update_from_json({"t": {"weight": 0}})
        with pytest.raises(ProtocolError):
            table.update_from_json({"t": {"priority": "urgent"}})
        with pytest.raises(ProtocolError):
            table.update_from_json({"t": {"default_deadline_ms": -1}})


# ---------------------------------------------------------------------------
# A live in-process replica
# ---------------------------------------------------------------------------


class _Replica:
    """One server on an event loop in a daemon thread; port 0."""

    def __init__(self, **config):
        config.setdefault("port", 0)
        self.server = ReproServer(ServeConfig(**config))
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.start())
        self._ready.set()
        self.loop.run_forever()

    def __enter__(self) -> "_Replica":
        self.thread.start()
        assert self._ready.wait(10), "server failed to start"
        return self

    def __exit__(self, *exc) -> None:
        future = asyncio.run_coroutine_threadsafe(
            self.server.shutdown(drain=False), self.loop
        )
        future.result(20)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()

    @property
    def port(self) -> int:
        return self.server.port

    def client(self, **kwargs) -> ServeClient:
        kwargs.setdefault("timeout", 15)
        return ServeClient(port=self.port, **kwargs)


class TestLiveServer:
    def test_boot_health_and_envelope(self):
        with _Replica() as replica, replica.client() as client:
            health = client.health()
            assert health["status"] == "ok"
            assert health["protocol"] == PROTOCOL_VERSION
            assert health["workers"] == 1

    def test_submit_poll_and_verdict(self):
        with _Replica() as replica, replica.client() as client:
            record = client.run(containment_doc(OMQ_A, OMQ_A2, tenant="t1"))
            assert record["state"] == "done"
            assert record["error"] is None
            assert record["result"]["verdict"] == "contained"
            # The same canonical pair again answers from the cache.
            again = client.run(containment_doc(OMQ_A, OMQ_A2, tenant="t2"))
            assert again["cached"] is True
            assert again["result"]["verdict"] == "contained"

    def test_alpha_equivalent_pairs_coalesce_across_tenants(self):
        with _Replica(allow_test_jobs=True) as replica:
            with replica.client() as client:
                # Occupy the single worker so both submissions queue —
                # coalescing is then deterministic, not a race.
                plug = client.submit(
                    {"kind": "sleep", "seconds": 0.4, "tenant": "ops"}
                )
                first = client.submit(
                    containment_doc(OMQ_A, OMQ_B, tenant="alice")
                )
                second = client.submit(
                    containment_doc(OMQ_A2, OMQ_B, tenant="bob")
                )
                assert second["coalesced_onto"] == first["id"]
                done1 = client.wait(first["id"], timeout=30)
                done2 = client.wait(second["id"], timeout=30)
                assert (
                    done1["result"]["verdict"] == done2["result"]["verdict"]
                )
                assert done2["coalesced"] is True
                # The rider's final document still names its primary.
                assert done2["coalesced_onto"] == first["id"]
                snapshot = client.metrics()["metrics"]
                assert snapshot["engine.containment.runs"] == 1
                assert (
                    snapshot["serve.requests.bob.coalesced"] == 1
                )
                client.wait(plug["id"], timeout=30)

    def test_deadline_miss_degrades_without_running(self):
        with _Replica() as replica, replica.client() as client:
            # 50ms is below the scheduler's 250ms floor: the submission
            # must answer inline (200), UNKNOWN with reason "deadline",
            # and never reach a pool worker.
            record = client.submit(
                containment_doc(OMQ_A, OMQ_B, tenant="t1", deadline_ms=50)
            )
            assert record["state"] == "done"
            assert record["error"] == "deadline"
            assert record["result"]["verdict"] == "unknown"
            assert record["result"]["detail"] == "deadline"
            snapshot = client.metrics()["metrics"]
            assert snapshot["engine.scheduler.deadline.degraded"] == 1
            assert snapshot.get("engine.containment.runs", 0) == 0
            assert snapshot["serve.requests.t1.deadline"] == 1
            # The same pair without a deadline completes normally.
            record = client.run(containment_doc(OMQ_A, OMQ_B, tenant="t1"))
            assert record["error"] is None
            assert record["result"]["verdict"] in (
                "contained", "not-contained",
            )

    def test_tenant_default_deadline_applies(self):
        with _Replica() as replica, replica.client() as client:
            client.set_tenants(
                {"impatient": {"weight": 1, "default_deadline_ms": 10}}
            )
            record = client.submit(
                containment_doc(OMQ_A, OMQ_B, tenant="impatient")
            )
            assert record["deadline_ms"] == 10
            assert record["error"] == "deadline"

    def test_cancel_reports_coalesced_survivor(self):
        with _Replica(allow_test_jobs=True) as replica:
            with replica.client() as client:
                plug = client.submit(
                    {"kind": "sleep", "seconds": 0.4, "tenant": "ops"}
                )
                first = client.submit(
                    containment_doc(OMQ_A, OMQ_B, tenant="alice")
                )
                second = client.submit(
                    containment_doc(OMQ_A2, OMQ_B, tenant="bob")
                )
                outcome = client.cancel(second["id"])
                assert outcome["cancelled"] is True
                assert outcome["coalesced_onto"] == first["id"]
                done = client.wait(first["id"], timeout=30)
                assert done["error"] is None
                cancelled = client.job(second["id"])
                assert cancelled["error"] == "cancelled"
                client.wait(plug["id"], timeout=30)

    def test_cancel_done_job_is_false(self):
        with _Replica() as replica, replica.client() as client:
            record = client.run(containment_doc(OMQ_A, OMQ_A2, tenant="t"))
            assert client.cancel(record["id"])["cancelled"] is False

    def test_batch_submission(self):
        with _Replica() as replica, replica.client() as client:
            records = client.submit_batch(
                [
                    containment_doc(OMQ_A, OMQ_A2, tenant="t1"),
                    containment_doc(OMQ_A, OMQ_B, tenant="t2"),
                ]
            )
            assert len(records) == 2
            for record in records:
                done = client.wait(record["id"], timeout=30)
                assert done["result"]["verdict"] in (
                    "contained", "not-contained", "unknown",
                )

    def test_sse_stream_ends_with_result(self):
        with _Replica(allow_test_jobs=True) as replica:
            with replica.client() as client:
                record = client.submit(
                    {"kind": "sleep", "seconds": 0.4, "tenant": "t",
                     "payload": "done!"}
                )
                events = list(client.stream(record["id"], timeout=30))
                assert events[0][0] == "status"
                assert events[-1][0] == "result"
                final = events[-1][1]
                assert final["state"] == "done"
                assert final["result"] == {"payload": "done!"}

    def test_wait_returns_the_result_frame_and_times_out_in_total(self):
        """``wait`` reads the job's SSE stream; heartbeats keep arriving,
        yet it gives up once *timeout* seconds have passed in all."""
        with _Replica(allow_test_jobs=True) as replica:
            with replica.client() as client:
                quick = client.submit(
                    {"kind": "sleep", "seconds": 0.1, "tenant": "t",
                     "payload": "ok"}
                )
                done = client.wait(quick["id"], timeout=30)
                assert done["state"] == "done"
                assert done["result"] == {"payload": "ok"}
                slow = client.submit(
                    {"kind": "sleep", "seconds": 2.0, "tenant": "t"}
                )
                started = time.monotonic()
                with pytest.raises(TimeoutError):
                    client.wait(slow["id"], timeout=0.5)
                assert time.monotonic() - started < 1.5

    def test_metrics_json_and_prometheus(self):
        with _Replica() as replica, replica.client() as client:
            client.run(containment_doc(OMQ_A, OMQ_A2, tenant="acme"))
            snapshot = client.metrics()
            assert "serve.requests.acme.submitted" in snapshot["metrics"]
            assert "cache" in snapshot
            text = client.metrics_prometheus()
            assert "# TYPE repro_serve_requests_acme_submitted counter" in text
            assert "repro_serve_requests_acme_submitted 1" in text
            assert "repro_serve_http_requests" in text

    def test_metrics_carry_xrewrite_waste_counters(self):
        # A decision that runs XRewrite on the replica's own thread
        # (workers=1): its candidate, duplicate and core-check counters
        # must show in both /metrics formats.
        path3 = (
            "schema: E/2\nrules:\n    E(x, y) -> P(x, y)\n"
            "query: q() :- P(x, y), P(y, z), P(z, w)\n"
        )
        path2 = "schema: E/2\nquery: q() :- E(x, y), E(y, z)\n"
        names = (
            "kernel.xrewrite.candidates",
            "kernel.xrewrite.duplicates",
            "kernel.core.hom_checks",
        )
        with _Replica() as replica, replica.client() as client:
            done = client.run(containment_doc(path3, path2))
            assert done["result"]["verdict"] == "contained", done
            snapshot = client.metrics()["metrics"]
            text = client.metrics_prometheus()
        for name in names:
            assert snapshot[name] > 0, name
            metric = "repro_" + name.replace(".", "_")
            assert f"# TYPE {metric} counter" in text, metric
            assert f"{metric} {snapshot[name]}" in text, metric

    def test_metrics_carry_witness_pruned_counter(self, tmp_path):
        # The witness a 2-path gives against a 3-path is an E-database;
        # an F-query shares the 3-path RHS, so that witness is its
        # cross-pair candidate, and the necessary test refutes it.
        e2 = "schema: E/2, F/2\nquery: q() :- E(x, y), E(y, z)\n"
        e3 = "schema: E/2, F/2\nquery: q() :- E(x, y), E(y, z), E(z, w)\n"
        f1 = "schema: E/2, F/2\nquery: q() :- F(x, y)\n"
        name = "engine.witness.pruned"
        with _Replica(witness_store=str(tmp_path / "w.sqlite")) as replica:
            with replica.client() as client:
                for q1 in (e2, f1):
                    done = client.run(containment_doc(q1, e3))
                    assert done["result"]["verdict"] == "not-contained", done
                snapshot = client.metrics()["metrics"]
                text = client.metrics_prometheus()
            engine = replica.server.app.engine
            assert engine.stats()["metrics"][name] == 1
        assert snapshot[name] == 1
        assert "# TYPE repro_engine_witness_pruned counter" in text
        assert "repro_engine_witness_pruned 1" in text

    def test_same_hash_pairs_are_not_catalog_group_hits(self, tmp_path):
        # Two spellings of one OMQ share a canonical hash: the catalog
        # rung answers them without consulting any group, and says so.
        a = "schema: E/2\nquery: q(x) :- E(x, y), E(y, z)\n"
        b = "schema: E/2\nquery: q(u) :- E(v, w), E(u, v)\n"
        with _Replica(catalog=str(tmp_path / "c.sqlite")) as replica:
            with replica.client() as client:
                done = client.run(containment_doc(a, b))
                snapshot = client.metrics()["metrics"]
                text = client.metrics_prometheus()
        assert done["result"]["method"] == "catalog-equivalence", done
        assert done["result"]["detail"] == "both OMQs have one canonical form"
        assert snapshot["engine.catalog.same_hash"] == 1
        assert snapshot.get("engine.catalog.short_circuits", 0) == 0
        assert "# TYPE repro_engine_catalog_same_hash counter" in text
        assert "repro_engine_catalog_same_hash 1" in text
        assert "repro_engine_catalog_short_circuits" not in text

    def test_debug_profile_reports_latency_and_live_profile(self):
        with _Replica(trace_mode="always") as replica:
            with replica.client() as client:
                done = client.run(
                    containment_doc(OMQ_A, OMQ_A2, tenant="acme.eu")
                )
                body = client.debug_profile()
                # Tenant ids may contain dots, so latency is nested by
                # tenant then kind — never parsed back out of a flat name.
                lat = body["latency"]["acme.eu"]["containment"]
                assert lat["count"] == 1
                assert 0.0 < lat["p50_s"] <= lat["p95_s"] <= lat["p99_s"]
                assert lat["max_s"] >= lat["mean_s"] > 0.0
                # Exemplars link the bucket to the decision's trace id
                # ("<pid hex>-<seq hex>", obs.span.new_span_id), not the
                # job id, when tracing is on.
                refs = [ex["ref"] for ex in lat["exemplars"].values()]
                assert len(refs) == 1
                assert refs[0] != done["id"]
                assert re.fullmatch(r"[0-9a-f]+-[0-9a-f]+", refs[0])
                # The live profile aggregates the captured span trees.
                assert body["traced_decisions"] == 1
                profile = body["profile"]
                assert profile["decisions"] == 1
                assert profile["meta"]["source"] == "serve.live"
                assert profile["meta"]["trace_mode"] == "always"
                assert any(
                    name.startswith("containment") or name.startswith("job")
                    for name in profile["spans"]
                )

    def test_debug_profile_untraced_uses_job_id_exemplars(self):
        with _Replica() as replica, replica.client() as client:
            done = client.run(containment_doc(OMQ_A, OMQ_B, tenant="plain"))
            body = client.debug_profile()
            lat = body["latency"]["plain"]["containment"]
            assert lat["count"] == 1
            refs = [ex["ref"] for ex in lat["exemplars"].values()]
            assert done["id"] in refs
            # No tracing configured: nothing accumulates into the profile.
            assert body["traced_decisions"] == 0
            assert body["profile"]["spans"] == {}

    def test_tenants_roundtrip_and_live_weight(self):
        with _Replica() as replica, replica.client() as client:
            updated = client.set_tenants(
                {"gold": {"weight": 4, "priority": "high"}}
            )
            assert updated["gold"]["weight"] == 4.0
            assert client.tenants()["gold"]["priority"] == "high"
            scheduler = replica.server.app.engine.scheduler
            assert scheduler._weights["gold"] == 4.0

    def test_unknown_job_and_route_are_404(self):
        with _Replica() as replica, replica.client() as client:
            with pytest.raises(ServeError) as exc:
                client.job("j-nope-000001")
            assert exc.value.status == 404
            with pytest.raises(ServeError) as exc:
                client.request("GET", "/v2/everything")
            assert exc.value.status == 404

    def test_wrong_method_is_405(self):
        with _Replica() as replica, replica.client() as client:
            with pytest.raises(ServeError) as exc:
                client.request("DELETE", "/healthz")
            assert exc.value.status == 405

    def test_malformed_requests_answer_4xx(self):
        with _Replica() as replica:
            def raw_exchange(payload: bytes) -> bytes:
                with socket.create_connection(
                    ("127.0.0.1", replica.port), timeout=10
                ) as sock:
                    sock.sendall(payload)
                    sock.shutdown(socket.SHUT_WR)
                    chunks = []
                    while True:
                        chunk = sock.recv(4096)
                        if not chunk:
                            return b"".join(chunks)
                        chunks.append(chunk)

            # Garbage request line.
            reply = raw_exchange(b"???\r\n\r\n")
            assert reply.startswith(b"HTTP/1.1 400")
            # Unsupported protocol version.
            reply = raw_exchange(b"GET / SPDY/3\r\n\r\n")
            assert reply.startswith(b"HTTP/1.1 400")
            # Body bigger than its Content-Length cap.
            reply = raw_exchange(
                b"POST /v1/jobs HTTP/1.1\r\n"
                b"Content-Length: 99999999\r\n\r\n"
            )
            assert reply.startswith(b"HTTP/1.1 413")
            # Chunked request bodies are not supported.
            reply = raw_exchange(
                b"POST /v1/jobs HTTP/1.1\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
            )
            assert reply.startswith(b"HTTP/1.1 415")
            # Valid HTTP, body is not JSON.
            reply = raw_exchange(
                b"POST /v1/jobs HTTP/1.1\r\n"
                b"Content-Length: 9\r\n\r\nnot json!"
            )
            assert reply.startswith(b"HTTP/1.1 400")

    def test_draining_rejects_new_work(self):
        with _Replica() as replica, replica.client() as client:
            replica.server.app.draining = True
            try:
                with pytest.raises(ServeError) as exc:
                    client.submit(containment_doc(OMQ_A, OMQ_B))
                assert exc.value.status == 503
                assert exc.value.code == "draining"
                with pytest.raises(ServeError) as exc:
                    client.health()
                assert exc.value.status == 503
            finally:
                replica.server.app.draining = False

    def test_concurrent_clients(self):
        pairs = [(OMQ_A, OMQ_A2), (OMQ_A, OMQ_B), (OMQ_B, OMQ_A)]
        with _Replica() as replica:
            results, errors = [], []

            def work(index: int):
                try:
                    with replica.client() as client:
                        q1, q2 = pairs[index % len(pairs)]
                        record = client.run(
                            containment_doc(q1, q2, tenant=f"t{index}"),
                            timeout=60,
                        )
                        results.append(record["result"]["verdict"])
                except Exception as exc:  # surfaced after join
                    errors.append(exc)

            threads = [
                threading.Thread(target=work, args=(i,)) for i in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(90)
            assert not errors
            assert len(results) == 6
            assert all(
                v in ("contained", "not-contained", "unknown")
                for v in results
            )


# ---------------------------------------------------------------------------
# The job table, without a socket
# ---------------------------------------------------------------------------


def _call(app, method: str, path: str, doc=None):
    """One request through ``ServeApp.handle_request``: (status, body)."""
    body = json.dumps(doc).encode("utf-8") if doc is not None else b""
    request = Request(method, path, {}, {}, body)
    response = asyncio.run(app.handle_request(request))
    if response.stream is None:
        return response.status, json.loads(response.body)

    async def frames():
        return [frame async for frame in response.stream]

    return response.status, b"".join(asyncio.run(frames()))


def _wait_done(app, job_id: str, timeout: float = 30.0) -> dict:
    deadline = time.monotonic() + timeout
    while True:
        status, doc = _call(app, "GET", f"/v1/jobs/{job_id}")
        assert status == 200
        if doc["state"] == "done":
            return doc
        assert time.monotonic() < deadline, f"{job_id} still pending"
        time.sleep(0.01)


@pytest.fixture
def serve_app():
    engine = BatchEngine(workers=1)
    apps = []

    def make(**kwargs):
        app = ServeApp(engine, allow_test_jobs=True, **kwargs)
        apps.append(app)
        return app

    try:
        yield make
    finally:
        for app in apps:  # let no job outlive the engine
            for job_id in list(app._jobs):
                _wait_done(app, job_id)
        engine.close()


class TestJobTable:
    def test_finished_job_keeps_no_parsed_omq(self, serve_app, monkeypatch):
        """Once a job finishes, the table keeps its answer, not its
        parsed OMQs — whether a worker ran it or a tier answered it."""
        app = serve_app()
        parsed = []
        parse = app_module.parse_job_spec

        def parse_and_keep(*args, **kwargs):
            spec = parse(*args, **kwargs)
            parsed.append(spec)
            return spec

        monkeypatch.setattr(app_module, "parse_job_spec", parse_and_keep)
        _, fresh = _call(
            app, "POST", "/v1/jobs", containment_doc(OMQ_A, OMQ_B)
        )
        _wait_done(app, fresh["id"])
        # The α-renamed copy answers from the result cache, inline.
        status, cached = _call(
            app, "POST", "/v1/jobs", containment_doc(OMQ_A2, OMQ_B)
        )
        assert (status, cached["cached"]) == (200, True)
        # One more pool job: the in-process coordinator holds its last
        # ticket until the next one arrives.
        _, plug = _call(app, "POST", "/v1/jobs", {"kind": "sleep", "seconds": 0})
        _wait_done(app, plug["id"])
        refs = [weakref.ref(spec.job.q1) for spec in parsed[:2]]
        parsed.clear()
        # In-process decisions also fill the library's own bounded memos.
        repro.clear_caches()
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
        # ...and every answer about the jobs is still there.
        status, doc = _call(app, "GET", f"/v1/jobs/{fresh['id']}")
        assert status == 200
        assert doc["result"]["verdict"] == cached["result"]["verdict"]

    def test_finished_document_is_rendered_once(self, serve_app, monkeypatch):
        app = serve_app()
        renders = []
        render = app_module.result_to_json

        def counting(job, value):
            renders.append(job)
            return render(job, value)

        monkeypatch.setattr(app_module, "result_to_json", counting)
        _, record = _call(
            app, "POST", "/v1/jobs", {"kind": "sleep", "seconds": 0.05}
        )
        final = _wait_done(app, record["id"])
        path = f"/v1/jobs/{record['id']}"
        for _ in range(3):
            assert _call(app, "GET", path) == (200, final)
        _, stream = _call(app, "GET", path + "/stream")
        assert stream.count(b"event: result") == 1
        assert _call(app, "DELETE", path)[1]["cancelled"] is False
        assert len(renders) == 1

    def test_oldest_finished_record_is_evicted_first(self, serve_app):
        app = serve_app(max_jobs=3)
        # A plug on the single worker, then a job queued behind it: both
        # stay pending while the table overflows.
        _, plug = _call(app, "POST", "/v1/jobs", {"kind": "sleep", "seconds": 0.5})
        _, queued = _call(app, "POST", "/v1/jobs", {"kind": "sleep", "seconds": 0})
        finished = []
        for _ in range(4):
            # A deadline below the scheduler's floor answers inline.
            status, doc = _call(
                app, "POST", "/v1/jobs",
                containment_doc(OMQ_A, OMQ_B, deadline_ms=50),
            )
            assert (status, doc["state"]) == (200, "done")
            finished.append(doc["id"])
        # Over the bound by one per submission: each evicts the oldest
        # finished record and skips the two pending ones.
        assert list(app._jobs) == [plug["id"], queued["id"], finished[-1]]
        for job_id in (plug["id"], queued["id"]):
            status, doc = _call(app, "GET", f"/v1/jobs/{job_id}")
            assert (status, doc["state"]) == (200, "pending")
        # Finished, the two plugs go first: the newest record survives.
        _wait_done(app, plug["id"])
        _wait_done(app, queued["id"])
        _, doc = _call(
            app, "POST", "/v1/jobs",
            containment_doc(OMQ_A, OMQ_B, deadline_ms=50),
        )
        assert list(app._jobs) == [queued["id"], finished[-1], doc["id"]]

    def test_evicted_id_is_unknown_everywhere(self, serve_app):
        app = serve_app(max_jobs=1)
        _, first = _call(
            app, "POST", "/v1/jobs",
            containment_doc(OMQ_A, OMQ_B, deadline_ms=50),
        )
        _call(
            app, "POST", "/v1/jobs",
            containment_doc(OMQ_A, OMQ_B, deadline_ms=50),
        )
        path = f"/v1/jobs/{first['id']}"
        for method, route in (
            ("GET", path), ("GET", path + "/stream"), ("DELETE", path),
        ):
            status, doc = _call(app, method, route)
            assert status == 404
            assert doc["error"]["code"] == "not_found"
            assert doc["error"]["message"] == f"unknown job {first['id']!r}"


# ---------------------------------------------------------------------------
# Drain-on-SIGTERM, against a real subprocess
# ---------------------------------------------------------------------------


class TestSigtermDrain:
    def test_sigterm_drains_and_exits(self, tmp_path):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--allow-test-jobs",
                "--drain-grace", "5",
            ],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            port = None
            deadline = time.monotonic() + 30
            for line in proc.stderr:
                if "listening on" in line:
                    port = int(
                        line.rsplit("listening on", 1)[1]
                        .split("(")[0].strip().rsplit(":", 1)[1]
                    )
                    break
                if time.monotonic() > deadline:
                    break
            assert port, "server never reported its port"
            with ServeClient(port=port, timeout=10) as client:
                assert client.health()["status"] == "ok"
                record = client.submit(
                    {"kind": "sleep", "seconds": 0.3, "tenant": "t"}
                )
                proc.send_signal(signal.SIGTERM)
                # In-flight work still resolves on the draining server's
                # engine; the process then exits within the grace period.
                assert record["id"]
            proc.wait(timeout=30)
            assert proc.returncode == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(10)
            proc.stderr.close()


# ---------------------------------------------------------------------------
# Embedding: a caller-owned engine is not closed by the server
# ---------------------------------------------------------------------------


class TestEmbedding:
    def test_external_engine_survives_shutdown(self):
        engine = BatchEngine(workers=1)
        try:
            server = ReproServer(ServeConfig(port=0), engine=engine)
            loop = asyncio.new_event_loop()
            try:
                loop.run_until_complete(server.start())
                loop.run_until_complete(server.shutdown(drain=False))
            finally:
                loop.close()
            # The engine still works: the server must not have closed it.
            from repro.engine.jobs import SleepJob

            handle = engine.submit(SleepJob(0.0, payload="alive"))
            assert handle.result(10).value == "alive"
        finally:
            engine.close()
