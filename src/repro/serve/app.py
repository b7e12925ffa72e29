"""The request router and handlers of the serving tier.

:class:`ServeApp` owns the job table and maps the wire protocol onto the
engine's scheduler.  It is transport-free — `server.py` feeds it parsed
:class:`~repro.serve.http.Request` objects and writes back the
:class:`~repro.serve.http.Response` it returns — which is what makes the
handlers unit-testable without a socket.

Endpoints::

    POST   /v1/jobs          submit one job  (202 pending | 200 done)
    GET    /v1/jobs/<id>     poll a job
    GET    /v1/jobs/<id>/stream   SSE: status heartbeats, then the result
    DELETE /v1/jobs/<id>     cancel (reports coalesced_onto survivor)
    POST   /v1/batch         submit many jobs in one request
    GET    /v1/tenants       the live tenant table
    PUT    /v1/tenants       merge tenant policies (weights apply live)
    GET    /healthz          liveness + drain state
    GET    /metrics          unified snapshot (JSON | Prometheus text)
    GET    /v1/debug/profile    live latency percentiles + span profile

Scheduling semantics: the submitting tenant is the scheduler's
*submitter* (so per-tenant weighted fair share applies), the tenant's
priority class rides each submission, and ``deadline_ms`` (explicit or
the tenant default) arms the scheduler's
:class:`~repro.engine.scheduler.DeadlinePolicy` — a budget that cannot
cover a fresh decision degrades through catalog → cache → UNKNOWN with
reason ``"deadline"`` instead of queueing behind an expensive chase.

Accounting: every tenant gets ``serve.requests.<tenant>.{submitted,
completed,cached,coalesced,cancelled,deadline,failed}`` counters in the
engine's registry, so ``/metrics`` exposes them alongside the
engine/kernel/obs families in both formats.  Completions additionally
feed a per-``(tenant, kind)`` latency :class:`Histogram` (each bucket
keeps the decision id of its latest hit as an exemplar) and — when the
engine traces — a live :class:`~repro.obs.profile.ProfileAccumulator`;
``GET /v1/debug/profile`` serves both.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import uuid
from dataclasses import dataclass
from typing import Any, AsyncIterator, Dict, Optional

from ..engine.engine import BatchEngine
from ..engine.metrics import LATENCY_BUCKETS, render_prometheus
from ..engine.pool import CANCELLED
from ..engine.scheduler import DEADLINE, JobHandle
from ..obs.profile import ProfileAccumulator
from .http import ProtocolError, Request, Response, sse_event
from .protocol import (
    ERR_METHOD,
    ERR_NOT_FOUND,
    TenantTable,
    envelope,
    latency_to_json,
    parse_job_spec,
    result_to_json,
)


@dataclass(slots=True)
class JobRecord:
    """One accepted submission: its id, its JSON document, its handle.

    While the job is pending, ``doc`` is its header and ``handle`` the
    live :class:`~repro.engine.scheduler.JobHandle`.  When the handle
    resolves, the done callback renders the final document once, stores
    it as ``doc`` and sets ``handle`` to ``None``: a finished record keeps
    its answer and nothing else (not the parsed OMQs, the engine job, its
    result or its trace).
    """

    id: str
    doc: Dict[str, Any]
    handle: Optional[JobHandle]


class ServeApp:
    """Routes requests onto one :class:`~repro.engine.BatchEngine`."""

    def __init__(
        self,
        engine: BatchEngine,
        tenants: Optional[TenantTable] = None,
        *,
        allow_test_jobs: bool = False,
        heartbeat_s: float = 0.25,
        max_jobs: int = 100_000,
    ) -> None:
        self.engine = engine
        self.metrics = engine.metrics
        self.tenants = tenants or TenantTable()
        self.allow_test_jobs = allow_test_jobs
        self.heartbeat_s = heartbeat_s
        self.max_jobs = max_jobs
        self.draining = False
        self._lock = threading.Lock()
        # Insertion-ordered, so the oldest record comes first.
        self._jobs: Dict[str, JobRecord] = {}
        # id(handle) -> job id, for unresolved handles only: a coalesced
        # submission reads its primary's job id here once, at submit time.
        self._job_of_handle: Dict[int, str] = {}
        self._seq = itertools.count(1)
        self._instance = uuid.uuid4().hex[:8]
        # Latency histograms are keyed by (tenant, kind) tuple here —
        # never parsed back out of the registry name, since tenant ids
        # may contain dots.
        self._latency: Dict[Any, Any] = {}
        self._profile = ProfileAccumulator()
        self._profile_lock = threading.Lock()
        for name in self.tenants.names():
            self._apply_policy(name)

    # -- tenant plumbing ---------------------------------------------------

    def _apply_policy(self, tenant: str) -> None:
        policy = self.tenants.get(tenant)
        self.engine.scheduler.set_weight(tenant, policy.weight)

    def _tenant_counter(self, tenant: str, event: str):
        return self.metrics.counter(f"serve.requests.{tenant}.{event}")

    # -- the job table -----------------------------------------------------

    def _new_job_id(self) -> str:
        return f"j-{self._instance}-{next(self._seq):06d}"

    def _remember(self, record: JobRecord) -> None:
        with self._lock:
            self._jobs[record.id] = record
            self._job_of_handle[id(record.handle)] = record.id
            # Bounded memory: past max_jobs, retire the oldest *finished*
            # records (a pending record is never evicted).
            excess = len(self._jobs) - self.max_jobs
            if excess > 0:
                finished = (
                    job_id for job_id, old in self._jobs.items()
                    if old.handle is None
                )
                for job_id in list(itertools.islice(finished, excess)):
                    del self._jobs[job_id]

    def get_job(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._jobs.get(job_id)

    def _job_id_of_handle(self, handle: Optional[JobHandle]) -> Optional[str]:
        if handle is None:
            return None
        with self._lock:
            return self._job_of_handle.get(id(handle))

    # -- submission --------------------------------------------------------

    def submit(self, doc: dict) -> JobRecord:
        """Parse and submit one job document; returns its record."""
        spec = parse_job_spec(doc, allow_test_jobs=self.allow_test_jobs)
        policy = self.tenants.get(spec.tenant)
        self._apply_policy(spec.tenant)
        deadline_ms = (
            spec.deadline_ms
            if spec.deadline_ms is not None
            else policy.default_deadline_ms
        )
        tenant = spec.tenant
        self._tenant_counter(tenant, "submitted").inc()
        handle = self.engine.submit(
            spec.job,
            priority=spec.priority if spec.priority is not None
            else policy.priority,
            submitter=tenant,
            deadline=deadline_ms / 1000.0 if deadline_ms else None,
        )
        header: Dict[str, Any] = {
            "id": self._new_job_id(),
            "tenant": tenant,
            "kind": getattr(spec.job, "kind", "?"),
            "label": spec.label,
            "state": "pending",
            "deadline_ms": deadline_ms,
        }
        # Read now: the primary's entry leaves the table when it resolves.
        primary = self._job_id_of_handle(handle.coalesced_onto)
        if primary is not None:
            header["coalesced_onto"] = primary
        record = JobRecord(id=header["id"], doc=header, handle=handle)
        self._remember(record)
        handle.add_done_callback(
            lambda h, record=record: self._finish(record, h)
        )
        return record

    @staticmethod
    def _final_doc(header: Dict[str, Any], handle: JobHandle) -> dict:
        result = handle.result(0)
        return {
            **header,
            "state": "done",
            "cached": result.cached,
            "coalesced": result.coalesced,
            "error": result.error,
            "duration_ms": round(result.duration * 1000.0, 3),
            "result": result_to_json(handle.job, result.value),
        }

    def _finish(self, record: JobRecord, handle: JobHandle) -> None:
        """The done callback: store the final document, drop the handle,
        then count the outcome."""
        doc = self._final_doc(record.doc, handle)
        with self._lock:
            # ``doc`` first: a reader that finds no handle finds it.
            record.doc = doc
            record.handle = None
            self._job_of_handle.pop(id(handle), None)
        result = handle.result(0)
        tenant = doc["tenant"]
        if result.error == CANCELLED:
            event = "cancelled"
        elif result.error == DEADLINE:
            event = "deadline"
        elif result.error is not None:
            event = "failed"
        elif result.cached:
            event = "cached"
        elif result.coalesced:
            event = "coalesced"
        else:
            event = "completed"
        self._tenant_counter(tenant, event).inc()
        key = (tenant, doc["kind"])
        with self._lock:
            hist = self._latency.get(key)
            if hist is None:
                hist = self._latency[key] = self.metrics.histogram(
                    f"serve.latency.{tenant}.{doc['kind']}",
                    buckets=LATENCY_BUCKETS,
                )
        trace = result.trace
        hist.observe(
            result.duration,
            exemplar=trace["id"] if trace is not None else record.id,
        )
        if trace is not None:
            with self._profile_lock:
                self._profile.add_root(trace)

    def job_to_json(self, record: JobRecord) -> dict:
        """The job's document: the stored one, or — when its handle has
        resolved but the done callback has not stored the final document
        yet — a copy of that document rendered for this read."""
        handle = record.handle
        if handle is not None and handle.done():
            return self._final_doc(record.doc, handle)
        return record.doc

    # -- routing -----------------------------------------------------------

    async def handle_request(self, request: Request) -> Response:
        """Dispatch one request; never raises (errors become responses)."""
        try:
            return await self._route(request)
        except ProtocolError as exc:
            return Response.error(exc.status, exc.code, exc.message)
        except Exception as exc:  # the connection must survive handler bugs
            self.metrics.counter("serve.http.errors").inc()
            return Response.error(
                500, "internal", f"{type(exc).__name__}: {exc}"
            )

    async def _route(self, request: Request) -> Response:
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/healthz":
            return self._health(method)
        if path == "/metrics":
            return self._metrics(request, method)
        if path == "/v1/tenants":
            return self._tenants(request, method)
        if path == "/v1/debug/profile":
            return self._debug_profile(method)
        if path == "/v1/jobs" and method == "POST":
            self._refuse_if_draining()
            return self._submit_response(self.submit(request.json()))
        if path == "/v1/batch" and method == "POST":
            self._refuse_if_draining()
            return self._batch(request)
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/stream"):
                job_id, tail = rest[: -len("/stream")], "stream"
            else:
                job_id, tail = rest, ""
            if not job_id or "/" in job_id:
                raise ProtocolError(404, ERR_NOT_FOUND, f"no route {path!r}")
            record = self.get_job(job_id)
            if record is None:
                raise ProtocolError(
                    404, ERR_NOT_FOUND, f"unknown job {job_id!r}"
                )
            if tail == "stream":
                if method != "GET":
                    raise ProtocolError(
                        405, ERR_METHOD, f"{method} not allowed on stream"
                    )
                return Response(
                    content_type="text/event-stream",
                    stream=self._stream_job(record),
                )
            if method == "GET":
                return Response.json(envelope(self.job_to_json(record)))
            if method == "DELETE":
                return self._cancel(record)
            raise ProtocolError(
                405, ERR_METHOD, f"{method} not allowed on a job"
            )
        raise ProtocolError(
            404, ERR_NOT_FOUND, f"no route for {method} {path!r}"
        )

    def _refuse_if_draining(self) -> None:
        if self.draining:
            raise ProtocolError(
                503, "draining", "server is draining; not accepting work"
            )

    # -- handlers ----------------------------------------------------------

    def _submit_response(self, record: JobRecord) -> Response:
        doc = self.job_to_json(record)
        # A submission already resolved when this reads its document
        # answers 200 with the result inline; anything still in flight
        # is a 202.  That covers the tier ladder (witness store, catalog,
        # cache) and deadline degrades, but also a pool job that finished
        # first — a race between inline and SSE answers that ROADMAP
        # item 4 replaces with a bounded wait.
        status = 200 if doc["state"] == "done" else 202
        return Response.json(envelope(doc), status=status)

    def _batch(self, request: Request) -> Response:
        doc = request.json()
        jobs = doc.get("jobs")
        if not isinstance(jobs, list) or not jobs:
            raise ProtocolError(
                400, "bad_field", "field 'jobs' must be a non-empty array"
            )
        records = [self.submit(entry) for entry in jobs]
        docs = [self.job_to_json(r) for r in records]
        return Response.json(
            envelope({"jobs": docs}),
            status=202 if any(d["state"] != "done" for d in docs) else 200,
        )

    def _cancel(self, record: JobRecord) -> Response:
        handle = record.handle
        cancelled = handle is not None and handle.cancel()
        if cancelled:
            self.metrics.counter("serve.cancelled").inc()
        doc: Dict[str, Any] = {
            "id": record.id,
            "cancelled": cancelled,
            "state": "done",
        }
        survivor = record.doc.get("coalesced_onto")
        if survivor is not None:
            # The computation this handle rode on keeps running for its
            # primary submitter; report who that is.
            doc["coalesced_onto"] = survivor
        return Response.json(envelope(doc))

    def _health(self, method: str) -> Response:
        if method not in ("GET", "HEAD"):
            raise ProtocolError(405, ERR_METHOD, "use GET /healthz")
        with self._lock:
            jobs = len(self._jobs)
        return Response.json(
            envelope(
                {
                    "status": "draining" if self.draining else "ok",
                    "jobs": jobs,
                    "workers": self.engine.pool.workers,
                }
            ),
            status=503 if self.draining else 200,
        )

    def _metrics(self, request: Request, method: str) -> Response:
        if method != "GET":
            raise ProtocolError(405, ERR_METHOD, "use GET /metrics")
        stats = self.engine.stats()
        snapshot = stats["metrics"]
        accept = request.headers.get("accept", "")
        fmt = request.query.get("format")
        prometheus = fmt == "prometheus" or (
            fmt is None
            and "text/plain" in accept
            and "application/json" not in accept
        )
        if prometheus:
            return Response(
                body=render_prometheus(snapshot).encode("utf-8"),
                content_type="text/plain; version=0.0.4",
            )
        return Response.json(
            envelope(
                {
                    "metrics": snapshot,
                    "cache": stats["cache"],
                    "catalog": stats.get("catalog"),
                    "witness_store": stats.get("witness_store"),
                }
            )
        )

    def _debug_profile(self, method: str) -> Response:
        """Live telemetry: per-tenant/kind latency summaries (count,
        mean, p50/p95/p99, bucket exemplars) plus the span profile
        aggregated from every traced decision since startup."""
        if method != "GET":
            raise ProtocolError(405, ERR_METHOD, "use GET /v1/debug/profile")
        with self._lock:
            latencies = dict(self._latency)
        trace_config = self.engine.trace_config
        with self._profile_lock:
            decisions = self._profile.decisions
            profile = self._profile.profile(
                meta={
                    "source": "serve.live",
                    "trace_mode": (
                        trace_config.mode if trace_config is not None
                        else "off"
                    ),
                }
            )
        return Response.json(
            envelope(
                {
                    "latency": latency_to_json(latencies),
                    "traced_decisions": decisions,
                    "profile": profile,
                }
            )
        )

    def _tenants(self, request: Request, method: str) -> Response:
        if method == "GET":
            return Response.json(
                envelope({"tenants": self.tenants.to_json()})
            )
        if method != "PUT":
            raise ProtocolError(405, ERR_METHOD, "use GET or PUT /v1/tenants")
        doc = request.json()
        changed = self.tenants.update_from_json(doc.get("tenants", doc))
        for name in changed:
            self._apply_policy(name)
        self.metrics.counter("serve.tenants.updates").inc()
        return Response.json(envelope({"tenants": self.tenants.to_json()}))

    # -- streaming ---------------------------------------------------------

    async def _stream_job(self, record: JobRecord) -> AsyncIterator[bytes]:
        """SSE: a ``status`` frame now, heartbeats while pending, then the
        terminal ``result`` frame."""
        yield sse_event("status", envelope(self.job_to_json(record)))
        handle = record.handle
        if handle is not None and not handle.done():
            loop = asyncio.get_running_loop()
            done = loop.create_future()

            def _resolved(_h: JobHandle) -> None:
                loop.call_soon_threadsafe(
                    lambda: done.done() or done.set_result(True)
                )

            handle.add_done_callback(_resolved)
            while not handle.done():
                try:
                    await asyncio.wait_for(
                        asyncio.shield(done), self.heartbeat_s
                    )
                except asyncio.TimeoutError:
                    yield sse_event(
                        "status", envelope(self.job_to_json(record))
                    )
        yield sse_event("result", envelope(self.job_to_json(record)))
