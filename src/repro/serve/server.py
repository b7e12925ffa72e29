"""Lifecycle of the long-lived serving process.

:class:`ReproServer` wraps one :class:`~repro.serve.app.ServeApp` in an
``asyncio.start_server`` loop:

* **startup** — builds the :class:`~repro.engine.BatchEngine` from a
  :class:`ServeConfig` (workers, tier paths, deadline floor),
  loads the tenant config file, binds the socket (``port=0`` picks a free
  port, reported on :attr:`ReproServer.port`);
* **request loop** — HTTP/1.1 keep-alive per connection; every request
  gets a request id and one structured log line (``rid method path
  status duration``) on the ``repro.serve`` logger, plus
  ``serve.http.*`` counters and a latency timer;
* **drain-on-SIGTERM** — the first SIGTERM/SIGINT flips the app into
  draining (new work answers 503, ``/healthz`` reports it), stops
  accepting connections, waits up to ``drain_grace_s`` for in-flight
  requests to finish, then closes the engine (pool, cache, catalog).
  A second signal abandons the grace period.

``python -m repro serve`` is the CLI entry (see :func:`run`).
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import signal
import time
import uuid
from dataclasses import dataclass
from typing import Optional

from ..engine.engine import BatchEngine
from ..engine.scheduler import DeadlinePolicy
from ..obs import TraceConfig
from . import http
from .app import ServeApp
from .protocol import TenantTable

logger = logging.getLogger("repro.serve")

#: Default port; "8718" ≈ PODS'18, where the source paper appeared.
DEFAULT_PORT = 8718


@dataclass
class ServeConfig:
    """Everything ``repro serve`` needs to build and run a replica."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    workers: int = 1
    task_timeout: Optional[float] = None
    cache_dir: Optional[str] = None
    catalog: Optional[str] = None
    witness_store: Optional[str] = None
    #: Witness replay mode for the store: "exact", "structural", or "off".
    witness_replay: str = "structural"
    tenants_file: Optional[str] = None
    deadline_floor_s: float = 0.25
    drain_grace_s: float = 5.0
    heartbeat_s: float = 0.25
    allow_test_jobs: bool = False
    max_body: int = http.MAX_BODY
    #: Span tracing for served jobs: "off", "always", or "per-job"
    #: (sampled — every ``trace_sample``-th submission).  Traced
    #: decisions feed ``GET /v1/debug/profile``; ``max_traces`` bounds
    #: the engine's trace sink so a long-lived replica can't leak.
    trace_mode: str = "off"
    trace_sample: int = 10
    max_traces: int = 512

    def build_engine(self) -> BatchEngine:
        return BatchEngine(
            cache_dir=self.cache_dir,
            workers=self.workers,
            task_timeout=self.task_timeout,
            catalog=self.catalog,
            witness_store=self.witness_store,
            witness_replay=(
                self.witness_replay if self.witness_store else None
            ),
            deadline_policy=DeadlinePolicy(floor_s=self.deadline_floor_s),
            trace=(
                None
                if self.trace_mode == "off"
                else TraceConfig(
                    mode=self.trace_mode, sample_every=self.trace_sample
                )
            ),
            max_traces=self.max_traces,
        )

    def build_tenants(self) -> TenantTable:
        if self.tenants_file:
            return TenantTable.load(self.tenants_file)
        return TenantTable()


class ReproServer:
    """One serving replica: a socket, an app, and a drain protocol."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        *,
        engine: Optional[BatchEngine] = None,
        app: Optional[ServeApp] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self._owns_engine = engine is None and app is None
        if app is not None:
            self.app = app
        else:
            self.app = ServeApp(
                engine if engine is not None else self.config.build_engine(),
                self.config.build_tenants(),
                allow_test_jobs=self.config.allow_test_jobs,
                heartbeat_s=self.config.heartbeat_s,
            )
        self.port: Optional[int] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._active = 0
        self._idle: Optional[asyncio.Event] = None
        self._closed: Optional[asyncio.Event] = None
        self._rid_prefix = uuid.uuid4().hex[:6]
        self._rid = itertools.count(1)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; sets :attr:`port`."""
        self._idle = asyncio.Event()
        self._idle.set()
        self._closed = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_client,
            host=self.config.host,
            port=self.config.port,
            limit=http.MAX_REQUEST_LINE * 2,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info(
            "listening on %s:%s (workers=%d, deadline floor %.3fs)",
            self.config.host,
            self.port,
            self.app.engine.pool.workers,
            self.app.engine.scheduler.deadline_policy.floor_s,
        )

    async def wait_closed(self) -> None:
        """Block until :meth:`shutdown` has completed."""
        assert self._closed is not None, "server not started"
        await self._closed.wait()

    async def shutdown(self, *, drain: bool = True) -> None:
        """Stop accepting, drain in-flight requests, close the engine."""
        if self._closed is None or self._closed.is_set():
            return
        if self.app.draining:
            drain = False  # second signal: abandon the grace period
        self.app.draining = True
        logger.info(
            "shutdown: draining %d active connection(s)%s",
            self._active,
            "" if drain else " (no grace)",
        )
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain and self._active:
            try:
                await asyncio.wait_for(
                    self._idle.wait(), self.config.drain_grace_s
                )
            except asyncio.TimeoutError:
                logger.warning(
                    "drain grace of %.1fs expired with %d connection(s) "
                    "still active",
                    self.config.drain_grace_s,
                    self._active,
                )
        if self._owns_engine:
            # engine.close joins pool threads; keep the loop responsive.
            await asyncio.get_running_loop().run_in_executor(
                None, self.app.engine.close
            )
        self._closed.set()
        logger.info("shutdown complete")

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (second signal: immediate)."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(self.shutdown())
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-unix event loops

    async def run(self) -> None:
        """start → handle signals → serve until shutdown completes."""
        await self.start()
        self.install_signal_handlers()
        await self.wait_closed()

    # -- the connection handler -------------------------------------------

    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._active += 1
        self._idle.clear()
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            self._active -= 1
            if self._active == 0:
                self._idle.set()
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                request = await http.read_request(
                    reader, max_body=self.config.max_body
                )
            except http.ProtocolError as exc:
                self.app.metrics.counter("serve.http.bad_requests").inc()
                response = http.Response.error(
                    exc.status, exc.code, exc.message
                )
                await http.write_response(
                    writer, response, keep_alive=False
                )
                return
            if request is None:
                return
            rid = f"{self._rid_prefix}-{next(self._rid):06d}"
            started = time.perf_counter()
            response = await self.app.handle_request(request)
            persistent = await http.write_response(
                writer, response, keep_alive=request.keep_alive
            )
            elapsed = time.perf_counter() - started
            self.app.metrics.counter("serve.http.requests").inc()
            self.app.metrics.timer("serve.http.request_time").observe(elapsed)
            if response.status >= 500:
                self.app.metrics.counter("serve.http.errors").inc()
            logger.info(
                "rid=%s %s %s -> %d (%.1fms)",
                rid,
                request.method,
                request.path,
                response.status,
                elapsed * 1000.0,
            )
            if not persistent:
                return


def run(config: Optional[ServeConfig] = None) -> int:
    """Blocking entry point used by ``repro serve``."""
    server = ReproServer(config)
    try:
        asyncio.run(server.run())
    except KeyboardInterrupt:  # pragma: no cover - signal path covers this
        pass
    return 0
