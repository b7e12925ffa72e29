"""repro.serve — containment-as-a-service.

A long-lived asyncio HTTP front-end over the batch engine: multi-tenant
job submission with per-tenant fair-share weights and priority classes,
deadline-aware graceful degradation (catalog → cache → UNKNOWN with
reason ``"deadline"``), Server-Sent Events streaming, and a unified
``/metrics`` endpoint (JSON and Prometheus text).

Layering::

    http.py      minimal HTTP/1.1 over asyncio streams (no deps)
    protocol.py  the versioned JSON wire schema + tenant policies
    app.py       the router: job table, handlers, SSE, accounting
    server.py    lifecycle: bind, keep-alive loop, drain-on-SIGTERM
    client.py    a blocking client over the same protocol

Start a replica with ``repro serve``; talk to it with
``repro submit --url`` or :class:`ServeClient`.
"""

from .app import ServeApp
from .client import ServeClient, ServeError
from .http import ProtocolError, Request, Response
from .protocol import (
    PROTOCOL_VERSION,
    JobSpec,
    TenantPolicy,
    TenantTable,
    parse_job_spec,
)
from .server import DEFAULT_PORT, ReproServer, ServeConfig, run

__all__ = [
    "DEFAULT_PORT",
    "JobSpec",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ReproServer",
    "Request",
    "Response",
    "ServeApp",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "TenantPolicy",
    "TenantTable",
    "parse_job_spec",
    "run",
]
