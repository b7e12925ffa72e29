"""The client for the serving tier (stdlib only, like the server).

:class:`ServeClient` is blocking, built on
:class:`http.client.HTTPConnection`; the CLI (``repro submit --url``),
the serving benchmark and the tests use it.  It raises
:class:`ServeError` on protocol-level errors (4xx/5xx with the server's
``{"error": {code, message}}`` body attached), keeps one connection
alive across calls, and exposes the SSE stream of a job as an iterator
of ``(event, document)`` pairs.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from . import http as wire


class ServeError(Exception):
    """A non-2xx response from the server."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(f"{status} {code}: {message}")
        self.status = status
        self.code = code
        self.message = message


def _raise_for(status: int, doc: Any) -> None:
    if 200 <= status < 300:
        return
    error = doc.get("error", {}) if isinstance(doc, dict) else {}
    raise ServeError(
        status,
        error.get("code", "error"),
        error.get("message", f"HTTP {status}"),
    )


def _parse_sse(buffer: str) -> Tuple[List[Tuple[str, dict]], str]:
    """Split complete SSE frames off *buffer*; returns (events, rest)."""
    events: List[Tuple[str, dict]] = []
    while "\n\n" in buffer:
        frame, buffer = buffer.split("\n\n", 1)
        event, data = "message", ""
        for line in frame.splitlines():
            if line.startswith("event:"):
                event = line[len("event:"):].strip()
            elif line.startswith("data:"):
                data += line[len("data:"):].strip()
        if data:
            events.append((event, json.loads(data)))
    return events, buffer


class ServeClient:
    """A blocking client speaking the ``/v1`` protocol."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8718,
        *,
        timeout: float = 30.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    @classmethod
    def from_url(cls, url: str, **kwargs) -> "ServeClient":
        """``http://host:port`` (scheme and port optional)."""
        rest = url.split("://", 1)[-1].rstrip("/")
        host, _, port = rest.partition(":")
        return cls(host or "127.0.0.1", int(port) if port else 8718, **kwargs)

    # -- plumbing ----------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def request(
        self,
        method: str,
        path: str,
        doc: Optional[dict] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Any:
        """One round trip; returns the decoded JSON body."""
        body = json.dumps(doc).encode("utf-8") if doc is not None else None
        send_headers = {"Accept": "application/json"}
        if body is not None:
            send_headers["Content-Type"] = "application/json"
        send_headers.update(headers or {})
        for attempt in (0, 1):  # one retry on a dropped keep-alive socket
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=send_headers)
                response = conn.getresponse()
                payload = response.read()
                break
            except (http.client.HTTPException, OSError):
                self.close()
                if attempt:
                    raise
        try:
            decoded = json.loads(payload.decode("utf-8")) if payload else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            decoded = {"raw": payload.decode("utf-8", "replace")}
        _raise_for(response.status, decoded)
        return decoded

    # -- the protocol ------------------------------------------------------

    def submit(self, doc: dict) -> dict:
        """POST one job document; returns the job record."""
        return self.request("POST", "/v1/jobs", doc)

    def submit_batch(self, jobs: List[dict]) -> List[dict]:
        return self.request("POST", "/v1/batch", {"jobs": jobs})["jobs"]

    def job(self, job_id: str) -> dict:
        return self.request("GET", f"/v1/jobs/{job_id}")

    def cancel(self, job_id: str) -> dict:
        return self.request("DELETE", f"/v1/jobs/{job_id}")

    def wait(self, job_id: str, timeout: float = 60.0) -> dict:
        """The job's record once it is done: read off its SSE stream at
        the ``result`` frame.  Raises :class:`TimeoutError` once
        *timeout* seconds have passed in all — the server's heartbeat
        frames keep the socket busy, so the check runs on every frame.
        """
        deadline = time.monotonic() + timeout
        for event, doc in self.stream(job_id, timeout=timeout):
            if event == "result":
                return doc
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still pending after {timeout}s"
                )
        raise ServeError(0, "eof", f"stream of job {job_id} ended early")

    def run(self, doc: dict, timeout: float = 60.0) -> dict:
        """Submit and wait — the one-call convenience most callers want."""
        record = self.submit(doc)
        if record.get("state") == "done":
            return record
        return self.wait(record["id"], timeout=timeout)

    def health(self) -> dict:
        return self.request("GET", "/healthz")

    def metrics(self) -> dict:
        return self.request("GET", "/metrics")

    def metrics_prometheus(self) -> str:
        """The Prometheus text rendering of ``/metrics``."""
        conn = self._connection()
        conn.request(
            "GET", "/metrics?format=prometheus",
            headers={"Accept": "text/plain"},
        )
        response = conn.getresponse()
        payload = response.read().decode("utf-8")
        if response.status != 200:
            raise ServeError(response.status, "metrics", payload[:200])
        return payload

    def debug_profile(self) -> dict:
        """Live latency/profile telemetry (``GET /v1/debug/profile``)."""
        return self.request("GET", "/v1/debug/profile")

    def tenants(self) -> dict:
        return self.request("GET", "/v1/tenants")["tenants"]

    def set_tenants(self, tenants: Dict[str, dict]) -> dict:
        return self.request("PUT", "/v1/tenants", {"tenants": tenants})[
            "tenants"
        ]

    def stream(
        self, job_id: str, timeout: float = 60.0
    ) -> Iterator[Tuple[str, dict]]:
        """Iterate the SSE frames of a job until its ``result`` event.

        Uses a dedicated socket — the server close-frames streams, so the
        keep-alive connection is left untouched.
        """
        with socket.create_connection(
            (self.host, self.port), timeout=timeout
        ) as sock:
            request = (
                f"GET /v1/jobs/{job_id}/stream HTTP/1.1\r\n"
                f"Host: {self.host}\r\n"
                "Accept: text/event-stream\r\n"
                "Connection: close\r\n\r\n"
            )
            sock.sendall(request.encode("ascii"))
            buffer = b""
            while b"\r\n\r\n" not in buffer:
                chunk = sock.recv(4096)
                if not chunk:
                    raise ServeError(0, "eof", "connection closed in headers")
                buffer += chunk
            head, _, rest = buffer.partition(b"\r\n\r\n")
            status = int(head.split(None, 2)[1])
            if status != 200:
                raise ServeError(status, "stream", head.decode("latin-1"))
            text = rest.decode("utf-8")
            while True:
                events, text = _parse_sse(text)
                for event, doc in events:
                    yield event, doc
                    if event == "result":
                        return
                chunk = sock.recv(4096)
                if not chunk:
                    return
                text += chunk.decode("utf-8")


# Re-exported so callers can catch the server-side error type when
# embedding the app without a socket (unit tests, notebooks).
ProtocolError = wire.ProtocolError
