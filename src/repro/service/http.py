"""Asyncio front end for the audit daemon's HTTP API.

A single-threaded ``asyncio`` reactor multiplexes every connection and
keeps them alive between requests (connection pooling on the client side
costs nothing when the server honours keep-alive).  Two invariants:

* **One surface** — only ``/v1`` is routed, and every error the daemon
  sends, connection-level replies included, is the envelope
  ``{"error": {"code", "message", "detail"}}``; any other path answers
  404 ``not_found``.  All routing lives in :func:`dispatch`, a pure
  function from ``(method, target, body)`` to ``(status, payload)`` —
  trivially testable without a socket.
* **Non-blocking reactor** — route handlers can block (``submit`` waits
  on a journal fsync), so :func:`dispatch` runs on a bounded thread pool
  via ``run_in_executor`` while the event loop keeps accepting and
  parsing other connections.  Submit/status round-trips therefore never
  queue behind a slow peer's socket.

The server object exposes a tiny surface (``server_address`` /
``serve_forever`` / ``shutdown`` / ``server_close``) that
:class:`~repro.service.server.AuditService` drives from its own thread.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from http import HTTPStatus
from urllib.parse import parse_qsl, urlsplit

from repro.exceptions import JobRejectedError, ServiceError

__all__ = ["AsyncHTTPServer", "dispatch", "REJECTION_STATUS"]

#: Typed rejection reason → HTTP status.
REJECTION_STATUS = {
    "queue_full": 429,
    "rate_limited": 429,
    "duplicate_id": 409,
    "invalid_spec": 400,
    "shutting_down": 503,
    "degraded": 503,
}

#: Upper bound on a request head (request line + headers).
_MAX_HEAD_BYTES = 64 * 1024
#: Upper bound on a request body we are willing to buffer.
_MAX_BODY_BYTES = 64 * 1024 * 1024


# --------------------------------------------------------------------- routing


def _error(status: int, code: str, message: str):
    """The one error shape: ``{"error": {"code", "message", "detail"}}``."""
    return status, {"error": {"code": code, "message": message, "detail": None}}


def _rejection(exc: JobRejectedError):
    return _error(REJECTION_STATUS.get(exc.reason, 400), exc.reason, str(exc))


def _jobs_query(query: str) -> dict:
    """Parse/validate ``GET /v1/jobs`` filters; raises ServiceError on junk."""
    allowed = {"state", "kind", "tenant", "limit"}
    filters: dict = {}
    for key, value in parse_qsl(query, keep_blank_values=True):
        if key not in allowed:
            raise ServiceError(
                f"unknown query parameter {key!r}; allowed: {sorted(allowed)}"
            )
        filters[key] = value
    if "limit" in filters:
        try:
            filters["limit"] = int(filters["limit"])
        except ValueError as exc:
            raise ServiceError(f"limit must be an integer: {exc}") from exc
        if filters["limit"] < 1:
            raise ServiceError(f"limit must be >= 1, got {filters['limit']}")
    return filters


def dispatch(service, method: str, target: str, body: bytes):
    """Route one request; returns ``(status, json_payload)``.

    ``target`` is the raw request target (path + optional query string);
    ``body`` the raw request body.  Never raises for client errors — they
    come back as the error envelope.  Paths outside ``/v1`` are 404.
    """
    parts = urlsplit(target)
    path = parts.path
    if not path.startswith("/v1/"):
        return _error(404, "not_found", f"unknown path {path!r}")
    route = path[len("/v1"):]

    def read_json():
        try:
            return json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            raise _BadBody(f"invalid JSON body: {exc}") from exc

    try:
        if method == "GET":
            return _dispatch_get(service, route, parts.query, path)
        if method == "POST":
            return _dispatch_post(service, route, read_json, path)
    except _BadBody as exc:
        return _error(400, "invalid_spec", str(exc))
    return _error(404, "not_found", f"unknown path {path!r}")


class _BadBody(Exception):
    """Request body failed to parse as JSON."""


def _dispatch_get(service, route: str, query: str, path: str):
    if route == "/healthz":
        return 200, service.health()
    if route == "/metrics":
        return 200, service.metrics.as_dict()
    if route == "/jobs":
        try:
            filters = _jobs_query(query)
            jobs = service.jobs_snapshot(**filters)
        except ServiceError as exc:
            return _error(400, "invalid_spec", str(exc))
        return 200, {"jobs": jobs}
    if route.startswith("/jobs/"):
        try:
            record = service.record(route[len("/jobs/"):])
        except ServiceError as exc:
            return _error(404, "not_found", str(exc))
        return 200, {"job": record.as_dict()}
    if route == "/populations":
        return 200, {"populations": service.monitors_snapshot()}
    if route.startswith("/populations/"):
        segments = route.strip("/").split("/")
        try:
            if len(segments) == 2:
                return 200, service.monitor(segments[1]).as_dict()
            if len(segments) == 3 and segments[2] == "series":
                return 200, {"series": service.monitor_series(segments[1])}
        except ServiceError as exc:
            return _error(404, "not_found", str(exc))
    return _error(404, "not_found", f"unknown path {path!r}")


def _dispatch_post(service, route: str, read_json, path: str):
    if route == "/jobs/batch":
        # Bulk submit: one request, one group-committed journal fsync,
        # per-item acceptance (a batch can be partially rejected).
        payload = read_json()
        jobs = payload.get("jobs") if isinstance(payload, dict) else None
        if not isinstance(jobs, list) or not jobs:
            return _error(400, "invalid_spec", "body must be {'jobs': [spec, ...]}")
        results = []
        accepted = 0
        for outcome in service.submit_many(jobs):
            if isinstance(outcome, JobRejectedError):
                results.append(
                    {"error": {"code": outcome.reason, "message": str(outcome)}}
                )
            else:
                accepted += 1
                results.append({"job": outcome.as_dict()})
        return 202, {
            "accepted": accepted,
            "rejected": len(results) - accepted,
            "results": results,
        }
    if route == "/jobs":
        payload = read_json()
        try:
            record = service.submit(payload)
        except JobRejectedError as exc:
            return _rejection(exc)
        return 202, {"job": record.as_dict()}
    if route == "/populations":
        payload = read_json()
        try:
            summary = service.create_monitor(payload)
        except JobRejectedError as exc:
            return _rejection(exc)
        return 201, summary
    if route.startswith("/populations/"):
        segments = route.strip("/").split("/")
        if len(segments) != 3 or segments[2] != "mutations":
            return _error(404, "not_found", f"unknown path {path!r}")
        payload = read_json()
        if isinstance(payload, dict):
            payload = payload.get("mutations", payload)
        try:
            info = service.apply_mutations(segments[1], payload)
        except JobRejectedError as exc:
            return _rejection(exc)
        except ServiceError as exc:
            return _error(404, "not_found", str(exc))
        return 202, info
    return _error(404, "not_found", f"unknown path {path!r}")


# ---------------------------------------------------------------------- server


def _render(status: int, payload: dict, keep_alive: bool) -> bytes:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    head = [
        f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
    ]
    if not keep_alive:
        head.append("Connection: close")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


async def _refuse(writer, status: int, code: str, message: str) -> None:
    """Answer a request the connection cannot serve; the caller closes it."""
    writer.write(_render(*_error(status, code, message), keep_alive=False))
    await writer.drain()


class AsyncHTTPServer:
    """The daemon's HTTP listener: one event loop for every connection.

    The listening socket is bound in the constructor (so
    ``server_address`` is immediately valid, and ``port=0`` resolves to a
    real ephemeral port before any thread starts); the event loop runs
    inside :meth:`serve_forever`, which the daemon calls on a dedicated
    thread.  ``shutdown`` is thread-safe and idempotent.
    """

    def __init__(
        self,
        service,
        host: str,
        port: int,
        request_timeout: "float | None" = 30.0,
        chaos=None,
    ) -> None:
        self._service = service
        self._socket = socket.create_server((host, port))
        self.server_address = self._socket.getsockname()[:2]
        self._executor = ThreadPoolExecutor(thread_name_prefix="audit-http")
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._stop: "asyncio.Event | None" = None
        self._started = threading.Event()
        self._closed = False
        #: Total head+body deadline per request (None disables); a peer
        #: that trickles bytes slower than this gets a 408 and the socket
        #: back — one slow-loris client cannot pin reactor buffers open.
        self._request_timeout = request_timeout
        #: Optional :class:`repro.chaos.NetFaults` schedule — injected
        #: response-side faults (reset/truncate/stall/close), deterministic
        #: per response index so a seeded run replays the same carnage.
        self._chaos = chaos if chaos is not None and chaos.enabled else None
        self._responses = 0

    def serve_forever(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(
            self._serve_connection, sock=self._socket, limit=_MAX_HEAD_BYTES
        )
        self._started.set()
        async with server:
            await self._stop.wait()

    def shutdown(self) -> None:
        """Stop accepting and unwind the loop (callable from any thread)."""
        if not self._started.wait(timeout=10):  # pragma: no cover - startup race
            return
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and loop.is_running():
            loop.call_soon_threadsafe(stop.set)

    def server_close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=False)
        try:
            self._socket.close()
        except OSError:  # pragma: no cover - already closed by the loop
            pass

    def _metric(self, name: str, value: float = 1) -> None:
        metrics = getattr(self._service, "metrics", None)
        if metrics is not None:
            metrics.inc(name, value)

    async def _serve_connection(self, reader, writer) -> None:
        """One keep-alive connection: parse → dispatch off-loop → respond.

        Every request gets a single deadline covering both the head and
        body reads (``request_timeout``); a peer that stalls mid-head or
        trickles its body (slow loris) is answered with 408 and
        disconnected.  The same 408-then-close answers an idle keep-alive
        connection that outlives the deadline — RFC 9110 blesses 408 as
        the "close your idle connection" signal, and clients retry it on
        a fresh connection.
        """
        loop = asyncio.get_running_loop()
        timeout = self._request_timeout
        try:
            while True:
                deadline = loop.time() + timeout if timeout is not None else None
                try:
                    head = await asyncio.wait_for(
                        reader.readuntil(b"\r\n\r\n"), timeout
                    )
                except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
                    break  # EOF between requests, or an oversized head
                except asyncio.TimeoutError:
                    self._metric("service.request_timeouts")
                    await _refuse(writer, 408, "request_timeout", "request timed out")
                    break
                request = self._parse_head(head)
                if request is None:
                    await _refuse(writer, 400, "bad_request", "malformed request")
                    break
                method, target, length, keep_alive = request
                if length > _MAX_BODY_BYTES:
                    await _refuse(
                        writer, 413, "body_too_large", "request body too large"
                    )
                    break
                try:
                    if length:
                        remaining = (
                            None if deadline is None
                            else max(0.001, deadline - loop.time())
                        )
                        body = await asyncio.wait_for(
                            reader.readexactly(length), remaining
                        )
                    else:
                        body = b""
                except asyncio.TimeoutError:
                    self._metric("service.request_timeouts")
                    await _refuse(writer, 408, "request_timeout", "request timed out")
                    break
                status, payload = await loop.run_in_executor(
                    self._executor, dispatch, self._service, method, target, body
                )
                if self._chaos is not None:
                    keep_alive, finished = await self._inject_response_chaos(
                        writer, status, payload, keep_alive
                    )
                    if not finished:
                        break
                else:
                    writer.write(_render(status, payload, keep_alive))
                    await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer went away mid-request; nothing was acknowledged
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _inject_response_chaos(
        self, writer, status: int, payload: dict, keep_alive: bool
    ) -> "tuple[bool, bool]":
        """Write one response through the network fault plane.

        Returns ``(keep_alive, finished)``; ``finished=False`` means the
        connection was deliberately wrecked (reset mid-body or truncated)
        and the caller must stop serving it.  Faults are injected strictly
        *after* dispatch — the service processed the request, only the
        client's view of the outcome is damaged, which is exactly the
        partial-failure shape retrying clients must survive.
        """
        chaos = self._chaos
        metrics = getattr(self._service, "metrics", None)
        self._responses += 1
        key = f"resp-{self._responses}"
        if chaos.fire("stall", key, metrics):
            await asyncio.sleep(chaos.stall_seconds)
        if keep_alive and chaos.fire("close", key, metrics):
            keep_alive = False  # keep-alive churn: force a reconnect
        data = _render(status, payload, keep_alive)
        if chaos.fire("reset", key, metrics):
            # Connection reset mid-body: half the bytes, then RST.
            writer.write(data[: max(1, len(data) // 2)])
            with contextlib.suppress(OSError):
                await writer.drain()
            writer.transport.abort()
            return False, False
        if chaos.fire("truncate", key, metrics):
            # Truncated response: full headers (full Content-Length
            # declared), half the body, then a clean FIN.
            head_end = data.index(b"\r\n\r\n") + 4
            body_len = len(data) - head_end
            writer.write(data[: len(data) - max(1, body_len // 2)])
            with contextlib.suppress(OSError):
                await writer.drain()
            return False, False
        writer.write(data)
        await writer.drain()
        return keep_alive, True

    @staticmethod
    def _parse_head(head: bytes):
        """``(method, target, content_length, keep_alive)``, or None if
        malformed (a ``Content-Length`` that is not a decimal integer
        included)."""
        request_line, _, header_block = head.partition(b"\r\n")
        pieces = request_line.decode("latin-1").split()
        if len(pieces) != 3:
            return None
        method, target, version = pieces
        headers: "dict[str, str]" = {}
        for line in header_block.decode("latin-1").split("\r\n"):
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                return None
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length", "0")
        if not (length.isascii() and length.isdigit()):
            return None
        connection = headers.get("connection", "").lower()
        keep_alive = connection != "close" and (
            version != "HTTP/1.0" or connection == "keep-alive"
        )
        return method, target, int(length), keep_alive
