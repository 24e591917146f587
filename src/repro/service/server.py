"""A stdlib-asyncio HTTP/JSON front end over :class:`DaisyService`.

Deliberately thin: a hand-rolled HTTP/1.1 parser over
``asyncio.start_server`` (no new dependencies), two endpoints, one wire
format (:mod:`repro.service.requests`):

* ``POST /v1/requests`` — body is one ``ServiceRequest.to_wire()`` JSON
  object; the connection waits until the scheduler resolves the request
  and answers with the canonical ``ServiceResponse`` encoding (the same
  bytes the parity suite compares).
* ``GET /v1/status`` — the service's status surface: per-table epochs and
  matrix visibility, admission counters, queue pressure.

The event loop never blocks on the engine: ``DaisyService.submit``
returns a ``concurrent.futures.Future`` resolved by the worker threads,
bridged with ``asyncio.wrap_future`` so thousands of in-flight requests
multiplex over one loop thread.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from repro.service.requests import ServiceRequest, canonical_encode
from repro.service.scheduler import DaisyService

__all__ = ["ServiceServer"]

_MAX_BODY_BYTES = 16 * 1024 * 1024
#: Longest request or header line the server reads (asyncio's default
#: stream limit, made explicit so the error bodies can name it).
_MAX_LINE_BYTES = 64 * 1024


def _http_response(status: str, body: bytes) -> bytes:
    head = (
        f"HTTP/1.1 {status}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode() + body


def _error_body(message: str) -> bytes:
    return canonical_encode({"error": message})


class ServiceServer:
    """Serve one :class:`DaisyService` over HTTP on ``host:port``.

    ``port=0`` binds an ephemeral port; :meth:`start` returns the bound
    address.  The server owns neither the service nor the engine — stop
    the server first, then the service, then close the engine.
    """

    def __init__(
        self, service: DaisyService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=_MAX_LINE_BYTES
        )
        sockname = self._server.sockets[0].getsockname()
        self.port = sockname[1]
        return self.host, self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling -------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            response = await self._respond(reader)
        except Exception as exc:  # daisylint: disable=DL005
            # Deliberate breadth: a malformed connection must answer 500
            # (with the exception surfaced in the body) rather than kill
            # the acceptor loop; engine invariants are enforced below the
            # service boundary, not by crashing the socket handler.
            response = _http_response(
                "500 Internal Server Error",
                _error_body(f"{type(exc).__name__}: {exc}"),
            )
        try:
            writer.write(response)
            await writer.drain()
        finally:
            writer.close()

    async def _respond(self, reader: asyncio.StreamReader) -> bytes:
        try:
            request_line = (await reader.readline()).decode("latin-1").strip()
        except ValueError:  # the line overran the stream limit
            return _http_response(
                "400 Bad Request",
                _error_body(f"request line longer than {_MAX_LINE_BYTES} bytes"),
            )
        if not request_line:
            return _http_response("400 Bad Request", _error_body("empty request"))
        parts = request_line.split()
        if len(parts) != 3:
            return _http_response(
                "400 Bad Request", _error_body(f"malformed request line {request_line!r}")
            )
        method, path, _version = parts
        headers: dict[str, str] = {}
        while True:
            try:
                line = (await reader.readline()).decode("latin-1").strip()
            except ValueError:
                return _http_response(
                    "431 Request Header Fields Too Large",
                    _error_body(f"header line longer than {_MAX_LINE_BYTES} bytes"),
                )
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0")
        if not (raw_length.isascii() and raw_length.isdigit()):
            return _http_response(
                "400 Bad Request", _error_body(f"invalid Content-Length {raw_length!r}")
            )
        length = int(raw_length)
        if length > _MAX_BODY_BYTES:
            return _http_response(
                "413 Payload Too Large", _error_body("request body too large")
            )
        try:
            body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError as exc:
            # The client closed before sending the body it announced.
            return _http_response(
                "400 Bad Request",
                _error_body(
                    f"request body ended after {len(exc.partial)} of {length} bytes"
                ),
            )

        if method == "POST" and path == "/v1/requests":
            return await self._handle_request(body)
        if method == "GET" and path == "/v1/status":
            return _http_response("200 OK", canonical_encode(self.service.status()))
        return _http_response(
            "404 Not Found", _error_body(f"no route for {method} {path}")
        )

    async def _handle_request(self, body: bytes) -> bytes:
        try:
            data: Any = json.loads(body.decode())
            request = ServiceRequest.from_wire(data)
        except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
            return _http_response(
                "400 Bad Request", _error_body(f"{type(exc).__name__}: {exc}")
            )
        future = self.service.submit(request)
        response = await asyncio.wrap_future(future)
        status = "200 OK" if response.status != "shed" else "429 Too Many Requests"
        return _http_response(status, response.encode())
