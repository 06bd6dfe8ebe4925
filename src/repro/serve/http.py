"""Minimal HTTP/1.1 plumbing for the serving front-end.

A deliberately small, dependency-free layer over ``asyncio`` streams: parse
one request (request line, headers, ``Content-Length`` body) into a
:class:`Request`, encode a :class:`Response` back out, nothing more.  It
supports exactly what the JSON API under :mod:`repro.serve.app` needs —
``GET``/``POST``, keep-alive connections, bounded header/body sizes — and
rejects everything else with a clean status code instead of guessing.

``http.server`` is avoided on purpose: its threading model would put one OS
thread behind every connection, while the asyncio front-end keeps thousands
of idle keep-alive connections cheap and pushes the actual simulation work
onto background threads only when a request is cache-cold.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Callable
from urllib.parse import unquote

#: Reason phrases for every status the app emits.
REASONS = {
    200: "OK",
    202: "Accepted",
    304: "Not Modified",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Request-line methods the router understands at all.
ALLOWED_METHODS = ("GET", "POST")

#: Upper bounds keeping a hostile or confused client from ballooning memory.
MAX_HEADER_COUNT = 100
MAX_BODY_BYTES = 1 << 20  # 1 MiB — a SweepSpec record is a few hundred bytes

#: Body bound for the one route that accepts fabric work uploads: a
#: ``/v1/work/complete`` payload carries a chunk's pickled result records
#: (base64-inflated), which can legitimately run to megabytes on full-scale
#: sweeps.  Every other route still parses tiny JSON records and keeps the
#: 1 MiB bound — see :func:`body_bound_for_path`.
WORK_MAX_BODY_BYTES = 64 << 20


def body_bound_for_path(path: str) -> int:
    """Per-route request-body bound for listeners carrying fabric routes.

    Only ``/v1/work/complete`` may carry a large upload; holding every other
    route at :data:`MAX_BODY_BYTES` keeps the big bound from widening the
    memory exposure of the whole surface (bodies are read fully into memory).
    """
    if path.rstrip("/") == "/v1/work/complete":
        return WORK_MAX_BODY_BYTES
    return MAX_BODY_BYTES


class HttpError(Exception):
    """A malformed request, reportable with a specific status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    #: Percent-decoded path, query string stripped (e.g. ``/v1/figure/fig12``).
    path: str
    #: Header name (lowercased) -> value.
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def wants_close(self) -> bool:
        """Whether the client asked to drop the connection after this reply."""
        return self.headers.get("connection", "").lower() == "close"


@dataclass
class Response:
    """One response about to be encoded onto the wire."""

    status: int = 200
    body: bytes = b""
    #: Extra headers (``ETag``, ``Location``, telemetry) beyond the
    #: content/framing ones :func:`encode_response` always emits.
    headers: dict[str, str] = field(default_factory=dict)
    content_type: str = "application/json; charset=utf-8"


async def read_request(
    reader: asyncio.StreamReader,
    *,
    max_body: int | Callable[[str], int] = MAX_BODY_BYTES,
) -> Request | None:
    """Parse one request off the stream; ``None`` on clean end-of-stream.

    Raises :class:`HttpError` for anything malformed — the connection
    handler reports the status and closes, which is the correct recovery
    for a framing error (the stream position is no longer trustworthy).
    ``max_body`` is the ``413`` bound: an integer, or a callable mapping the
    percent-decoded request path to a bound (listeners carrying fabric
    result uploads pass :func:`body_bound_for_path` so only the upload
    route admits large bodies).
    """
    try:
        line = await reader.readline()
    except (ValueError, asyncio.LimitOverrunError):
        raise HttpError(431, "request line too long") from None
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise HttpError(400, "malformed request line")
    method, target, _version = parts

    headers: dict[str, str] = {}
    while True:
        try:
            raw = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            raise HttpError(431, "header line too long") from None
        if raw in (b"\r\n", b"\n"):
            break
        if not raw:
            raise HttpError(400, "truncated headers")
        name, colon, value = raw.decode("latin-1").partition(":")
        if not colon:
            raise HttpError(400, "malformed header")
        headers[name.strip().lower()] = value.strip()
        if len(headers) > MAX_HEADER_COUNT:
            raise HttpError(431, "too many headers")

    if "transfer-encoding" in headers:
        # Only Content-Length framing is implemented.  Silently ignoring a
        # chunked body would leave its bytes on the stream to be misread as
        # the next request — the request-smuggling desync class.
        raise HttpError(400, "Transfer-Encoding is not supported; use Content-Length")
    path, _sep, _query = target.partition("?")
    path = unquote(path)
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise HttpError(400, "malformed Content-Length") from None
        if length < 0:
            raise HttpError(400, "malformed Content-Length")
        bound = max_body(path) if callable(max_body) else max_body
        if length > bound:
            raise HttpError(413, f"body larger than {bound} bytes")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "truncated body") from None

    return Request(method=method, path=path, headers=headers, body=body)


#: Longest a connection closing on a request error keeps draining its input.
LINGER_SECONDS = 2.0


async def discard_input(reader: asyncio.StreamReader) -> None:
    """Read and drop what the client is still sending, for a bounded time.

    Called after the error response of a rejected request (a ``413`` leaves
    the oversized body unread) and before the close: closing a socket with
    unread input makes the kernel send a reset, which can fail the client's
    upload before it ever reads the response.  Returns at end-of-stream (the
    client read the response and hung up) or after :data:`LINGER_SECONDS`.
    """
    try:
        async with asyncio.timeout(LINGER_SECONDS):
            while await reader.read(1 << 16):
                pass
    except (TimeoutError, ConnectionError):
        pass


def encode_response(response: Response, *, keep_alive: bool) -> bytes:
    """Serialize one response, with framing and connection headers."""
    reason = REASONS.get(response.status, "Unknown")
    lines = [f"HTTP/1.1 {response.status} {reason}"]
    if response.status != 304:
        lines.append(f"Content-Type: {response.content_type}")
        lines.append(f"Content-Length: {len(response.body)}")
    lines.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
    for name, value in response.headers.items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    # A 304 carries headers only (RFC 9110 §15.4.5) — the body the client
    # already holds is, by the ETag contract, byte-identical.
    return head if response.status == 304 else head + response.body
