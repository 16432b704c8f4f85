"""Minimal HTTP/1.1 on asyncio streams — just enough for the front door.

The service deliberately speaks plain stdlib HTTP (``asyncio.start_server``
plus this parser) instead of pulling in a framework, matching the
package's sqlite3/multiprocessing discipline: no new runtime
dependencies, and every byte on the wire is accounted for.

Scope (all the front door needs, nothing more):

* request parsing with hard limits — header block capped at
  ``max_header_bytes`` (431 beyond it), body capped at
  ``max_body_bytes`` (413 beyond it, connection closed since the unread
  payload cannot be trusted), ``Content-Length`` framing only
  (chunked uploads get 501; a non-digit or repeated length gets 400);
* JSON responses with explicit ``Content-Length`` and keep-alive
  handling (HTTP/1.1 persistent by default, ``Connection: close``
  honored, HTTP/1.0 closed by default);
* :class:`HttpError` — the one error channel: handlers raise it with a
  status, a message, and (for validation failures) the offending field
  name, mirroring :class:`~repro.core.errors.ConfigError` semantics so
  API clients always learn *which* knob was wrong.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

#: default cap on one request's header block (request line included)
MAX_HEADER_BYTES = 16 * 1024

#: default cap on one request body
MAX_BODY_BYTES = 8 * 1024 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Content Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """One HTTP-visible failure: status, message, optional field name.

    ``field`` names the query parameter / body field the message is
    about (the :class:`~repro.core.errors.ConfigError` convention
    carried onto the wire); ``headers`` adds response headers such as
    ``Retry-After``; ``close`` forces the connection shut after the
    error is written (set for framing errors, where the remaining
    stream bytes cannot be re-synchronized).
    """

    def __init__(
        self,
        status: int,
        message: str,
        field: Optional[str] = None,
        headers: Tuple[Tuple[str, str], ...] = (),
        close: bool = False,
    ):
        self.status = int(status)
        self.message = str(message)
        self.field = field
        self.headers = tuple(headers)
        self.close = bool(close)
        prefix = f"{field}: " if field else ""
        super().__init__(f"{status} {prefix}{message}")

    def payload(self) -> dict:
        """The JSON error body every failed request carries."""
        error = {"status": self.status, "message": self.message}
        if self.field is not None:
            error["field"] = self.field
        return {"error": error}


@dataclass(frozen=True)
class Request:
    """One parsed request, ready for routing."""

    method: str
    path: str
    #: decoded query parameters, each name mapped to its value list
    query: Dict[str, List[str]] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    keep_alive: bool = True

    def param(self, name: str) -> Optional[str]:
        """The parameter's single value; 400 when it was repeated."""
        values = self.query.get(name)
        if values is None:
            return None
        if len(values) != 1:
            raise HttpError(
                400, f"parameter given {len(values)} times; give it once",
                field=name,
            )
        return values[0]

    def json(self) -> dict:
        """The body decoded as a JSON object; 400 when it is not one."""
        try:
            payload = json.loads(self.body)
        except (ValueError, UnicodeDecodeError):
            raise HttpError(
                400, "body must be a JSON object", field="body"
            ) from None
        except RecursionError:
            # Nesting deep enough to exhaust the decoder's stack is hostile
            # input, not a server fault.
            raise HttpError(
                400, "body nests too deeply to decode", field="body"
            ) from None
        if not isinstance(payload, dict):
            raise HttpError(
                400, "body must be a JSON object", field="body"
            )
        return payload


async def read_request(
    reader: asyncio.StreamReader,
    max_header_bytes: int = MAX_HEADER_BYTES,
    max_body_bytes: int = MAX_BODY_BYTES,
) -> Optional[Request]:
    """Read one request off the stream; None on a clean end-of-stream.

    Raises :class:`HttpError` for anything malformed or over a limit —
    the caller writes the error response and, when ``error.close`` says
    so, drops the connection.  The reader's own ``limit`` must be at
    least ``max_header_bytes`` (``serve`` passes it to
    ``asyncio.start_server``).
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as eof:
        if not eof.partial.strip():
            return None  # clean close between requests
        raise HttpError(
            400, "connection closed mid-request", close=True
        ) from None
    except asyncio.LimitOverrunError:
        raise HttpError(
            431, f"header block exceeds {max_header_bytes} bytes",
            close=True,
        ) from None
    if len(head) > max_header_bytes:
        raise HttpError(
            431, f"header block exceeds {max_header_bytes} bytes",
            close=True,
        )
    try:
        lines = head.decode("latin-1").split("\r\n")
        method, target, version = lines[0].split(" ", 2)
    except ValueError:
        raise HttpError(400, "malformed request line", close=True) from None
    if not version.startswith("HTTP/1."):
        raise HttpError(
            501, f"unsupported protocol {version!r}", close=True
        )
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, separator, value = line.partition(":")
        if not separator:
            raise HttpError(400, f"malformed header {line!r}", close=True)
        name = name.strip().lower()
        if name == "content-length" and name in headers:
            # RFC 9112 section 6.3: conflicting or repeated lengths leave
            # the body's end ambiguous — a framing error, not last-wins.
            raise HttpError(
                400, "repeated Content-Length header", close=True
            )
        headers[name] = value.strip()

    if "transfer-encoding" in headers:
        raise HttpError(
            501, "chunked request bodies are not supported; send "
            "Content-Length-framed JSON", close=True,
        )
    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        try:
            # ASCII digits only: int() alone would also take "+13", "1_3"
            # and non-ASCII digits, none of which is a valid length.
            if not (length_text.isascii() and length_text.isdigit()):
                raise ValueError
            length = int(length_text)  # raises past 4300 digits
        except ValueError:
            raise HttpError(
                400, f"invalid Content-Length {length_text!r}", close=True
            ) from None
        if length > max_body_bytes:
            raise HttpError(
                413,
                f"body of {length} bytes exceeds the {max_body_bytes}-byte "
                f"limit; split the report batch",
                close=True,
            )
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise HttpError(
                    400, "connection closed mid-body", close=True
                ) from None
    elif method.upper() in ("POST", "PUT", "PATCH"):
        raise HttpError(
            411, "POST requests must carry a Content-Length header"
        )

    split = urlsplit(target)
    connection = headers.get("connection", "").lower()
    if version == "HTTP/1.0":
        keep_alive = connection == "keep-alive"
    else:
        keep_alive = connection != "close"
    return Request(
        method=method.upper(),
        path=split.path,
        query=parse_qs(split.query, keep_blank_values=True),
        headers=headers,
        body=body,
        keep_alive=keep_alive,
    )


def response_bytes(
    status: int,
    payload: object,
    keep_alive: bool = True,
    headers: Tuple[Tuple[str, str], ...] = (),
) -> bytes:
    """Serialize one JSON response, Content-Length framed."""
    body = json.dumps(payload).encode("utf-8") + b"\n"
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines.extend(f"{name}: {value}" for name, value in headers)
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


def error_bytes(error: HttpError, keep_alive: bool = True) -> bytes:
    """Serialize one :class:`HttpError` as its JSON response."""
    return response_bytes(
        error.status,
        error.payload(),
        keep_alive=keep_alive and not error.close,
        headers=error.headers,
    )
