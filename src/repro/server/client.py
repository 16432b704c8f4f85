"""A minimal asyncio HTTP/1.1 client for the front door.

Just enough to drive :class:`~repro.server.app.TelemetryServer` from the
repo benchmark's load generator and the test suite — one persistent
connection per :class:`ServerClient`, JSON in, JSON out, no third-party
HTTP stack (the same no-new-deps discipline as the server).
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple


@dataclass
class ClientResponse:
    """One parsed response: status, headers (lower-cased names), JSON body."""

    status: int
    headers: Dict[str, str]
    body: dict

    def retry_after(self) -> Optional[float]:
        """The ``Retry-After`` delay in seconds, if the server sent one."""
        text = self.headers.get("retry-after")
        if text is None:
            return None
        try:
            return float(text)
        except ValueError:
            return None


class ServerClient:
    """One keep-alive connection to a :class:`TelemetryServer`."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> "ServerClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._reader = self._writer = None

    async def __aenter__(self) -> "ServerClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def request(
        self, method: str, target: str, payload: Optional[dict] = None
    ) -> ClientResponse:
        """One request/response round trip, reconnecting after a close.

        The server closes the connection on framing errors and when a
        response says ``Connection: close``; the next call transparently
        reopens the socket, so callers can treat the client as a durable
        handle.
        """
        if self._writer is None or self._writer.is_closing():
            await self.connect()
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        lines = [
            f"{method} {target} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
        ]
        if payload is not None or method in ("POST", "PUT", "PATCH"):
            lines.append(f"Content-Length: {len(body)}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        self._writer.write(head + body)
        await self._writer.drain()
        status, headers, raw = await self._read_response()
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return ClientResponse(
            status=status, headers=headers,
            body=json.loads(raw) if raw else {},
        )

    async def _read_response(self) -> Tuple[int, Dict[str, str], bytes]:
        head = await self._reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        raw = await self._reader.readexactly(length) if length else b""
        return status, headers, raw

    async def request_with_retry(
        self,
        method: str,
        target: str,
        payload: Optional[dict] = None,
        *,
        max_attempts: int = 8,
        base_delay_s: float = 0.05,
        max_delay_s: float = 2.0,
        retry_statuses: Tuple[int, ...] = (429, 503),
        jitter: Optional[Callable[[], float]] = None,
        on_retry: Optional[Callable[[ClientResponse, float], None]] = None,
    ) -> ClientResponse:
        """:meth:`request` with capped exponential backoff on pushback.

        Retries responses whose status is in ``retry_statuses`` (by
        default the server's two load-shedding answers: 429
        backpressure and 503 during recovery) up to ``max_attempts``
        total attempts — never an unbounded spin.  The delay before
        attempt ``k+1`` is ``min(max_delay_s, base_delay_s * 2**k)``,
        floored by the server's ``Retry-After`` when one is advertised
        (still capped at ``max_delay_s``), and jittered to half-to-full
        so a fleet of backed-off clients does not re-arrive in lockstep.
        ``jitter`` injects the uniform draw (a ``[0, 1)`` callable) for
        deterministic tests; the default draws from the OS entropy pool
        — retry scheduling is wall-clock territory, never part of the
        reproducible estimate path.  ``on_retry(response, delay_s)``
        fires before each sleep (benches count their 429s there).

        Returns the last response, whatever its status: exhausting the
        retry budget hands the still-refused response to the caller
        rather than guessing how to fail.
        """
        draw = jitter if jitter is not None else random.SystemRandom().random
        response = await self.request(method, target, payload)
        for attempt in range(max_attempts - 1):
            if response.status not in retry_statuses:
                return response
            delay = min(max_delay_s, base_delay_s * 2.0 ** attempt)
            advertised = response.retry_after()
            if advertised is not None:
                delay = min(max_delay_s, max(delay, advertised))
            delay *= 0.5 + draw() * 0.5
            if on_retry is not None:
                on_retry(response, delay)
            await asyncio.sleep(delay)
            response = await self.request(method, target, payload)
        return response

    # -- convenience verbs used by the benchmark and the tests ------------

    async def health(self) -> dict:
        return (await self.request("GET", "/api/health")).body

    async def config(self) -> dict:
        return (await self.request("GET", "/api/config")).body

    async def submit(self, values) -> ClientResponse:
        return await self.request(
            "POST", "/api/reports", {"values": [int(v) for v in values]}
        )

    async def close_epoch(self) -> dict:
        response = await self.request("POST", "/api/epochs")
        if response.status != 200:
            raise RuntimeError(
                f"epoch close failed with HTTP {response.status}: "
                f"{response.body}"
            )
        return response.body

    async def estimates(self, **params) -> dict:
        query = "&".join(f"{k}={v}" for k, v in params.items())
        target = "/api/estimates" + (f"?{query}" if query else "")
        response = await self.request("GET", target)
        if response.status != 200:
            raise RuntimeError(
                f"estimate query failed with HTTP {response.status}: "
                f"{response.body}"
            )
        return response.body


async def fetch_all_estimates(client: ServerClient, limit: int = 200) -> list:
    """Walk the keyset cursor until exhaustion; returns the full item list."""
    items = []
    cursor = None
    while True:
        params = {"limit": limit}
        if cursor is not None:
            params["cursor"] = cursor
        page = await client.estimates(**params)
        items.extend(page["items"])
        cursor = page["page"]["next_cursor"]
        if not page["page"]["has_more"] or cursor is None:
            return items
