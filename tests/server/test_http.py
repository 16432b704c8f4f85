"""Unit tests for the stdlib HTTP/1.1 layer (parsing, limits, framing)."""

import asyncio
import json

import pytest

from repro.server.http import (
    HttpError,
    Request,
    error_bytes,
    read_request,
    response_bytes,
)


def _parse(raw: bytes, **limits):
    """Feed raw bytes into a fresh StreamReader and parse one request."""

    async def run():
        reader = asyncio.StreamReader(limit=256 * 1024)
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, **limits)

    return asyncio.run(run())


def _parse_error(raw: bytes, **limits) -> HttpError:
    with pytest.raises(HttpError) as caught:
        _parse(raw, **limits)
    return caught.value


def test_simple_get_with_query():
    request = _parse(b"GET /api/estimates?limit=5&sort=-epoch HTTP/1.1\r\n"
                     b"Host: x\r\n\r\n")
    assert request.method == "GET"
    assert request.path == "/api/estimates"
    assert request.param("limit") == "5"
    assert request.param("sort") == "-epoch"
    assert request.param("missing") is None
    assert request.keep_alive  # HTTP/1.1 default


def test_post_with_body():
    body = json.dumps({"values": [1, 2, 3]}).encode()
    request = _parse(
        b"POST /api/reports HTTP/1.1\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
    )
    assert request.method == "POST"
    assert request.json() == {"values": [1, 2, 3]}


def test_keep_alive_negotiation():
    closed = _parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
    assert not closed.keep_alive
    old = _parse(b"GET / HTTP/1.0\r\n\r\n")
    assert not old.keep_alive  # HTTP/1.0 closes by default
    old_keep = _parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
    assert old_keep.keep_alive


def test_clean_eof_returns_none():
    assert _parse(b"") is None


def test_mid_request_eof_is_400():
    assert _parse_error(b"GET / HTTP/1.1\r\nHost").status == 400


def test_malformed_request_line_is_400():
    assert _parse_error(b"NONSENSE\r\n\r\n").status == 400


def test_unsupported_protocol_is_501():
    assert _parse_error(b"GET / HTTP/2\r\n\r\n").status == 501


def test_chunked_upload_is_501():
    error = _parse_error(
        b"POST /api/reports HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
    )
    assert error.status == 501


def test_post_without_content_length_is_411():
    assert _parse_error(b"POST /api/reports HTTP/1.1\r\n\r\n").status == 411


def test_oversized_declared_body_is_413():
    error = _parse_error(
        b"POST / HTTP/1.1\r\nContent-Length: 999999\r\n\r\n",
        max_body_bytes=1024,
    )
    assert error.status == 413
    assert error.close


def test_header_block_over_limit_is_431():
    padding = b"X-Pad: " + b"a" * 20_000 + b"\r\n"
    error = _parse_error(
        b"GET / HTTP/1.1\r\n" + padding + b"\r\n",
        max_header_bytes=16 * 1024,
    )
    assert error.status == 431
    assert error.close


@pytest.mark.parametrize(
    "length_lines",
    [
        b"Content-Length: nope\r\n",
        # RFC 9112 section 6.3: digits only, and one length per message.
        b"Content-Length: +13\r\n",
        b"Content-Length: 1_3\r\n",
        b"Content-Length: 5\r\nContent-Length: 13\r\n",
        b"Content-Length: " + b"1" * 5000 + b"\r\n",
    ],
    ids=["nope", "plus-sign", "underscore", "repeated", "too-many-digits"],
)
def test_invalid_content_length_is_400(length_lines):
    error = _parse_error(
        b"POST / HTTP/1.1\r\n" + length_lines + b"\r\n"
        + b'{"v": [1, 2]}'  # 13 bytes
    )
    assert error.status == 400
    assert error.close


def test_repeated_query_param_is_400():
    request = _parse(b"GET /api/estimates?limit=1&limit=2 HTTP/1.1\r\n\r\n")
    with pytest.raises(HttpError) as caught:
        request.param("limit")
    assert caught.value.status == 400
    assert caught.value.field == "limit"


def test_non_object_json_body_is_400():
    request = Request(method="POST", path="/", body=b"[1, 2]")
    with pytest.raises(HttpError) as caught:
        request.json()
    assert caught.value.status == 400
    assert caught.value.field == "body"
    broken = Request(method="POST", path="/", body=b"{nope")
    with pytest.raises(HttpError):
        broken.json()
    nested = Request(
        method="POST", path="/", body=b"[" * 100_000 + b"]" * 100_000
    )
    with pytest.raises(HttpError) as caught:
        nested.json()
    assert caught.value.status == 400
    assert caught.value.field == "body"


def test_response_bytes_round_trip():
    raw = response_bytes(200, {"ok": True}, keep_alive=True,
                         headers=(("X-Extra", "1"),))
    head, __, body = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 OK")
    assert b"X-Extra: 1" in head
    assert b"Connection: keep-alive" in head
    assert json.loads(body) == {"ok": True}
    assert f"Content-Length: {len(body)}".encode() in head


def test_error_bytes_carry_field_and_close():
    error = HttpError(400, "bad", field="values", close=True)
    raw = error_bytes(error, keep_alive=True)
    head, __, body = raw.partition(b"\r\n\r\n")
    assert b"Connection: close" in head  # close overrides keep_alive
    payload = json.loads(body)
    assert payload == {
        "error": {"status": 400, "message": "bad", "field": "values"}
    }
    assert "values: bad" in str(error)


def test_retry_after_header_on_429():
    raw = error_bytes(
        HttpError(429, "full", headers=(("Retry-After", "3"),))
    )
    assert b"Retry-After: 3" in raw.partition(b"\r\n\r\n")[0]
