"""Request-read hardening: the worker-side incremental request reader."""

import socket

import pytest

from repro.errors import HTTPError
from repro.server.threaded import _RequestReader


@pytest.fixture()
def pair():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    try:
        yield a, b
    finally:
        a.close()
        b.close()


def test_reads_single_request(pair):
    client, server = pair
    client.sendall(b"GET /x.html HTTP/1.0\r\nHost: h\r\n\r\n")
    request = _RequestReader(server).read_request()
    assert request.method == "GET"
    assert request.target == "/x.html"
    assert request.body == b""


def test_reads_body_by_content_length(pair):
    client, server = pair
    client.sendall(b"POST /x HTTP/1.0\r\nContent-Length: 5\r\n\r\nhello-EXTRA")
    reader = _RequestReader(server)
    request = reader.read_request()
    assert request.body == b"hello"
    # Bytes past the frame stay buffered for the next request.
    assert reader.buffered


def test_pipelined_requests_served_in_turn(pair):
    client, server = pair
    client.sendall(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n")
    reader = _RequestReader(server)
    assert reader.read_request().target == "/a"
    assert reader.buffered
    assert reader.read_request().target == "/b"
    assert not reader.buffered


def test_clean_eof_between_requests_returns_none(pair):
    client, server = pair
    client.close()
    assert _RequestReader(server).read_request() is None


def test_eof_mid_head_raises(pair):
    client, server = pair
    client.sendall(b"GET /x.html HTTP/1.0\r\nHost:")
    client.close()
    with pytest.raises(HTTPError):
        _RequestReader(server).read_request()


def test_truncated_body_raises_instead_of_short_request(pair):
    """Regression: a peer closing mid-body used to yield a silently
    truncated request; it must be rejected as malformed."""
    client, server = pair
    client.sendall(b"POST /x HTTP/1.0\r\nContent-Length: 100\r\n\r\npartial")
    client.close()
    with pytest.raises(HTTPError):
        _RequestReader(server).read_request()
