"""Request-read hardening: the worker-side incremental request reader."""

import socket

import pytest

from repro.errors import HTTPError
from repro.server.threaded import _RequestReader


def read_request(reader):
    """The next request off *reader* as a worker gets it — its memoised
    head and body — made into a ``Request``; ``None`` on clean EOF."""
    found = reader.read_head()
    return None if found is None else found[0].request(found[1])


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
    request = read_request(_RequestReader(server))
    assert request.method == "GET"
    assert request.target == "/x.html"
    assert request.body == b""


def test_reads_body_by_content_length(pair):
    client, server = pair
    client.sendall(b"POST /x HTTP/1.0\r\nContent-Length: 5\r\n\r\nhello-EXTRA")
    reader = _RequestReader(server)
    request = read_request(reader)
    assert request.body == b"hello"
    # Bytes past the frame stay buffered for the next request.
    assert reader.buffered


def test_pipelined_requests_served_in_turn(pair):
    client, server = pair
    client.sendall(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n")
    reader = _RequestReader(server)
    assert read_request(reader).target == "/a"
    assert reader.buffered
    assert read_request(reader).target == "/b"
    assert not reader.buffered


def test_clean_eof_between_requests_returns_none(pair):
    client, server = pair
    client.close()
    assert read_request(_RequestReader(server)) is None


def test_eof_mid_head_raises(pair):
    client, server = pair
    client.sendall(b"GET /x.html HTTP/1.0\r\nHost:")
    client.close()
    with pytest.raises(HTTPError):
        read_request(_RequestReader(server))


def test_truncated_body_raises_instead_of_short_request(pair):
    """Regression: a peer closing mid-body used to yield a silently
    truncated request; it must be rejected as malformed."""
    client, server = pair
    client.sendall(b"POST /x HTTP/1.0\r\nContent-Length: 100\r\n\r\npartial")
    client.close()
    with pytest.raises(HTTPError):
        read_request(_RequestReader(server))
