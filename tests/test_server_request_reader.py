"""Request-read hardening: the worker-side incremental request reader,
and its whole-chunk entry."""

import socket

import pytest

from repro.errors import HTTPError
from repro.http.wire import DEFAULT_MAX_REQUEST, RequestParser
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


class _Chunks:
    """A connection whose ``recv`` hands out fixed chunks, then EOF."""

    def __init__(self, *chunks):
        self._chunks = list(chunks)

    def recv(self, size):
        return self._chunks.pop(0) if self._chunks else b""


@pytest.fixture()
def stream_feeds(monkeypatch):
    """Count the chunks the parser's stream path (``feed``) takes."""
    calls = []
    original = RequestParser.feed

    def feed(self, data):
        calls.append(data)
        return original(self, data)

    monkeypatch.setattr(RequestParser, "feed", feed)
    return calls


def stream_head(data):
    """*data*'s first head as the stream path frames it."""
    parser = RequestParser()
    parser.feed(data)
    return parser.next_head()[0]


ONE_HEAD = b"GET /w.html HTTP/1.1\r\nHost: h\r\n\r\n"


class TestWholeChunkRead:
    def test_a_one_head_chunk_is_the_stream_paths_memoised_head(
            self, stream_feeds):
        expected = stream_head(ONE_HEAD)
        stream_feeds.clear()
        reader = _RequestReader(_Chunks(ONE_HEAD))
        head, body = reader.read_head()
        assert head is expected
        assert body == b""
        assert stream_feeds == []   # framed from the chunk itself
        assert not reader.buffered
        assert reader.read_head() is None

    def test_a_pipelined_chunk_frames_through_feed(self, stream_feeds):
        chunk = ONE_HEAD + b"GET /v.html HTTP/1.1\r\nHost: h\r\n\r\n"
        reader = _RequestReader(_Chunks(chunk))
        assert reader.read_head()[0] is stream_head(ONE_HEAD)
        assert reader.buffered
        assert reader.read_head()[0].target == "/v.html"
        assert stream_feeds[0] == chunk

    def test_a_partial_chunk_frames_through_feed(self, stream_feeds):
        reader = _RequestReader(_Chunks(ONE_HEAD[:20], ONE_HEAD[20:]))
        head, body = reader.read_head()
        assert head is stream_head(ONE_HEAD)
        assert body == b""
        assert stream_feeds[:2] == [ONE_HEAD[:20], ONE_HEAD[20:]]

    def test_a_bodied_chunk_frames_through_feed(self, stream_feeds):
        chunk = b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"
        head, body = _RequestReader(_Chunks(chunk)).read_head()
        assert (head.method, body) == ("POST", b"hello")
        assert stream_feeds == [chunk]

    def test_an_over_limit_chunk_is_refused_by_feed(self, stream_feeds):
        chunk = (b"GET /x HTTP/1.1\r\nX-Pad: " + b"a" * DEFAULT_MAX_REQUEST
                 + b"\r\n\r\n")
        with pytest.raises(HTTPError, match="size limit"):
            _RequestReader(_Chunks(chunk)).read_head()
        assert stream_feeds == [chunk]
