"""Unit tests for HTTP request/response messages."""

import pytest

from repro.errors import HTTPError
from repro.http.messages import (
    Request,
    Response,
    error_response,
    parse_request,
    parse_response,
    redirect_response,
)
from repro.http.status import StatusCode


class TestRequest:
    def test_round_trip(self):
        request = Request(method="GET", target="/a/b.html?q=1")
        request.headers.set("Host", "example")
        parsed = parse_request(request.serialize())
        assert parsed.method == "GET"
        assert parsed.target == "/a/b.html?q=1"
        assert parsed.headers.get("host") == "example"

    def test_path_strips_query(self):
        assert Request("GET", "/a?x=1").path == "/a"

    def test_body_gets_content_length(self):
        request = Request(method="POST", target="/x", body=b"abc")
        wire = request.serialize()
        assert b"Content-Length: 3" in wire
        assert parse_request(wire).body == b"abc"

    def test_rejects_unknown_method(self):
        with pytest.raises(HTTPError):
            Request(method="BREW", target="/x")

    def test_rejects_absolute_target(self):
        with pytest.raises(HTTPError):
            Request(method="GET", target="http://h/x")

    def test_rejects_unknown_version(self):
        with pytest.raises(HTTPError):
            Request(method="GET", target="/", version="HTTP/3.0")

    def test_parse_rejects_malformed_request_line(self):
        with pytest.raises(HTTPError):
            parse_request(b"GET /\r\n\r\n")

    def test_parse_requires_blank_line(self):
        with pytest.raises(HTTPError):
            parse_request(b"GET / HTTP/1.0\r\nHost: h\r\n")


class TestResponse:
    def test_round_trip(self):
        response = Response(status=200, body=b"hello")
        response.headers.set("Content-Type", "text/plain")
        parsed = parse_response(response.serialize())
        assert parsed.status == 200
        assert parsed.body == b"hello"
        assert parsed.reason == "OK"
        assert parsed.ok

    def test_content_length_always_set(self):
        assert b"Content-Length: 0" in Response(status=204).serialize()

    def test_body_truncated_to_content_length(self):
        wire = b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nabcdef"
        assert parse_response(wire).body == b"ab"

    def test_parse_rejects_non_numeric_status(self):
        with pytest.raises(HTTPError):
            parse_response(b"HTTP/1.0 abc OK\r\n\r\n")

    def test_parse_without_content_length_keeps_body(self):
        wire = b"HTTP/1.0 200 OK\r\nX: 1\r\n\r\npayload"
        assert parse_response(wire).body == b"payload"


class TestCannedResponses:
    def test_redirect(self):
        response = redirect_response("http://coop/~migrate/h/80/d.html")
        assert response.status == StatusCode.MOVED_PERMANENTLY
        assert response.headers.get("Location") == \
            "http://coop/~migrate/h/80/d.html"
        assert b"coop" in response.body

    def test_error_contains_reason(self):
        response = error_response(StatusCode.SERVICE_UNAVAILABLE, "overload")
        assert response.status == 503
        assert b"Service Unavailable" in response.body
        assert b"overload" in response.body
        assert not response.ok


# -- one head parser under both entry points ----------------------------

def _framing_corpus():
    from tests.integration.test_framing_corpus import CORPUS, PIPELINED_GET

    hostile = [(entry.id, entry.values[0]) for entry in CORPUS]
    return hostile + [(f"{name}+pipelined", raw + PIPELINED_GET)
                      for name, raw in hostile]


AGREEMENT_CASES = _framing_corpus() + [
    ("plain-get", b"GET /a.html HTTP/1.1\r\nHost: h\r\n\r\n"),
    ("post-with-body", b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"),
    ("repeated-equal-lengths", b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n"
                               b"content-length: 2\r\n\r\nok"),
    ("folded-header", b"GET /a HTTP/1.0\r\nX-A: one\r\n\ttwo\r\n\r\n"),
    ("orphan-continuation", b"GET /a HTTP/1.0\r\n folded\r\n\r\n"),
    ("no-colon", b"GET /a HTTP/1.0\r\nnot a header\r\n\r\n"),
    ("bad-field-name", b"GET /a HTTP/1.0\r\nBad(Name): 1\r\n\r\n"),
    ("bare-cr-in-value", b"GET /a HTTP/1.0\r\nX-A: one\rtwo\r\n\r\n"),
    ("unknown-method", b"BREW /pot HTTP/1.1\r\n\r\n"),
    ("unknown-version", b"GET /a HTTP/2.0\r\n\r\n"),
    ("absolute-target", b"GET http://h/a HTTP/1.1\r\n\r\n"),
    ("four-part-request-line", b"GET /a b HTTP/1.1\r\n\r\n"),
]


def _parsed(parse):
    """A request as comparable fields, or the type of exception the
    parse raised (the incremental parser's recoverable wrapper counts
    as the error it wraps)."""
    from repro.errors import RecoverableProtocolError

    try:
        request = parse()
    except RecoverableProtocolError as exc:
        return type(exc.__cause__)
    except HTTPError as exc:
        return type(exc)
    return (request.method, request.target, request.version,
            list(request.headers.items()), request.body)


@pytest.mark.parametrize("raw", [pytest.param(raw, id=name)
                                 for name, raw in AGREEMENT_CASES])
def test_parse_request_and_request_parser_agree(raw):
    from repro.http.wire import RequestParser

    def incremental():
        parser = RequestParser()
        parser.feed(raw)
        parser.feed_eof()
        return parser.next_request()

    whole = _parsed(lambda: parse_request(raw))
    assert _parsed(incremental) == whole
    # And fed a byte at a time, which walks the head-scan cache.
    dribbled = RequestParser()

    def byte_by_byte():
        for index in range(len(raw)):
            dribbled.feed(raw[index:index + 1])
            request = dribbled.next_request()
            if request is not None:
                return request
        dribbled.feed_eof()
        return dribbled.next_request()

    assert _parsed(byte_by_byte) == whole
