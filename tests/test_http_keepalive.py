"""Persistent-connection semantics: header tokens and version defaults."""

from repro.http.headers import Headers
from repro.http.messages import (
    Request,
    Response,
    response_allows_keep_alive,
    wants_keep_alive,
)


class TestHasToken:
    """``Connection`` tokens as the serve path reads them: one pass of
    ``Headers.facts``, case-insensitive, whole tokens only."""

    def test_simple_token(self):
        headers = Headers([("connection", "Keep-Alive")])
        assert headers.facts().keep_alive

    def test_token_list(self):
        headers = Headers([("Connection", "Upgrade, keep-alive, close")])
        assert headers.facts().keep_alive
        assert headers.facts().close

    def test_no_substring_match(self):
        headers = Headers([("Connection", "keep-alive-ish")])
        assert not headers.facts().keep_alive

    def test_absent_header(self):
        assert not Headers().facts().close


class TestRequestSemantics:
    def test_http10_defaults_to_close(self):
        request = Request(method="GET", target="/")
        assert not wants_keep_alive(request.version, request.headers)

    def test_http10_keep_alive_opt_in(self):
        request = Request(method="GET", target="/")
        request.headers.set("Connection", "keep-alive")
        assert wants_keep_alive(request.version, request.headers)

    def test_http11_defaults_to_keep_alive(self):
        request = Request(method="GET", target="/", version="HTTP/1.1")
        assert wants_keep_alive(request.version, request.headers)

    def test_http11_close_opt_out(self):
        request = Request(method="GET", target="/", version="HTTP/1.1")
        request.headers.set("Connection", "close")
        assert not wants_keep_alive(request.version, request.headers)

    def test_close_beats_keep_alive(self):
        request = Request(method="GET", target="/")
        request.headers.add("Connection", "keep-alive")
        request.headers.add("Connection", "close")
        assert not wants_keep_alive(request.version, request.headers)


class TestResponseSemantics:
    def test_http10_defaults_to_close(self):
        assert not response_allows_keep_alive(Response(status=200))

    def test_explicit_keep_alive(self):
        response = Response(status=200)
        response.headers.set("Connection", "keep-alive")
        assert response_allows_keep_alive(response)

    def test_http11_close(self):
        response = Response(status=200, version="HTTP/1.1")
        response.headers.set("Connection", "close")
        assert not response_allows_keep_alive(response)
