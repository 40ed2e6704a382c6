"""The sans-I/O request parser shared by both socket front ends.

Mirrors the blocking-reader suite (tests/test_server_request_reader.py)
through :class:`repro.http.wire.RequestParser`, so the one protocol
implementation both front ends consume is tested at the byte level:
framing, pipelining, dribbled feeds, EOF semantics, size limits.
"""

import pytest

from repro.errors import HTTPError, RecoverableProtocolError
from repro.http.wire import DEFAULT_MAX_REQUEST, RequestParser


class TestFraming:
    def test_single_request(self):
        parser = RequestParser()
        parser.feed(b"GET /x.html HTTP/1.0\r\nHost: h\r\n\r\n")
        request = parser.next_request()
        assert request.method == "GET"
        assert request.target == "/x.html"
        assert request.body == b""
        assert not parser.buffered

    def test_incomplete_head_returns_none(self):
        parser = RequestParser()
        parser.feed(b"GET /x.html HTTP/1.0\r\nHost:")
        assert parser.next_request() is None
        assert parser.buffered

    def test_body_read_to_content_length(self):
        parser = RequestParser()
        parser.feed(b"POST /x HTTP/1.0\r\nContent-Length: 5\r\n\r\nhello-EXTRA")
        request = parser.next_request()
        assert request.body == b"hello"
        # Bytes past the frame stay buffered for the next request.
        assert parser.buffered

    def test_body_arrives_in_pieces(self):
        parser = RequestParser()
        parser.feed(b"POST /x HTTP/1.0\r\nContent-Length: 10\r\n\r\n12345")
        assert parser.next_request() is None
        parser.feed(b"67890")
        assert parser.next_request().body == b"1234567890"

    def test_malformed_request_line_raises(self):
        parser = RequestParser()
        parser.feed(b"NOT-HTTP\r\n\r\n")
        with pytest.raises(HTTPError):
            parser.next_request()


class TestPipelining:
    def test_two_requests_served_in_turn(self):
        parser = RequestParser()
        parser.feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n")
        assert parser.next_request().target == "/a"
        assert parser.buffered
        assert parser.next_request().target == "/b"
        assert not parser.buffered
        assert parser.next_request() is None

    def test_exact_consume_keeps_the_tail_of_the_next_request(self):
        """One whole request clears the buffer; one request and half of
        the next must leave exactly that half."""
        parser = RequestParser()
        parser.feed(b"GET /a HTTP/1.1\r\nHost: h\r\n\r\n")
        assert parser.next_request().target == "/a"
        assert not parser.buffered
        parser.feed(b"POST /b HTTP/1.1\r\nContent-Length: 3\r\n\r\nxyz"
                    b"GET /c HTTP/1.1\r\nHo")
        posted = parser.next_request()
        assert (posted.target, posted.body) == ("/b", b"xyz")
        assert parser.buffered
        assert parser.next_request() is None
        parser.feed(b"st: h\r\n\r\n")
        follower = parser.next_request()
        assert (follower.target, follower.body) == ("/c", b"")
        assert follower.headers.get("Host") == "h"
        assert not parser.buffered

    def test_dribbled_byte_at_a_time(self):
        parser = RequestParser()
        wire = b"GET /slow HTTP/1.0\r\nHost: h\r\n\r\n"
        for index in range(len(wire) - 1):
            parser.feed(wire[index:index + 1])
            assert parser.next_request() is None
        parser.feed(wire[-1:])
        assert parser.next_request().target == "/slow"


class TestEOF:
    def test_clean_eof_between_requests_is_none(self):
        parser = RequestParser()
        parser.feed_eof()
        assert parser.next_request() is None
        assert parser.eof

    def test_eof_after_complete_request_still_yields_it(self):
        parser = RequestParser()
        parser.feed(b"GET / HTTP/1.0\r\n\r\n")
        parser.feed_eof()
        assert parser.next_request().target == "/"
        assert parser.next_request() is None

    def test_eof_mid_head_raises(self):
        parser = RequestParser()
        parser.feed(b"GET /x.html HTTP/1.0\r\nHost:")
        parser.feed_eof()
        with pytest.raises(HTTPError):
            parser.next_request()

    def test_eof_mid_body_raises(self):
        parser = RequestParser()
        parser.feed(b"POST /x HTTP/1.0\r\nContent-Length: 100\r\n\r\npartial")
        parser.feed_eof()
        with pytest.raises(HTTPError):
            parser.next_request()

    def test_feeding_after_eof_raises(self):
        parser = RequestParser()
        parser.feed_eof()
        with pytest.raises(HTTPError):
            parser.feed(b"GET / HTTP/1.0\r\n\r\n")


class TestContentLengthStrictness:
    """The framing bugfix: Content-Length is validated before it frames.

    The original code trusted the raw value — ``Content-Length: -20``
    made ``needed < head_end + 4``, so the buffer delete stopped short of
    the head and the residue desynced every later pipelined request.
    """

    def test_negative_content_length_recoverable(self):
        parser = RequestParser()
        parser.feed(b"POST /x HTTP/1.0\r\nContent-Length: -20\r\n\r\n")
        with pytest.raises(RecoverableProtocolError):
            parser.next_request()

    def test_negative_content_length_does_not_desync_pipeline(self):
        parser = RequestParser()
        parser.feed(b"POST /evil HTTP/1.1\r\nContent-Length: -20\r\n\r\n"
                    b"GET /next HTTP/1.1\r\nHost: h\r\n\r\n")
        with pytest.raises(RecoverableProtocolError):
            parser.next_request()
        # The offending head was consumed exactly; the pipelined request
        # behind it parses normally.
        request = parser.next_request()
        assert request.target == "/next"
        assert not parser.buffered

    # (" 5" / "5 " are absent: OWS around a field value is legal and
    # stripped at parse; what must never pass is int()'s extra syntax.)
    @pytest.mark.parametrize("value", [b"+5", b"-0", b"1_0", b"0x10",
                                       b"5,5", b"", b"4.2", b"\xc2\xb3"])
    def test_nonconforming_values_recoverable(self, value):
        parser = RequestParser()
        parser.feed(b"POST /x HTTP/1.0\r\nContent-Length: " + value
                    + b"\r\n\r\nGET /ok HTTP/1.0\r\n\r\n")
        with pytest.raises(RecoverableProtocolError):
            parser.next_request()
        assert parser.next_request().target == "/ok"

    def test_conflicting_duplicate_content_length_fatal(self):
        # Two differing Content-Length fields are the request-smuggling
        # vector: framing is ambiguous, so the error is NOT recoverable —
        # the connection must close.
        parser = RequestParser()
        parser.feed(b"POST /x HTTP/1.0\r\nContent-Length: 5\r\n"
                    b"Content-Length: 30\r\n\r\nhello")
        with pytest.raises(HTTPError) as excinfo:
            parser.next_request()
        assert not isinstance(excinfo.value, RecoverableProtocolError)

    def test_equal_duplicate_content_length_accepted(self):
        parser = RequestParser()
        parser.feed(b"POST /x HTTP/1.0\r\nContent-Length: 5\r\n"
                    b"Content-Length: 5\r\n\r\nhello")
        assert parser.next_request().body == b"hello"

    def test_invalid_length_split_across_feeds(self):
        # The validator header straddling two feeds must behave exactly
        # like a single feed: recoverable, pipeline intact.
        parser = RequestParser()
        for chunk in (b"POST /x HTTP/1.0\r\nContent-Le",
                      b"ngth: -", b"7\r\n", b"\r\n",
                      b"GET /after HTTP/1.0\r\n\r\n"):
            parser.feed(chunk)
        with pytest.raises(RecoverableProtocolError):
            parser.next_request()
        assert parser.next_request().target == "/after"

    def test_overlong_content_length_still_fatal(self):
        # A syntactically valid but over-limit length keeps the fatal
        # path: the client really does intend to send that body.
        parser = RequestParser(max_request=64)
        parser.feed(b"POST /x HTTP/1.0\r\nContent-Length: 999999\r\n\r\n")
        with pytest.raises(HTTPError) as excinfo:
            parser.next_request()
        assert not isinstance(excinfo.value, RecoverableProtocolError)

    def test_recoverable_error_is_http_error(self):
        # Hosts that only catch HTTPError still fail closed.
        assert issubclass(RecoverableProtocolError, HTTPError)


class TestLimits:
    def test_default_limit(self):
        assert RequestParser().max_request == DEFAULT_MAX_REQUEST

    def test_oversize_head_rejected_at_feed(self):
        parser = RequestParser(max_request=64)
        with pytest.raises(HTTPError):
            parser.feed(b"GET /" + b"x" * 100 + b" HTTP/1.0\r\n\r\n")

    def test_oversize_body_rejected_at_parse(self):
        parser = RequestParser(max_request=64)
        parser.feed(b"POST /x HTTP/1.0\r\nContent-Length: 999\r\n\r\n")
        with pytest.raises(HTTPError):
            parser.next_request()
