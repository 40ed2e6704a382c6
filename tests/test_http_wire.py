"""The sans-I/O request parser shared by both socket front ends.

Mirrors the blocking-reader suite (tests/test_server_request_reader.py)
through :class:`repro.http.wire.RequestParser`, so the one protocol
implementation both front ends consume is tested at the byte level:
framing, pipelining, dribbled feeds, EOF semantics, size limits.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import HTTPError, RecoverableProtocolError
from repro.http.wire import (
    DEFAULT_MAX_REQUEST,
    HEAD_MEMO_MAX_BYTES,
    RequestParser,
)


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


class TestTransferEncoding:
    """Framing is Content-Length alone: a request carrying
    Transfer-Encoding is refused and the connection closed (RFC 7230
    section 3.3.3).  Ignoring the field let a chunked "body" run as a
    second request, and with both fields present Content-Length framed."""

    def assert_fatal(self, parser):
        with pytest.raises(HTTPError) as excinfo:
            parser.next_request()
        assert not isinstance(excinfo.value, RecoverableProtocolError)
        assert "Transfer-Encoding" in str(excinfo.value)

    def test_chunked_body_does_not_smuggle_a_request(self):
        parser = RequestParser()
        parser.feed(b"POST /x HTTP/1.1\r\nHost: h\r\n"
                    b"Transfer-Encoding: chunked\r\n\r\n"
                    b"0\r\n\r\nGET /smuggled HTTP/1.1\r\nHost: h\r\n\r\n")
        self.assert_fatal(parser)

    def test_content_length_and_transfer_encoding_fatal(self):
        parser = RequestParser()
        parser.feed(b"POST /x HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n"
                    b"Transfer-Encoding: chunked\r\n\r\nabcd")
        self.assert_fatal(parser)

    def test_bad_content_length_beside_it_is_not_recoverable(self):
        # Without Transfer-Encoding a bad length frames no body and the
        # connection stays; with it, the framing is ambiguous.
        parser = RequestParser()
        parser.feed(b"POST /x HTTP/1.1\r\nContent-Length: -1\r\n"
                    b"transfer-encoding: identity\r\n\r\n")
        self.assert_fatal(parser)

    @pytest.mark.parametrize("value", [b"chunked", b"gzip, chunked",
                                       b"identity", b""])
    def test_every_value_and_every_pass_refused(self, value):
        wire = (b"GET /x HTTP/1.1\r\nTRANSFER-ENCODING: " + value
                + b"\r\n\r\n")
        for __ in range(2):             # a refused head is never memoised
            parser = RequestParser()
            parser.feed(wire)
            self.assert_fatal(parser)


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


class TestWholeChunk:
    """``feed_whole`` frames a chunk that is one whole bodiless request
    on its own and hands every other chunk to ``feed``: either way a
    stream frames, and refuses, exactly what ``feed`` + ``next_head``
    frame and refuse."""

    def test_a_whole_bodiless_request_is_framed_on_the_spot(self):
        parser = RequestParser()
        wire = b"GET /x.html HTTP/1.1\r\nHost: h\r\n\r\n"
        head = parser.feed_whole(wire)
        assert (head.method, head.target, head.length) == ("GET", "/x.html", 0)
        assert not parser.buffered
        parser.feed(wire)
        assert parser.next_head() == (head, b"")    # the memo's own head

    @pytest.mark.parametrize("wire", [
        b"GET /x HTTP/1.1\r\n",                             # partial
        b"GET /x HTTP/1.1\r\n\r\nGET /y HTTP/1.1\r\n\r\n",    # pipelined
        b"GET /x HTTP/1.1\r\n\r\n\r\n\r\n",                  # and an empty head
        b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\n",    # body to come
        b"GET /x HTTP/1.1\r\nX-Pad: " + b"p" * HEAD_MEMO_MAX_BYTES
        + b"\r\n\r\n",                                    # never memoised
        b"GET /x HTTP/1.1\r\nContent-Length: -1\r\n\r\n",    # recoverable
    ])
    def test_any_other_chunk_goes_to_the_stream(self, wire):
        parser = RequestParser()
        assert parser.feed_whole(wire) is None
        assert parser.buffered

    def test_a_chunk_behind_buffered_bytes_goes_to_the_stream(self):
        wire = b"GET /y HTTP/1.1\r\n\r\n"
        parser = RequestParser()
        parser.feed(b"POST /x HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                    % len(wire))
        assert parser.next_request() is None    # waiting for the body
        assert parser.feed_whole(wire) is None  # ... which this chunk is
        assert parser.next_request().body == wire

    def test_after_eof_and_over_the_limit_feed_refuses(self):
        parser = RequestParser()
        parser.feed_eof()
        with pytest.raises(HTTPError, match="after EOF"):
            parser.feed_whole(b"GET /x HTTP/1.1\r\n\r\n")
        with pytest.raises(HTTPError, match="size limit"):
            RequestParser(max_request=16).feed_whole(
                b"GET /x HTTP/1.1\r\n\r\n")


#: Requests a pipeline is made of: warm-route GETs, bodies (one of them
#: a GET's bytes), each way a Content-Length can be wrong,
#: Transfer-Encoding, a head over the memo's size bound, a malformed
#: request line and an empty head.
_PIECES = [
    b"GET /a.html HTTP/1.1\r\nHost: h\r\n\r\n",
    b"GET /b/../c.html HTTP/1.0\r\n\r\n",
    b"HEAD /a.html HTTP/1.1\r\nConnection: close\r\n\r\n",
    b"GET /a.html HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
    b"POST /p HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello",
    b"POST /p HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
    b"GET /p HTTP/1.1\r\nContent-Length: +5\r\n\r\n",
    b"GET /p HTTP/1.1\r\nContent-Length: 0x1\r\n\r\n",
    b"POST /p HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n"
    b"\r\nabc",
    b"POST /p HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
    b"GET /t HTTP/1.1\r\nTransfer-Encoding: identity\r\n\r\n",
    b"GET /big HTTP/1.1\r\nX-Pad: " + b"p" * (HEAD_MEMO_MAX_BYTES + 8)
    + b"\r\n\r\n",
    b"NOT-HTTP\r\n\r\n",
    b"\r\n\r\n",
    b"POST /p HTTP/1.1\r\nContent-Length: 33\r\n\r\n"
    b"GET /a.html HTTP/1.1\r\nHost: h\r\n\r\n",       # a body that is a GET
]


@st.composite
def cut_pipelines(draw):
    """A pipeline of requests, cut into the chunks that arrive, whether
    the peer then closes, and the parser's size limit.  Cuts fall at
    random bytes and, weighted in, where a request or its head ends —
    the cuts that make a chunk exactly one head."""
    pieces = draw(st.lists(st.sampled_from(_PIECES), min_size=1,
                           max_size=6))
    wire = b"".join(pieces)
    if draw(st.booleans()):
        wire = wire[:draw(st.integers(1, len(wire)))]   # cut off at EOF
    marks, offset = set(), 0
    for piece in pieces:
        marks |= {offset, offset + piece.find(b"\r\n\r\n") + 4}
        offset += len(piece)
    if len(wire) > 1:
        marks |= set(draw(st.lists(st.integers(1, len(wire) - 1),
                                   max_size=4)))
    marks = sorted(mark for mark in marks if 0 < mark < len(wire))
    cuts = sorted(draw(st.sets(st.sampled_from(marks)))) if marks else []
    chunks = [wire[start:end] for start, end
              in zip([0] + cuts, cuts + [len(wire)])]
    limit = draw(st.sampled_from([DEFAULT_MAX_REQUEST, 2048, 40]))
    return chunks, draw(st.booleans()), limit


def framed(chunks, eof, limit, whole):
    """What a parser makes of *chunks*, fed whole-chunk first or only
    by ``feed``: each request (head, body), each error, and the bytes
    left buffered after each."""
    parser = RequestParser(max_request=limit)
    log = []

    def note(*event):
        log.append(event + (bytes(parser._buffer),))

    def drain():
        while True:
            try:
                found = parser.next_head()
            except RecoverableProtocolError as exc:
                note("400", str(exc))
                continue
            except HTTPError as exc:
                note("fatal", str(exc))
                return False
            if found is None:
                return True
            head, body = found
            note("request", head.method, head.target, head.version,
                 list(head.headers.items()), head.route, body)

    for chunk in chunks:
        try:
            head = parser.feed_whole(chunk) if whole else parser.feed(chunk)
        except HTTPError as exc:
            note("fatal", str(exc))
            return log
        if head is not None:
            note("request", head.method, head.target, head.version,
                 list(head.headers.items()), head.route, b"")
        if not drain():
            return log
    if eof:
        parser.feed_eof()
        drain()
    return log


@settings(max_examples=300, deadline=None)
@given(cut_pipelines())
def test_whole_chunk_entry_frames_what_the_stream_frames(case):
    chunks, eof, limit = case
    assert framed(chunks, eof, limit, whole=True) == \
        framed(chunks, eof, limit, whole=False)
