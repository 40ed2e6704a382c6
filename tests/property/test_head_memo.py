"""Property: the head memo changes no parse.

:class:`repro.http.wire.RequestParser` keeps what each request head
parsed to in one process-wide, bounded memo.  For generated heads — dot
segments and queries, obs-fold lines and duplicate fields, ``Connection``
tokens and ``Accept-Encoding`` q-values, good, bad and conflicting
``Content-Length`` values, ``X-DCWS-*`` fields, and broken lines — a
cold parse (empty memo), a warm parse (the same bytes again) and a
direct :func:`~repro.http.messages.parse_request_head` must agree on
everything a request carries: method, target, version, body, header
items, every ``_Facts`` slot and the route.  A head that does not parse
raises the same exception with the same message on every pass and is
never stored.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import HTTPError, InvalidContentLength, RecoverableProtocolError
from repro.http import messages
from repro.http.headers import _Facts
from repro.http.messages import parse_request_head
from repro.http.urls import normalize_path
from repro.http.wire import (
    HEAD_MEMO_ENTRIES,
    HEAD_MEMO_MAX_BYTES,
    RequestParser,
    _parsed_head,
)

_SEGMENTS = ["a", "b.html", ".", "..", "", "~migrate", "127.0.0.1", "x%20y"]

_FIELDS = st.one_of(
    st.tuples(st.sampled_from(["Host", "host"]),
              st.sampled_from(["h", "127.0.0.1:18000"])),
    st.tuples(st.sampled_from(["Connection", "connection", "CONNECTION"]),
              st.lists(st.sampled_from(["close", "keep-alive", "Keep-Alive",
                                        " upgrade ", "", "TE"]),
                       max_size=3).map(",".join)),
    st.tuples(st.sampled_from(["Accept-Encoding", "accept-encoding"]),
              st.lists(st.sampled_from(["gzip", "gzip;q=0", "gzip; q=0.5",
                                        "x-gzip;q=1", "gzip;q=abc",
                                        "identity", "br", "*;q=0"]),
                       max_size=3).map(", ".join)),
    st.tuples(st.sampled_from(["Content-Length", "content-length"]),
              st.sampled_from(["0", "3", "12", "007", "0", "3", "-1", "+5",
                               "0x1", "1_0", "4.2", "5,5", ""])),
    st.tuples(st.sampled_from(["X-DCWS-Sender", "x-dcws-sender"]),
              st.sampled_from(["", "127.0.0.1:18001"])),
    st.tuples(st.just("X-DCWS-Purpose"), st.sampled_from(["ping", "probe"])),
    st.tuples(st.just("X-DCWS-Version"), st.sampled_from(["3", ""])),
    st.tuples(st.just("Range"), st.just("bytes=0-9")),
    st.tuples(st.sampled_from(["If-None-Match", "If-Modified-Since"]),
              st.sampled_from(['"crc32-1"', "Fri, 01 Jan 1999 00:00:01 GMT"])),
)

#: Lines that are not ``Name: value``: obs-fold continuations (legal
#: after a field, an error before any) and malformed lines.
_ODD_LINES = st.sampled_from([" folded", "\tmore, close", "  ", "NoColon",
                              "Bad Name: x", "Name : x", "(x): y"])


@st.composite
def heads(draw):
    """Request-head bytes, the blank line cut off; some do not parse."""
    # Repeats weight the draws (``sampled_from`` picks uniformly), so
    # most heads parse and every way of failing still turns up.
    method = draw(st.sampled_from(["GET", "GET", "HEAD", "POST", "PUT"]))
    path = "/" + "/".join(draw(st.lists(st.sampled_from(_SEGMENTS),
                                        max_size=5)))
    query = draw(st.sampled_from(["", "?q=1", "?next=/a/../b", "?"]))
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/1.1",
                                    "HTTP/2"]))
    line = f"{method} {path}{query} {version}"
    line = draw(st.sampled_from([line] * 12 + [
        line.replace(" ", "\t", 1), line + " extra",
        f"{method} a{path} {version}"]))
    lines = [line]
    for __ in range(draw(st.integers(0, 6))):
        if draw(st.sampled_from([False] * 9 + [True])):
            lines.append(draw(_ODD_LINES))
        else:
            name, value = draw(_FIELDS)
            lines.append(f"{name}: {value}")
    return "\r\n".join(lines).encode("latin-1")


def parse_once(head: bytes, body: bytes = b""):
    """One pass through a fresh parser: the request, or the exception."""
    parser = RequestParser()
    parser.feed(head + b"\r\n\r\n" + body)
    try:
        return parser.next_request()
    except HTTPError as exc:
        return exc


def snapshot(request):
    facts = request.headers.facts()
    return (request.method, request.target, request.version, request.body,
            list(request.headers.items()),
            {slot: getattr(facts, slot) for slot in _Facts.__slots__},
            request.route)


@settings(max_examples=400, deadline=None)
@given(heads())
def test_cold_warm_and_direct_parses_agree(head):
    try:
        expected_request, length = parse_request_head(head.decode("latin-1"))
    except HTTPError as exc:
        expected_error = exc
    else:
        expected_error = None
    body = b"b" * (length if expected_error is None else 0)

    _parsed_head.cache_clear()
    cold = parse_once(head, body)
    stored = _parsed_head.cache_info().currsize
    warm = parse_once(head, body)
    again = parse_once(head, body)

    if expected_error is not None:
        # Raised on every pass, with the same text, and never stored.
        assert stored == 0
        wanted = (RecoverableProtocolError
                  if isinstance(expected_error, InvalidContentLength)
                  else type(expected_error))
        for outcome in (cold, warm, again):
            assert type(outcome) is wanted
            assert str(outcome) == str(expected_error)
        assert _parsed_head.cache_info().currsize == 0
        return

    assert stored == 1 and _parsed_head.cache_info().hits == 2
    expected_request.body = body
    expected = snapshot(expected_request)
    assert expected[-1] == normalize_path(expected_request.path)
    assert snapshot(cold) == snapshot(warm) == snapshot(again) == expected
    # Every pass hands out its own field list.
    assert cold.headers is not warm.headers is not again.headers


def test_editing_a_request_leaves_the_next_parse_alone():
    head = (b"GET /a/./b.html?x=1 HTTP/1.1\r\nHost: h\r\n"
            b"Connection: keep-alive\r\nAccept-Encoding: gzip")
    first = parse_once(head)
    before = snapshot(first)
    first.headers.set("Connection", "close")
    first.headers.add("X-Added", "1")
    first.headers.remove("Accept-Encoding")
    first.target = "/elsewhere"
    assert first.headers.facts().close and not first.headers.facts().gzip
    assert first.route == "/elsewhere"
    second = parse_once(head)
    assert snapshot(second) == before
    assert second.route == "/a/b.html"


def test_a_warm_head_arrives_with_its_route(monkeypatch):
    head = b"GET /a/../b/./c.html?x=/.. HTTP/1.1\r\nHost: h"
    assert parse_once(head).route == "/b/c.html"
    calls = []
    monkeypatch.setattr(messages, "normalize_path",
                        lambda path: calls.append(path) or path)
    assert parse_once(head).route == "/b/c.html"
    assert calls == []


def test_the_memo_stays_bounded():
    _parsed_head.cache_clear()
    for number in range(10_000):
        request = parse_once(f"GET /doc-{number}.html HTTP/1.1\r\n"
                             f"Host: h".encode())
        assert request.target == f"/doc-{number}.html"
    info = _parsed_head.cache_info()
    assert info.maxsize == HEAD_MEMO_ENTRIES == 4096
    assert info.currsize == HEAD_MEMO_ENTRIES


@pytest.mark.parametrize("extra, kept", [(0, True), (1, False), (4000, False)])
def test_a_long_head_parses_but_is_not_kept(extra, kept):
    start = b"GET /a/../long.html HTTP/1.1\r\nConnection: close\r\nX-Pad: "
    head = start + b"p" * (HEAD_MEMO_MAX_BYTES - len(start) + extra)
    assert len(head) == HEAD_MEMO_MAX_BYTES + extra
    _parsed_head.cache_clear()
    for __ in range(2):
        request = parse_once(head)
        assert request.route == "/long.html"
        assert request.headers.facts().close
        assert request.headers.get("X-Pad") == head[len(start):].decode()
    assert _parsed_head.cache_info().currsize == int(kept)
