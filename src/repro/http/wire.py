"""Sans-I/O incremental HTTP request parsing: the shared protocol core.

Both real front ends — the thread-per-connection server
(:mod:`repro.server.threaded`) and the event-loop server
(:mod:`repro.server.aio`) — speak the same wire protocol: requests with a
CRLF-terminated head, bodies framed by ``Content-Length``, pipelining,
and hard size limits.  :class:`RequestParser` implements that protocol
once, over plain byte buffers, with no sockets, threads or clocks, so the
blocking reader and the nonblocking connection state machine are shims
over one tested implementation.

Usage pattern (the "feed bytes, ask for requests" loop)::

    parser = RequestParser()
    parser.feed(chunk)            # from recv(); raises HTTPError on abuse
    request = parser.next_request()
    if request is None:           # incomplete: need more bytes (or clean EOF)
        ...
    parser.feed_eof()             # the peer half-closed

``next_request`` returns each complete pipelined request in order,
``None`` while more bytes are needed — and, after :meth:`feed_eof`,
``None`` exactly when the stream ended *between* requests.  An EOF in the
middle of a request head or body raises :class:`HTTPError`: a truncated
request is never silently accepted.

A closed-loop client's ``recv`` usually holds exactly one bodiless
request.  :meth:`RequestParser.feed_whole` takes such a chunk whole —
no copy into the stream buffer, no scan for the next head — and hands
every other chunk to :meth:`~RequestParser.feed`, so one copy of the
framing rules decides both ways in.

Traffic repeats whole request heads byte for byte, so each head is parsed
once per process: :func:`_parsed_head` memoises what
:func:`~repro.http.messages.parse_request_head` makes of the head bytes as
one :class:`ParsedHead` — method, target, version, a field template whose
facts are worked out, the ``Content-Length`` frame and the normalised
route — in a bounded ``lru_cache`` (:data:`HEAD_MEMO_ENTRIES` heads, least
recently used out).  A front end hands the shared :class:`ParsedHead`
itself (:meth:`RequestParser.next_head`) to the engine's warm route,
which only reads it; a :class:`~repro.http.messages.Request` — with its
own copy of the template, so a handler that edits its request's fields
never edits the memo — is built only for a request that route does not
answer (:meth:`ParsedHead.request`, :meth:`RequestParser.next_request`).
A head that raises is never stored (it raises again on every pass), and a
head longer than :data:`HEAD_MEMO_MAX_BYTES` is parsed every time and
never kept, so a client cannot pin large keys.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

from repro.errors import (
    HTTPError,
    InvalidContentLength,
    RecoverableProtocolError,
)
from repro.http.messages import Request, parse_request_head

#: Default bound on one buffered request (head + body), matching the
#: limit both front ends enforced historically.
DEFAULT_MAX_REQUEST = 1024 * 1024

#: The head memo's bounds: at most this many heads (a 20,000-request
#: ``browse_mix`` script holds about 3,950 distinct ones), each at most
#: this many bytes.
HEAD_MEMO_ENTRIES = 4096
HEAD_MEMO_MAX_BYTES = 1024

_HEAD_TERMINATOR = b"\r\n\r\n"


class ParsedHead:
    """What one request head parses to: method, target, version, the
    field template (facts filled), the body length ``Content-Length``
    frames, and the route.  Shared by every request that sends the same
    head bytes, so nothing edits one; :meth:`request` makes the editable
    :class:`Request` the slow path takes."""

    __slots__ = ("method", "target", "version", "headers", "length", "route")

    def __init__(self, request: Request, length: int) -> None:
        self.method = request.method
        self.target = request.target
        self.version = request.version
        self.headers = request.headers
        self.length = length
        self.route = request.route
        self.headers.facts()

    def request(self, body: bytes = b"") -> Request:
        """A :class:`Request` of its own for this head and *body*."""
        request = Request(self.method, self.target, self.headers.copy(),
                          self.version, body)
        request._route = (self.target, self.route)
        return request


def _parse_head(head: bytes) -> ParsedHead:
    """Parse *head* (request line and fields, no blank line) once."""
    return ParsedHead(*parse_request_head(head.decode("latin-1")))


#: The process-wide memo.  ``lru_cache`` stores only heads that parsed,
#: and its bookkeeping is safe under the threaded host's workers.
_parsed_head = lru_cache(maxsize=HEAD_MEMO_ENTRIES)(_parse_head)


def parsed_head(head: bytes) -> ParsedHead:
    """:func:`_parse_head`, through the memo when *head* is short
    enough to keep."""
    return (_parsed_head if len(head) <= HEAD_MEMO_MAX_BYTES
            else _parse_head)(head)


class RequestParser:
    """Incremental parser for a stream of pipelined HTTP requests.

    State per connection: the unconsumed byte buffer, a cached position
    of the current head terminator (so dribbled one-byte feeds do not
    rescan the whole buffer), and the EOF flag.
    """

    __slots__ = ("max_request", "_buffer", "_eof", "_head_end", "_scanned")

    def __init__(self, max_request: int = DEFAULT_MAX_REQUEST) -> None:
        self.max_request = max_request
        self._buffer = bytearray()
        self._eof = False
        self._head_end = -1   # cached find() result for the current head
        self._scanned = 0     # bytes already scanned without finding it

    @property
    def buffered(self) -> bool:
        """Unconsumed bytes are waiting (a partial or pipelined request)."""
        return bool(self._buffer)

    @property
    def eof(self) -> bool:
        """The peer has finished sending (:meth:`feed_eof` was called)."""
        return self._eof

    def feed(self, data: bytes) -> None:
        """Add received bytes.  Raises :class:`HTTPError` when the
        buffered request exceeds the size limit."""
        if not data:
            return
        if self._eof:
            raise HTTPError("bytes fed after EOF")
        self._buffer.extend(data)
        if len(self._buffer) > self.max_request:
            raise HTTPError("request exceeds size limit")

    def feed_whole(self, data: bytes) -> Optional[ParsedHead]:
        """Feed one received chunk; return its head when the chunk is a
        whole bodiless request on its own.

        The usual turn of a closed-loop client: nothing is buffered and
        the chunk is exactly one head, its terminator at the very end, no
        longer than :data:`HEAD_MEMO_MAX_BYTES`, and the head parses with
        no body to frame.  Then the chunk is consumed as it is — no copy
        into the stream buffer, no second scan — and its memoised
        :class:`ParsedHead` is returned, as :meth:`next_head` would have
        returned it.  Any other chunk (a partial or pipelined request, a
        body, a head the memo does not keep, one that does not parse, a
        chunk after EOF or over the size limit) is handed to :meth:`feed`
        and ``None`` returned, so :meth:`feed` and :meth:`next_head`
        frame it, or refuse it, exactly as they frame any chunk.
        """
        end = len(data) - 4
        if not self._buffer and 0 <= end <= HEAD_MEMO_MAX_BYTES \
                and data.find(_HEAD_TERMINATOR) == end \
                and not self._eof and end + 4 <= self.max_request:
            try:
                head = _parsed_head(data[:end])
            except HTTPError:
                pass    # refused again, by next_head, the one way it is
            else:
                if not head.length:
                    return head
        self.feed(data)
        return None

    def feed_eof(self) -> None:
        """The peer closed its sending side; no more bytes will arrive."""
        self._eof = True

    def next_request(self) -> Optional[Request]:
        """Return the next complete request, or ``None`` — as
        :meth:`next_head` does, as a :class:`Request` of its own."""
        found = self.next_head()
        if found is None:
            return None
        head, body = found
        return head.request(body)

    def next_head(self) -> Optional[Tuple[ParsedHead, bytes]]:
        """Consume the next complete request; return its memoised head
        and its body, or ``None``.

        ``None`` means "need more bytes" — or, once :meth:`feed_eof` was
        called, "the stream ended cleanly at a request boundary".  EOF
        with a partial request buffered raises :class:`HTTPError`, as
        does a malformed head or an over-limit body.

        Content-Length is validated strictly before it frames anything.
        A value that is not a plain non-negative integer raises
        :class:`~repro.errors.RecoverableProtocolError` *after consuming
        exactly the offending head* — such a value frames no body, so the
        connection stays correctly delimited and the next pipelined
        request still parses.  (Trusting the raw value was the original
        desync bug: a negative length shrank the buffer delete below the
        head and left residual head bytes framing every later request.)
        Multiple *differing* Content-Length fields are ambiguous framing —
        the request-smuggling vector — and raise plain
        :class:`HTTPError`: the connection must close.
        """
        head_end = self._find_head_end()
        if head_end < 0:
            if self._eof and self._buffer:
                raise HTTPError("connection closed before request completed")
            return None
        try:
            head = parsed_head(bytes(self._buffer[:head_end]))
        except InvalidContentLength as exc:
            self._consume(head_end + 4)
            raise RecoverableProtocolError(str(exc)) from exc
        needed = head_end + 4 + head.length
        if needed > self.max_request:
            raise HTTPError("request exceeds size limit")
        if len(self._buffer) < needed:
            if self._eof:
                raise HTTPError("connection closed before request body "
                                "completed")
            return None
        body = bytes(self._buffer[head_end + 4:needed]) if head.length \
            else b""
        self._consume(needed)
        return head, body

    def _consume(self, count: int) -> None:
        """Drop *count* leading buffer bytes and reset the head-scan cache."""
        if count == len(self._buffer):
            self._buffer.clear()  # the usual case: one request, all of it
        else:
            del self._buffer[:count]
        self._head_end = -1
        self._scanned = 0

    def _find_head_end(self) -> int:
        """Position of the current request's head terminator, cached.

        The scan resumes where the last failed one stopped (minus the
        terminator length, in case it straddles two feeds), so a slowly
        dribbled head costs linear, not quadratic, work.
        """
        if self._head_end < 0:
            start = max(0, self._scanned - (len(_HEAD_TERMINATOR) - 1))
            self._head_end = self._buffer.find(_HEAD_TERMINATOR, start)
            if self._head_end < 0:
                self._scanned = len(self._buffer)
        return self._head_end
