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
"""

from __future__ import annotations

from typing import Optional

from repro.errors import (
    HTTPError,
    InvalidContentLength,
    RecoverableProtocolError,
)
from repro.http.messages import Request, parse_request_head

#: Default bound on one buffered request (head + body), matching the
#: limit both front ends enforced historically.
DEFAULT_MAX_REQUEST = 1024 * 1024

_HEAD_TERMINATOR = b"\r\n\r\n"


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

    def feed_eof(self) -> None:
        """The peer closed its sending side; no more bytes will arrive."""
        self._eof = True

    def next_request(self) -> Optional[Request]:
        """Return the next complete request, or ``None``.

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
            request, expected = parse_request_head(
                self._buffer[:head_end].decode("latin-1"))
        except InvalidContentLength as exc:
            self._consume(head_end + 4)
            raise RecoverableProtocolError(str(exc)) from exc
        needed = head_end + 4 + expected
        if needed > self.max_request:
            raise HTTPError("request exceeds size limit")
        if len(self._buffer) < needed:
            if self._eof:
                raise HTTPError("connection closed before request body "
                                "completed")
            return None
        if expected:
            request.body = bytes(self._buffer[head_end + 4:needed])
        self._consume(needed)
        return request

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
