"""Event-loop front end: nonblocking keep-alive serving on Linux ``epoll``.

:class:`AsyncDCWSServer` hosts the same :class:`DCWSEngine` as the
threaded front end (:mod:`repro.server.threaded`), but multiplexes every
client connection on a single event-loop thread instead of parking one
thread per connection.  The thread-per-connection model caps concurrency
at the worker count long before the engine saturates — an idle keep-alive
client pins a whole worker; here an idle connection costs one epoll
registration and a few hundred bytes of state, so one loop absorbs
thousands of concurrent keep-alive clients.  It needs ``select.epoll``
(Linux); the threaded front end is the portable one.

Structure:

- **One loop thread** owns the listener, a ``select.epoll`` object with
  an fd → handler map beside it, and every connection's read/write
  state machine (:class:`_Connection`).  An ``EPOLLHUP`` or ``EPOLLERR``
  counts as readable and writable, masked by the registered interest —
  what ``selectors`` makes of them.  Requests are parsed by the sans-I/O
  :class:`repro.http.wire.RequestParser` — the identical protocol code
  the threaded front end uses.
- **A warm GET is one turn.**  One epoll wake, one ``recv``, one engine
  call, one ``sendmsg``: a ``recv`` that holds exactly one whole
  bodiless head, on a connection with nothing buffered and nothing in
  flight, is framed by :meth:`~repro.http.wire.RequestParser.feed_whole`
  straight from the received bytes; the memoised
  :class:`~repro.http.wire.ParsedHead` goes to
  :meth:`~repro.server.dispatch.SocketHost._engine_dispatch`, whose
  warm route (:meth:`~repro.server.engine.DCWSEngine.serve_warm`)
  answers with the finished head bytes and the body its copy-cache
  entry holds, and the loop hands the two to one ``sendmsg`` as they
  are.  Every other chunk goes through the parser's stream
  (:meth:`_pump`, request by request); what the warm route does not
  answer becomes a :class:`~repro.http.messages.Request` and goes to
  ``engine.handle_request``.  In-memory dispatches stay on the loop:
  the loop never holds the engine lock longer than one of them.
- **Blocking work leaves the loop.**  Network transfers — lazy-migration
  pulls and the periodic validations and pings — plus the journal's
  fsync and checkpoints run on a small
  :class:`~concurrent.futures.ThreadPoolExecutor`; the work itself is
  :class:`repro.server.dispatch.SocketHost`'s, shared with the threaded
  front end.  A pull's completion re-enters the loop through a
  *self-pipe*: the executor thread appends a callback to a queue and
  writes one byte to a ``socketpair`` the loop watches, waking it.
- **Admission control lives at the accept edge** (where the paper's
  section 5.2 overload rule belongs): beyond ``config.max_connections``
  open connections, new arrivals are shed immediately with
  ``503 + Retry-After`` and never enter the loop.  Per-connection
  *read deadlines* kill slowloris-style dribbled requests — the deadline
  is armed when a request's first byte arrives and is only re-armed on
  request completion, so dribbling buys no extension.  *Write-buffer
  high-water marks* (``config.write_buffer_limit``) pause reading from a
  connection whose responses are not draining (backpressure), resuming
  below half the limit.

Responses on one connection are strictly ordered: while a pull is in
flight for a connection (``busy``), further pipelined
requests stay buffered in its parser and are dispatched only after the
completion posts back — one in-flight blocking job per connection.
"""

from __future__ import annotations

import collections
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from select import EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, epoll
from typing import Any, Callable, Deque, Dict, Optional, Tuple, Union

from repro.errors import HTTPError, RecoverableProtocolError, ReproError
from repro.http.messages import Request, Response, error_response
from repro.http.status import StatusCode
from repro.http.wire import ParsedHead, RequestParser
from repro.server.dispatch import SocketHost, close_quietly
from repro.server.engine import DCWSEngine, EngineReply

_RECV_CHUNK = 65536
#: Seconds between deadline checks, and the longest sleep in ``poll``.
_REAP_PERIOD = 0.1
_HANG_UP = EPOLLHUP | EPOLLERR


class _OutQueue:
    """Outbound byte segments of one connection — zero-copy.

    A deque of memoryview segments instead of one concatenated
    ``bytearray``: queuing a response appends references to its (shared,
    possibly cache-resident) head and body objects, never copying body
    bytes into a per-connection buffer, and partial writes advance by
    memoryview slicing.  ``len()`` is the total unsent byte count, so
    the backpressure arithmetic against ``write_buffer_limit`` is
    unchanged from the bytearray days.
    """

    __slots__ = ("_segments", "_size")

    def __init__(self) -> None:
        self._segments: Deque[memoryview] = collections.deque()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def append(self, data: bytes) -> None:
        if not data:
            return
        self._segments.append(memoryview(data))
        self._size += len(data)

    def buffers(self, limit: int = 16) -> "list[memoryview]":
        """Up to *limit* leading segments for one gather write (well
        under any platform's IOV_MAX)."""
        return [self._segments[index]
                for index in range(min(limit, len(self._segments)))]

    def advance(self, count: int) -> None:
        """Consume *count* bytes off the front after a (partial) write."""
        self._size -= count
        while count and self._segments:
            head = self._segments[0]
            if count >= len(head):
                count -= len(head)
                self._segments.popleft()
            else:
                self._segments[0] = head[count:]
                count = 0


class _Connection:
    """Per-connection state machine: parser in, segment queue out
    (``out`` holds only what a direct write left behind).

    ``deadline`` is the read deadman: armed at accept, re-armed when a
    request's *first* byte arrives (not on every byte — that is what
    defeats slowloris) and when a response is sent (idle keep-alive
    clock); :meth:`AsyncDCWSServer._reap` checks it every
    ``_REAP_PERIOD``.  ``busy`` marks a blocking dispatch in the executor;
    the connection is never reaped nor further dispatched while set.
    ``events`` mirrors the epoll registration (0: not registered) so
    interest updates are cheap and idempotent.
    """

    __slots__ = ("sock", "parser", "out", "served", "deadline", "busy",
                 "close_after_flush", "reads_paused", "events")

    def __init__(self, sock: socket.socket, deadline: float) -> None:
        self.sock = sock
        self.parser = RequestParser()
        self.out = _OutQueue()
        self.served = 0
        self.deadline = deadline
        self.busy = False
        self.close_after_flush = False
        self.reads_paused = False
        self.events = 0


class AsyncDCWSServer(SocketHost):
    """Host a :class:`DCWSEngine` behind a single-threaded event loop.

    Keyword arguments are :class:`SocketHost`'s.
    """

    def __init__(self, engine: DCWSEngine, **options: Any) -> None:
        super().__init__(engine, **options)
        self._epoll: Optional[epoll] = None
        # What epoll watches, by fd: a connection, or the listener's and
        # the self-pipe's handler.
        self._handlers: Dict[int, Union[_Connection,
                                        Callable[[], None]]] = {}
        self._thread: Optional[threading.Thread] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self.connections_shed = 0
        self._connections: Dict[socket.socket, _Connection] = {}
        # Self-pipe: executor threads append completions and write one
        # byte to wake the loop; the loop drains both.
        self._completions: Deque[Callable[[], None]] = collections.deque()
        self._wakeup_recv: Optional[socket.socket] = None
        self._wakeup_send: Optional[socket.socket] = None
        self._next_tick = 0.0
        self._running = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self, listener: Optional[socket.socket] = None) -> None:
        """Bind, listen, and launch the loop thread and executor.

        *listener*, already bound and listening, replaces the socket
        this method would open, for a caller that needs its own socket
        options.
        """
        if self._running:
            raise ReproError("server already started")
        with self._lock:
            now = time.monotonic()
            self._recover_state(now)
            self._last_snapshot = now
        if listener is None:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.bind_host, self.port))
            listener.listen(self.engine.config.listen_backlog)
        listener.setblocking(False)
        try:
            self.port = listener.getsockname()[1]
        except (OSError, IndexError):
            pass
        self._listener = listener
        self._executor = ThreadPoolExecutor(
            max_workers=self.engine.config.worker_threads,
            thread_name_prefix=f"dcws-exec-{self.port}")
        self._wakeup_recv, self._wakeup_send = socket.socketpair()
        self._wakeup_recv.setblocking(False)
        self._wakeup_send.setblocking(False)
        self._epoll = epoll()
        for sock, handler in ((listener, self._on_accept),
                              (self._wakeup_recv, self._on_wakeup)):
            self._handlers[sock.fileno()] = handler
            self._epoll.register(sock.fileno(), EPOLLIN)
        self._stop.clear()
        self._next_tick = time.monotonic() + self.tick_period
        self._running = True
        self._thread = threading.Thread(target=self._run_loop,
                                        name=f"dcws-aio-{self.port}",
                                        daemon=True)
        self._thread.start()
        self._started.set()

    def stop(self) -> None:
        """Stop the loop, drain the executor, close everything."""
        if not self._running:
            return
        self._locked_checkpoint()
        self._stop.set()
        self._wake()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
        self.pool.close()
        self._close_durability()
        self._listener = None
        self._thread = None
        self._executor = None
        self._running = False
        self._started.clear()

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------

    def _run_loop(self) -> None:
        assert self._epoll is not None
        poll = self._epoll.poll
        handlers = self._handlers
        next_reap = 0.0
        try:
            while not self._stop.is_set():
                timeout = min(max(self._next_tick - time.monotonic(), 0.0),
                              _REAP_PERIOD)
                for fd, event in poll(timeout):
                    # Looked up now, not when poll returned: a handler
                    # that ran earlier in this batch may have closed the
                    # fd, and an accept reused it.  The event is then a
                    # spurious one for a nonblocking socket, which a
                    # recv or flush shrugs off.
                    handler = handlers.get(fd)
                    if handler is None:
                        continue
                    if handler.__class__ is not _Connection:
                        handler()  # accept burst or wakeup drain
                        continue
                    if event & _HANG_UP:
                        event |= EPOLLIN | EPOLLOUT
                    event &= handler.events
                    try:
                        if event & EPOLLOUT:
                            self._flush(handler)
                            if handler.sock not in self._connections:
                                continue  # flushed its last and closed
                        if event & EPOLLIN:
                            self._read(handler)
                    except Exception:
                        # A broken connection must never kill the loop.
                        self._close(handler)
                now = time.monotonic()
                if now >= self._next_tick:
                    self._tick(now)
                    self._next_tick = now + self.tick_period
                if now >= next_reap:
                    self._reap(now)
                    next_reap = now + _REAP_PERIOD
        finally:
            self._shutdown_loop()

    def _shutdown_loop(self) -> None:
        for conn in list(self._connections.values()):
            self._close(conn)
        for sock in (self._listener, self._wakeup_recv, self._wakeup_send):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        self._wakeup_recv = None
        self._wakeup_send = None
        self._handlers.clear()
        if self._epoll is not None:
            self._epoll.close()
            self._epoll = None

    # -- self-pipe ------------------------------------------------------

    def _post(self, callback: Callable[[], None]) -> None:
        """Hand a callback from an executor thread to the loop."""
        self._completions.append(callback)
        self._wake()

    def _wake(self) -> None:
        send = self._wakeup_send
        if send is None:
            return
        try:
            send.send(b"\x00")
        except (BlockingIOError, OSError):
            pass  # pipe full or closing: the loop is waking anyway

    def _on_wakeup(self) -> None:
        assert self._wakeup_recv is not None
        try:
            while self._wakeup_recv.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass
        while self._completions:
            self._completions.popleft()()

    # -- accept edge: admission control ---------------------------------

    def _on_accept(self) -> None:
        assert self._listener is not None
        while True:
            try:
                sock, __ = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            self._admit(sock)

    def _admit(self, sock: socket.socket) -> None:
        """Admission control for one new client socket (loop thread)."""
        self.connections_accepted += 1
        sock.setblocking(False)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        if len(self._connections) >= self.engine.config.max_connections:
            self._shed(sock)
            return
        conn = _Connection(sock, time.monotonic() + self.request_timeout)
        self._connections[sock] = conn
        self._update_interest(conn)

    def _shed(self, sock: socket.socket) -> None:
        """Over the connection cap: graceful 503 drop at the edge.

        The 503 goes through the normal buffered write path — a real
        :class:`_Connection` with ``close_after_flush`` set and reads
        left paused — so a partial nonblocking send completes via
        ``EPOLLOUT`` events instead of truncating the response on the
        wire (a bare ``send()`` here used to do exactly that under
        pressure).  The accept path still never blocks: queuing is
        nonblocking, and a client that refuses to drain its 503 is
        reaped at the usual deadline.  The drop is tallied lock-free and
        drained into the engine metrics by the next tick, so drop
        pressure still feeds the advertised load metric.
        """
        self.connections_shed += 1
        conn = _Connection(sock, time.monotonic() + self.request_timeout)
        conn.close_after_flush = True
        conn.reads_paused = True
        self._connections[sock] = conn
        self._queue(conn, *self._wire_of(self._refuse()))

    # -- per-connection reads -------------------------------------------

    def _read(self, conn: _Connection) -> None:
        try:
            chunk = conn.sock.recv(_RECV_CHUNK)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close(conn)
            return
        now = time.monotonic()
        if chunk:
            parser = conn.parser
            arming = not parser.buffered
            head = None
            try:
                if conn.busy or conn.close_after_flush:
                    parser.feed(chunk)  # waits behind what is in flight
                else:
                    head = parser.feed_whole(chunk)
            except HTTPError:
                self._fail(conn, StatusCode.BAD_REQUEST)
                return
            if head is not None:
                # The whole-chunk turn: one request, nothing behind it,
                # answered now.
                self._turn(conn, head, b"", now)
                return
            if arming:
                # First byte of a new request: the whole request must
                # now arrive within request_timeout.  Deliberately not
                # re-armed per byte — a slowloris dribble gains nothing.
                conn.deadline = now + self.request_timeout
        else:
            conn.parser.feed_eof()
            self._update_interest(conn)  # stop watching a half-closed read side
        if not conn.busy:
            self._pump(conn, now)

    def _pump(self, conn: _Connection, now: float) -> None:
        """Dispatch every complete buffered request, in order.

        Stops when a blocking dispatch enters the executor (``busy``) —
        keeping responses ordered — or when the connection is closing.
        """
        while conn.parser.buffered and not conn.busy \
                and not conn.close_after_flush \
                and conn.sock in self._connections:
            try:
                found = conn.parser.next_head()
            except RecoverableProtocolError as exc:
                self._enqueue_response(conn, None, self._bad_framing(exc))
                continue
            except HTTPError:
                self._fail(conn, StatusCode.BAD_REQUEST)
                return
            if found is None:
                break
            self._turn(conn, *found, now)
        if conn.parser.eof and not conn.busy \
                and not conn.close_after_flush \
                and conn.sock in self._connections:
            # Peer finished sending cleanly; flush what we owe and close.
            conn.close_after_flush = True
            self._flush(conn)

    # -- dispatch -------------------------------------------------------

    def _pressure(self) -> float:
        """Open connections against the admission cap, as a fraction."""
        return len(self._connections) / self.engine.config.max_connections

    def _turn(self, conn: _Connection, head: ParsedHead, body: bytes,
              now: float) -> None:
        """Answer one framed request: the engine's warm triple or its
        reply onto the wire, or its pull into the executor."""
        result = self._engine_dispatch(head, now, body=body,
                                       served=conn.served + 1)
        if result.__class__ is tuple:
            self._answer(conn, *result)
            return
        if isinstance(result, EngineReply):
            self._enqueue_response(conn, head, result.response)
            return
        # A pull blocks on the network: hand off to the executor; the
        # completion re-enters the loop via the self-pipe.  One in-flight
        # job per connection keeps pipelined responses ordered.
        conn.busy = True

        def run(pull=result):
            try:
                response = self._execute_pull(pull)
            except Exception:
                response = error_response(StatusCode.INTERNAL_SERVER_ERROR,
                                          "directive execution failed")
                response.headers.set("Connection", "close")
            self._post(lambda: self._complete_dispatch(conn, head,
                                                       response))

        self._executor.submit(run)

    def _complete_dispatch(self, conn: _Connection, head: ParsedHead,
                           response: Response) -> None:
        """Loop-side completion of an executor dispatch."""
        conn.busy = False
        if conn.sock not in self._connections:
            return  # the connection died while the work ran
        self._enqueue_response(conn, head, response)
        if conn.sock in self._connections:
            self._pump(conn, time.monotonic())

    def _enqueue_response(self, conn: _Connection,
                          request: Union[Request, ParsedHead, None],
                          response: Response) -> None:
        """Settle keep-alive for *response* and answer with it."""
        keep = self._settle_keep_alive(conn.served + 1, request, response)
        self._answer(conn, *self._wire_of(response), keep)

    def _answer(self, conn: _Connection, head: bytes, body: bytes,
                keep: bool) -> None:
        """Count the connection's next answer, mark it the last unless
        *keep*, re-arm the deadline and put head and body on the wire,
        behind whatever is queued.

        With nothing queued — the usual turn — one ``sendmsg`` hands the
        kernel the head and the (possibly cached, shared) body object
        itself.  Only what it did not take, or what must wait behind an
        earlier remainder, is queued (:meth:`_queue`).
        """
        conn.served += 1
        if not keep:
            conn.close_after_flush = True
        # Idle keep-alive clock; doubles as the write deadman — a client
        # that never drains its responses is reaped at the same deadline.
        conn.deadline = time.monotonic() \
            + self.engine.config.keep_alive_timeout
        sent = 0
        if not conn.out:
            try:
                sent = conn.sock.sendmsg((head, body))
            except (BlockingIOError, InterruptedError):
                pass
            except OSError:
                self._close(conn)
                return
            if sent == len(head) + len(body):
                if conn.close_after_flush:
                    self._close(conn)
                return
        self._queue(conn, head, body, sent)

    @staticmethod
    def _wire_of(response: Response) -> Tuple[bytes, bytes]:
        """*response* as head bytes and body bytes."""
        body = response.body
        if response.body_file is not None and not body:
            # No sendfile on a nonblocking loop socket (the engine leaves
            # sendfile_enabled off for this host); read defensively in
            # case a FileBody response arrives by another route.
            with open(response.body_file.path, "rb") as handle:
                body = handle.read()
        return response.serialize_head(), body

    def _queue(self, conn: _Connection, head: bytes, body: bytes,
               sent: int = 0) -> None:
        """Queue head and body, less the *sent* bytes the kernel already
        took, as :class:`_OutQueue` segments behind whatever is queued,
        and flush: :meth:`_flush` is the one drain of the queue
        (backpressure, ``close_after_flush`` and the write deadman hang
        on it)."""
        conn.out.append(head)
        conn.out.append(body)
        conn.out.advance(sent)
        self._flush(conn)

    def _fail(self, conn: _Connection, status: int) -> None:
        """Protocol violation: answer once, stop reading, close."""
        response = error_response(status)
        response.headers.set("Connection", "close")
        conn.close_after_flush = True
        conn.reads_paused = True
        self._queue(conn, *self._wire_of(response))

    # -- writes ---------------------------------------------------------

    def _flush(self, conn: _Connection) -> None:
        """Drain what is queued, then set reads against the queue.

        Backpressure lives here, beside the one drain: a queue at
        ``write_buffer_limit`` pauses reading from the connection (its
        responses are not draining), and reading resumes once the queue
        is back under half the limit.
        """
        if conn.sock not in self._connections:
            return
        if conn.out:
            try:
                # Gather write straight from the segment queue: one
                # syscall covers head + body (+ pipelined followers)
                # with zero user-space concatenation.
                sent = conn.sock.sendmsg(conn.out.buffers())
                if sent:
                    conn.out.advance(sent)
            except (BlockingIOError, InterruptedError):
                pass
            except OSError:
                self._close(conn)
                return
        if conn.close_after_flush and not conn.out:
            self._close(conn)
            return
        limit = self.engine.config.write_buffer_limit
        if len(conn.out) >= limit:
            conn.reads_paused = True
        elif conn.reads_paused and not conn.close_after_flush \
                and len(conn.out) <= limit // 2:
            conn.reads_paused = False  # backpressure released
        self._update_interest(conn)

    def _update_interest(self, conn: _Connection) -> None:
        """Register what the connection waits for — reads unless paused
        or half-closed, writes while anything is queued — with epoll and
        in the handler map."""
        desired = 0
        if not conn.reads_paused and not conn.parser.eof:
            desired |= EPOLLIN
        if conn.out:
            desired |= EPOLLOUT
        if desired == conn.events or self._epoll is None:
            return
        try:
            fd = conn.sock.fileno()
            if conn.events == 0:
                self._epoll.register(fd, desired)
                self._handlers[fd] = conn
            elif desired == 0:
                self._epoll.unregister(fd)
                del self._handlers[fd]
            else:
                self._epoll.modify(fd, desired)
            conn.events = desired
        except (KeyError, ValueError, OSError):
            self._close(conn)

    def _close(self, conn: _Connection) -> None:
        self._connections.pop(conn.sock, None)
        if conn.events and self._epoll is not None:
            fd = conn.sock.fileno()
            self._handlers.pop(fd, None)
            try:
                self._epoll.unregister(fd)
            except (ValueError, OSError):
                pass
        conn.events = 0
        close_quietly(conn.sock)

    # -- deadlines ------------------------------------------------------

    def _reap(self, now: float) -> None:
        """Close connections past their read/idle deadline.

        Kills idle keep-alive holders, stalled half-requests (slowloris)
        and clients that stopped draining responses.  Connections with a
        dispatch in the executor are exempt until the completion posts.
        Walks every open connection, so it runs once per ``_REAP_PERIOD``,
        not once per loop pass: a deadline fires at most that much late.
        """
        if not self._connections:
            return
        expired = [conn for conn in self._connections.values()
                   if not conn.busy and now >= conn.deadline]
        for conn in expired:
            self._close(conn)

    # ------------------------------------------------------------------
    # Periodic machinery (statistics, migration, validation, pinger)
    # ------------------------------------------------------------------

    def _tick(self, now: float) -> None:
        """The periodic pass; its blocking steps go to the executor —
        transfers and fsyncs are exactly what the loop must not wait on."""
        self._periodic_pass(now, self._executor.submit)
