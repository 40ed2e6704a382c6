"""The real multithreaded DCWS server (paper section 5.1).

Mirrors the prototype's structure: a multithreaded HTTP *front-end* that
accepts and parses requests, a *worker* module with a pool of threads that
process and respond, and a *statistics/pinger* thread maintaining the
global load table and periodic machinery.  The multithreaded paradigm (vs
pool-of-processes) is what lets all workers share the Local Document Graph
and Global Load Table through one in-memory :class:`DCWSEngine`.

Request-drop behaviour follows section 5.2: when the bounded connection
queue is full, the connection is "dropped gracefully with a 503 error
response" by the front-end itself.  The drop is tallied in a plain
counter owned by the front-end thread and drained into the engine metrics
by the periodic thread, so the accept loop never waits on the engine lock
— exactly the overload that causes drops must not stall accepting.

Connections are persistent: a worker serves multiple requests per
connection (``Connection: keep-alive`` / HTTP/1.1 semantics, pipelining
included) under an idle timeout and a per-connection request cap, and
server-to-server transfers (lazy pulls, validations, pings) ride pooled
keep-alive channels (:class:`repro.client.pool.ConnectionPool`) instead
of opening one TCP connection per transfer.

The engine is guarded by one lock, and every engine call — the cached-GET
short-circuit and dirty-document regeneration included — runs under it;
only network I/O (reading requests, sending responses, server-to-server
transfers) happens outside the lock.  What this front end shares with the
event-loop one lives in :class:`repro.server.dispatch.SocketHost`.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from typing import Any, List, Optional, Set, Tuple

from repro.errors import HTTPError, RecoverableProtocolError, ReproError
from repro.http.messages import Response, error_response
from repro.http.status import StatusCode
from repro.http.wire import ParsedHead, RequestParser
from repro.server.dispatch import LISTEN_BACKLOG, SocketHost, close_quietly
from repro.server.engine import DCWSEngine

_RECV_CHUNK = 65536


class ThreadedDCWSServer(SocketHost):
    """Host a :class:`DCWSEngine` on real sockets with real threads.

    Keyword arguments are :class:`SocketHost`'s.
    """

    def __init__(self, engine: DCWSEngine, **options: Any) -> None:
        super().__init__(engine, **options)
        # Blocking sockets can drive os.sendfile: let the engine defer
        # large disk-backed bodies to the transport (FileBody responses).
        engine.sendfile_enabled = True
        self._threads: List[threading.Thread] = []
        self._connections: "queue.Queue[socket.socket]" = queue.Queue(
            maxsize=engine.config.socket_queue_length)
        # Client sockets in the hands of a worker; stop() shuts them down
        # so no worker sits out keep_alive_timeout in recv.
        self._serving: Set[socket.socket] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Bind, listen, and launch front-end, worker and periodic threads."""
        if self._listener is not None:
            raise ReproError("server already started")
        with self._lock:
            now = time.monotonic()
            self._recover_state(now)
            self._last_snapshot = now
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.bind_host, self.port))
        listener.listen(LISTEN_BACKLOG)
        listener.settimeout(0.2)
        self.port = listener.getsockname()[1]   # the bound one, for port 0
        self._listener = listener
        self._threads = []
        front_end = threading.Thread(target=self._front_end_loop,
                                     name=f"dcws-frontend-{self.port}",
                                     daemon=True)
        self._threads.append(front_end)
        for index in range(self.engine.config.worker_threads):
            worker = threading.Thread(target=self._worker_loop,
                                      name=f"dcws-worker-{self.port}-{index}",
                                      daemon=True)
            self._threads.append(worker)
        periodic = threading.Thread(target=self._periodic_loop,
                                    name=f"dcws-periodic-{self.port}",
                                    daemon=True)
        self._threads.append(periodic)
        for thread in self._threads:
            thread.start()
        self._started.set()

    def stop(self) -> None:
        """Stop accepting, drain threads, close the listener."""
        if self._listener is not None:
            self._locked_checkpoint()
        self._stop.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        for connection in list(self._serving):
            # A worker parked in recv on an idle keep-alive peer sees
            # EOF at once and leaves through its clean-close path.
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=5.0)
        self.pool.close()
        self._close_durability()
        self._listener = None
        self._threads = []

    # ------------------------------------------------------------------
    # Front-end thread: accept + enqueue, 503 on overflow
    # ------------------------------------------------------------------

    def _front_end_loop(self) -> None:
        assert self._listener is not None
        while not self._stop.is_set():
            try:
                connection, __ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self.connections_accepted += 1
            connection.settimeout(self.request_timeout)
            try:
                # Responses are single sendall() calls; Nagle only delays
                # the handful of small frames (503 drops, 304s).
                connection.setsockopt(socket.IPPROTO_TCP,
                                      socket.TCP_NODELAY, 1)
            except OSError:
                pass
            try:
                self._connections.put_nowait(connection)
            except queue.Full:
                self._drop_connection(connection)

    def _drop_connection(self, connection: socket.socket) -> None:
        """Graceful 503 drop (section 5.2) when the queue overflows."""
        try:
            send_response(connection, self._refuse())
        except OSError:
            pass
        finally:
            close_quietly(connection)

    # ------------------------------------------------------------------
    # Worker threads
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            try:
                connection = self._connections.get(timeout=0.2)
            except queue.Empty:
                continue
            # Registered before _serve_connection reads the stop flag, so
            # stop() either finds the socket or the worker sees the flag.
            self._serving.add(connection)
            try:
                self._serve_connection(connection)
            except Exception:
                # A broken connection must never kill a worker.
                pass
            finally:
                self._serving.discard(connection)
                close_quietly(connection)

    def _serve_connection(self, connection: socket.socket) -> None:
        """Serve requests off one connection until it closes.

        Honours persistent-connection semantics: after each response the
        worker keeps the connection (an idle timeout replacing the request
        timeout) and serves the next request — including ones already
        pipelined into the reader's buffer — until the peer asks to close,
        goes quiet, or the per-connection request cap is reached.
        """
        config = self.engine.config
        reader = _RequestReader(connection)
        served = 0
        while not self._stop.is_set():
            if served and not reader.buffered:
                connection.settimeout(config.keep_alive_timeout)
            try:
                found = reader.read_head()
            except socket.timeout:
                return  # idle keep-alive connection (or stalled peer)
            except RecoverableProtocolError as exc:
                served += 1
                response = self._bad_framing(exc)
                keep = self._settle_keep_alive(served, None, response)
                try:
                    send_response(connection, response)
                except OSError:
                    return
                if not keep:
                    return
                continue
            except (HTTPError, OSError):
                _send_quietly(connection, error_response(
                    StatusCode.BAD_REQUEST))
                return
            if found is None:
                return  # peer closed cleanly at a request boundary
            if served:
                connection.settimeout(self.request_timeout)
            served += 1
            head, body = found
            result = self._dispatch_blocking(head, body, served)
            try:
                if isinstance(result, tuple):   # warm: sent as it is
                    wire, payload, keep = result
                    send_bytes(connection, wire, payload)
                else:
                    keep = self._settle_keep_alive(served, head, result)
                    send_response(connection, result)
            except OSError:
                return
            if not keep:
                return

    def _pressure(self) -> float:
        """Depth of the bounded hand-off queue, as a fraction."""
        return self._connections.qsize() / \
            self.engine.config.socket_queue_length

    # ------------------------------------------------------------------
    # Periodic thread: statistics, migration decisions, validation, pinger
    # ------------------------------------------------------------------

    def _periodic_loop(self) -> None:
        while not self._stop.is_set():
            self._periodic_pass(time.monotonic(),
                                lambda step, *args: step(*args))
            self._stop.wait(self.tick_period)


class _RequestReader:
    """Blocking shim over the sans-I/O parser for one connection.

    All protocol behaviour — pipelining, Content-Length framing, size
    limits, truncation rejection — lives in
    :class:`repro.http.wire.RequestParser`; this class only moves bytes
    from a blocking socket into it.  A peer that closes mid-request
    raises :class:`HTTPError` — a truncated request is never silently
    accepted.
    """

    __slots__ = ("_connection", "_parser")

    def __init__(self, connection: socket.socket) -> None:
        self._connection = connection
        self._parser = RequestParser()

    @property
    def buffered(self) -> bool:
        """Bytes of a further (pipelined) request are already waiting."""
        return self._parser.buffered

    def read_head(self) -> Optional[Tuple[ParsedHead, bytes]]:
        """Read one complete request, as its memoised head and its body;
        ``None`` on clean EOF between requests."""
        while True:
            found = self._parser.next_head()
            if found is not None:
                return found
            if self._parser.eof:
                return None
            chunk = self._connection.recv(_RECV_CHUNK)
            if not chunk:
                self._parser.feed_eof()
            else:
                self._parser.feed(chunk)


def send_response(connection: socket.socket, response: Response) -> None:
    """Put *response* on the wire without concatenating head and body.

    ``body_file`` set → send the head, then ``socket.sendfile`` the disk
    file (kernel zero-copy where the platform has ``os.sendfile``; the
    stdlib falls back to a read/send loop where it does not); otherwise
    :func:`send_bytes`.  Raises ``OSError`` on transport failure like
    ``sendall`` would.
    """
    head = response.serialize_head()
    if response.body_file is not None and not response.body:
        connection.sendall(head)
        with open(response.body_file.path, "rb") as handle:
            connection.sendfile(handle, 0, response.body_file.size)
        return
    send_bytes(connection, head, response.body)


def send_bytes(connection: socket.socket, head: bytes, body: bytes) -> None:
    """Put *head* and *body* on the wire: one ``sendmsg([head, body])``
    gather write, looped with memoryview slicing on short writes, so the
    (possibly shared, cached) body bytes are never copied into a
    concatenated buffer; plain ``sendall`` where there is no body or no
    ``sendmsg`` on this platform.  Raises ``OSError`` on transport
    failure like ``sendall`` would.
    """
    if not body:
        connection.sendall(head)
        return
    if not hasattr(connection, "sendmsg"):
        connection.sendall(head + body)
        return
    segments = [memoryview(head), memoryview(body)]
    while segments:
        sent = connection.sendmsg(segments)
        while segments and sent >= len(segments[0]):
            sent -= len(segments[0])
            segments.pop(0)
        if segments and sent:
            segments[0] = segments[0][sent:]


def _send_quietly(connection: socket.socket, response: Response) -> None:
    try:
        send_response(connection, response)
    except OSError:
        pass

