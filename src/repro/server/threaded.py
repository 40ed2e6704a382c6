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
short-circuit included — runs under it; blocking network I/O (reading
requests, sending responses, server-to-server transfers) happens outside
the lock, and so does dirty-document regeneration (the link-template
splice runs on the worker under a per-document guard with a
double-checked dirty flag), so the lock only covers in-memory
graph/table operations.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from typing import List, Optional, TYPE_CHECKING

from repro.client.breaker import build_breaker
from repro.client.pool import ConnectionPool
from repro.client.realclient import http_fetch
from repro.errors import HTTPError, RecoverableProtocolError, ReproError
from repro.http.messages import (
    Request,
    Response,
    error_response,
    request_wants_keep_alive,
    response_allows_keep_alive,
)
from repro.http.status import StatusCode
from repro.http.wire import RequestParser
from repro.server.dispatch import (
    BlockingDirectiveMixin,
    DurabilityMixin,
    close_quietly,
)
from repro.server.engine import DCWSEngine, EngineReply

if TYPE_CHECKING:
    from repro.faults import FaultPlan

_RECV_CHUNK = 65536
_MAX_REQUEST = 1024 * 1024


class ThreadedDCWSServer(BlockingDirectiveMixin, DurabilityMixin):
    """Host a :class:`DCWSEngine` on real sockets with real threads."""

    def __init__(self, engine: DCWSEngine, *,
                 bind_host: str = "",
                 request_timeout: float = 10.0,
                 tick_period: float = 0.25,
                 snapshot_path: Optional[str] = None,
                 snapshot_interval: float = 30.0,
                 journal_path: Optional[str] = None,
                 faults: Optional["FaultPlan"] = None) -> None:
        self.engine = engine
        # Blocking sockets can drive os.sendfile: let the engine defer
        # large disk-backed bodies to the transport (FileBody responses).
        engine.sendfile_enabled = True
        self.bind_host = bind_host or engine.location.host
        self.port = engine.location.port
        self.request_timeout = request_timeout
        self.tick_period = tick_period
        # Optional restart recovery: restore (or journal-replay recover)
        # on start, checkpoint periodically and on stop
        # (repro.server.persistence / repro.server.wal).
        self.snapshot_path = snapshot_path
        self.snapshot_interval = snapshot_interval
        self._last_snapshot = 0.0
        self._init_durability(journal_path, faults)
        self._lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._connections: "queue.Queue[socket.socket]" = queue.Queue(
            maxsize=engine.config.socket_queue_length)
        self._stop = threading.Event()
        self._started = threading.Event()
        # Persistent channels for server-to-server transfers, with the
        # per-peer circuit breaker and (chaos runs) fault injection.
        self.pool = ConnectionPool(timeout=request_timeout,
                                   breaker=build_breaker(engine.config),
                                   faults=faults)
        engine.breaker = self.pool.breaker
        # Accepted-connection counter (front-end thread only); tests use it
        # to prove keep-alive (requests served >> connections accepted).
        self.connections_accepted = 0
        # Drop accounting without the engine lock: the front-end is the
        # sole writer of _drops_recorded, the periodic thread the sole
        # writer of _drops_drained, so neither needs synchronization.
        self._drops_recorded = 0
        self._drops_drained = 0
        self._init_dispatch()

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
        listener.listen(self.engine.config.listen_backlog)
        listener.settimeout(0.2)
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
            with self._lock:
                self._checkpoint_state(time.monotonic())
        self._stop.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=5.0)
        self.pool.close()
        self._close_durability()
        self._listener = None
        self._threads = []

    def __enter__(self) -> "ThreadedDCWSServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

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
        """Graceful 503 drop (section 5.2) when the queue overflows.

        Runs on the front-end thread, which must keep accepting while the
        workers are saturated: the drop is only tallied here and reaches
        the engine metrics when the periodic thread drains the counter.
        """
        self._drops_recorded += 1
        response = error_response(StatusCode.SERVICE_UNAVAILABLE,
                                  "server overloaded")
        response.headers.set("Connection", "close")
        response.headers.set("Retry-After", "1")
        try:
            send_response(connection, response)
        except OSError:
            pass
        finally:
            _close_quietly(connection)

    # ------------------------------------------------------------------
    # Worker threads
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            try:
                connection = self._connections.get(timeout=0.2)
            except queue.Empty:
                continue
            try:
                self._serve_connection(connection)
            except Exception:
                # A broken connection must never kill a worker.
                pass
            finally:
                _close_quietly(connection)

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
                request = reader.read_request()
            except socket.timeout:
                return  # idle keep-alive connection (or stalled peer)
            except RecoverableProtocolError as exc:
                # The parser consumed exactly the offending request (its
                # invalid Content-Length frames no body), so the stream is
                # still correctly delimited: answer 400 and keep serving —
                # the next pipelined request parses normally.
                served += 1
                keep = (config.keep_alive
                        and served < config.keep_alive_max_requests)
                response = error_response(StatusCode.BAD_REQUEST, str(exc))
                response.headers.set(
                    "Connection", "keep-alive" if keep else "close")
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
            if request is None:
                return  # peer closed cleanly at a request boundary
            if served:
                connection.settimeout(self.request_timeout)
            served += 1
            response = self._dispatch(request)
            keep = (config.keep_alive
                    and served < config.keep_alive_max_requests
                    and request_wants_keep_alive(request)
                    and response_allows_keep_alive(response))
            if not keep:
                response.headers.set("Connection", "close")
            try:
                send_response(connection, response)
            except OSError:
                return
            if not keep:
                return

    def _pressure(self) -> float:
        """Depth of the bounded hand-off queue, as a fraction."""
        return self._connections.qsize() / \
            self.engine.config.socket_queue_length

    def _dispatch(self, request: Request) -> Response:
        result = self._engine_dispatch(request, time.monotonic())
        if isinstance(result, EngineReply):
            return result.response
        return self._directive_work(result)

    # ------------------------------------------------------------------
    # Periodic thread: statistics, migration decisions, validation, pinger
    # ------------------------------------------------------------------

    def _periodic_loop(self) -> None:
        while not self._stop.is_set():
            now = time.monotonic()
            pending_drops = self._drops_recorded - self._drops_drained
            with self._lock:
                for __ in range(pending_drops):
                    self.engine.metrics.record_drop(now)
                actions = self.engine.tick(now)
            self._drops_drained += pending_drops
            for action in actions:
                if self._stop.is_set():
                    return
                started = time.monotonic()
                try:
                    response = http_fetch(action.peer, action.request,
                                          timeout=self.request_timeout,
                                          pool=self.pool)
                except (OSError, HTTPError):
                    response = None
                finished = time.monotonic()
                rtt = finished - started if response is not None else None
                with self._lock:
                    self.engine.complete_action(action, response, finished,
                                                rtt=rtt)
            self._durability_tick(now)
            if self.snapshot_path and \
                    now - self._last_snapshot >= self.snapshot_interval:
                with self._lock:
                    self._checkpoint_state(now)
                    self._last_snapshot = now
            self._stop.wait(self.tick_period)

    # ------------------------------------------------------------------

    def wait_ready(self, timeout: float = 5.0) -> bool:
        """Block until the server threads are running."""
        return self._started.wait(timeout)


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
        self._parser = RequestParser(max_request=_MAX_REQUEST)

    @property
    def buffered(self) -> bool:
        """Bytes of a further (pipelined) request are already waiting."""
        return self._parser.buffered

    def read_request(self) -> Optional[Request]:
        """Read one complete request; ``None`` on clean EOF between
        requests."""
        while True:
            request = self._parser.next_request()
            if request is not None:
                return request
            if self._parser.eof:
                return None
            chunk = self._connection.recv(_RECV_CHUNK)
            if not chunk:
                self._parser.feed_eof()
            else:
                self._parser.feed(chunk)


def _read_request(connection: socket.socket) -> Request:
    """Read one complete request off *connection*."""
    request = _RequestReader(connection).read_request()
    if request is None:
        raise HTTPError("connection closed before request completed")
    return request


def send_response(connection: socket.socket, response: Response) -> None:
    """Put *response* on the wire without concatenating head and body.

    Three delivery strategies, most efficient first:

    - ``body_file`` set → send the head, then ``socket.sendfile`` the
      disk file (kernel zero-copy where the platform has ``os.sendfile``;
      the stdlib falls back to a read/send loop where it does not);
    - bytes body → one ``sendmsg([head, body])`` gather write, looped
      with memoryview slicing on short writes, so the (possibly shared,
      cached) body bytes are never copied into a concatenated buffer;
    - no ``sendmsg`` on this platform → plain ``sendall`` concatenation.

    Raises ``OSError`` on transport failure like ``sendall`` would.
    """
    head = response.serialize_head()
    if response.body_file is not None and not response.body:
        connection.sendall(head)
        with open(response.body_file.path, "rb") as handle:
            connection.sendfile(handle, 0, response.body_file.size)
        return
    body = response.body
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


#: Shared with the event-loop front end (repro.server.dispatch).
_close_quietly = close_quietly
