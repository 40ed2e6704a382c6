"""What the two socket front ends share: :class:`SocketHost`.

Every engine call runs under the host's one engine lock, and
:meth:`SocketHost._engine_dispatch` is the serve path's single locked
section — shedding signal, cached-read short-circuit, full
:meth:`DCWSEngine.handle_request`, dirty-document regeneration included.
The engine answers a warm cached read with its finished head bytes and
body (:data:`Warm`), anything else with a finished :class:`EngineReply`
or with the one blocking directive, a lazy-migration pull
(:class:`PullFromHome`); only
network transfers — those pulls, and the periodic pass's pings and
validations — run between two holds of the lock.

The front ends (:mod:`repro.server.threaded`, :mod:`repro.server.aio`)
differ in how they move bytes and on which thread a transfer blocks.
Everything else lives here once: construction up to the transport's own
state, the journal + snapshot lifecycle, the locked dispatch, the pull,
the periodic pass, the keep-alive decision and the overload 503.

:meth:`_engine_dispatch` never blocks beyond the lock; methods that touch
the network or the disk say so and must run on a thread that is allowed
to block — never on the event loop.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Callable, Optional, TYPE_CHECKING, Tuple, Union

from repro.client.pool import ConnectionPool
from repro.client.realclient import http_fetch
from repro.errors import DigestMismatch, HTTPError, RecoverableProtocolError
from repro.http.messages import (
    Request,
    Response,
    error_response,
    wants_keep_alive,
)
from repro.http.status import StatusCode
from repro.http.wire import ParsedHead
from repro.server.engine import (
    DCWSEngine,
    EngineReply,
    OutboundAction,
    PullFromHome,
)

if TYPE_CHECKING:
    from repro.faults import FaultPlan
    from repro.server.wal import WriteAheadJournal

#: A warm answer, :meth:`DCWSEngine.serve_warm`'s: the finished head
#: bytes, the body, and whether the connection persists after them.
Warm = Tuple[bytes, bytes, bool]


class SocketHost:
    """A :class:`DCWSEngine` behind real sockets, minus the transport.

    Subclasses add their transport state after ``super().__init__`` and
    provide ``_pressure()`` — load as a fraction of capacity.
    """

    def __init__(self, engine: DCWSEngine, *,
                 bind_host: str = "",
                 request_timeout: float = 10.0,
                 tick_period: float = 0.25,
                 snapshot_path: Optional[str] = None,
                 snapshot_interval: float = 30.0,
                 journal_path: Optional[str] = None,
                 faults: Optional["FaultPlan"] = None) -> None:
        self.engine = engine
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
        self.journal_path = journal_path
        self.journal: "Optional[WriteAheadJournal]" = None
        self._journal_faults = faults
        # The engine guard: every engine call, from any thread.
        self._lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._stop = threading.Event()
        self._started = threading.Event()
        # Persistent channels for server-to-server transfers, with (chaos
        # runs) fault injection.
        self.pool = ConnectionPool(timeout=request_timeout, faults=faults)
        # Accepted-connection counter (accepting thread only); tests use
        # it to prove keep-alive (requests served >> connections accepted).
        self.connections_accepted = 0
        # Drop accounting without the engine lock: the accepting thread is
        # the sole writer of _drops_recorded, the periodic pass the sole
        # writer of _drops_drained, so neither needs synchronization.
        self._drops_recorded = 0
        self._drops_drained = 0

    def wait_ready(self, timeout: float = 5.0) -> bool:
        """Block until the server's threads are running."""
        return self._started.wait(timeout)

    def __enter__(self) -> "SocketHost":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Journal + snapshot lifecycle (all of it may block on disk)
    # ------------------------------------------------------------------

    def _recover_state(self, now: float) -> None:
        """Initialize + restore the engine; open the journal for append.

        Caller holds the engine lock.  Snapshot + journal replay when
        journaling is on, the legacy snapshot-only restore when it is
        off.  Recovery scans the journal read-only *before* opening it
        for append, so a torn tail is observed (and reported in the
        recovery stats) rather than being silently truncated by the open.
        """
        from repro.server import persistence

        if self.journal_path:
            from repro.server.wal import WriteAheadJournal

            stats = persistence.recover(self.engine, self.snapshot_path,
                                        self.journal_path, now)
            config = self.engine.config
            self.journal = WriteAheadJournal(
                self.journal_path,
                location=str(self.engine.location),
                fsync_policy=config.wal_fsync,
                fsync_interval=config.wal_fsync_interval,
                epoch=stats.resume_epoch,
                start_lsn=stats.resume_lsn,
                faults=self._journal_faults)
            self.engine.attach_journal(self.journal)
            return
        self.engine.initialize(now)
        if self.snapshot_path:
            persistence.restore_from_file(self.engine, self.snapshot_path,
                                          now)

    def _checkpoint_state(self, now: float) -> None:
        """Durable snapshot (+ journal truncation).  Caller holds the
        engine lock; without a snapshot path there is nothing to do —
        the journal alone keeps growing until one is configured."""
        from repro.server import persistence

        if not self.snapshot_path:
            return
        if self.journal is not None:
            persistence.checkpoint(self.engine, self.snapshot_path, now)
        else:
            persistence.save_snapshot(self.engine, self.snapshot_path, now)

    def _locked_checkpoint(self) -> None:
        """Checkpoint from a thread that does not hold the lock yet."""
        with self._lock:
            self._checkpoint_state(time.monotonic())

    def _close_durability(self) -> None:
        if self.journal is not None:
            self.journal.close()

    # ------------------------------------------------------------------
    # The serve path
    # ------------------------------------------------------------------

    def _engine_dispatch(self, request: Union[Request, ParsedHead],
                         now: float, *, body: bytes = b"", served: int = 0
                         ) -> Union[Warm, EngineReply, PullFromHome]:
        """One request through the engine, under the engine lock.

        A front end hands over the memoised head a parser returned, its
        *body*, and its ordinal *served* on the connection.  A bodiless
        one goes to :meth:`DCWSEngine.serve_warm`, whose answer comes
        back as the :data:`Warm` triple the front end sends as it is;
        what that route does not answer goes to ``handle_request``.  Any
        other request — a :class:`Request`, a head with a body, the
        connection's ``keep_alive_max_requests``-th (its head must say
        ``Connection: close``), every request under overload — takes
        the render path: ``fast_lookup``/``fast_commit``, else
        ``handle_request``, each answer a :class:`EngineReply` whose
        keep-alive :meth:`_settle_keep_alive` settles.

        At or above ``shed_pressure`` the engine sheds its expensive
        tier (regenerations, first-use pulls) while cache hits and 304s
        keep flowing.  ``_pressure()`` is read before taking the lock —
        an approximate reading is exactly what a pressure signal needs.
        """
        engine = self.engine
        config = engine.config
        overloaded = (config.tiered_shedding
                      and self._pressure() >= config.shed_pressure)
        with self._lock:
            engine.overloaded = overloaded
            if isinstance(request, ParsedHead):
                if not (body or overloaded
                        or served >= config.keep_alive_max_requests):
                    warm = engine.serve_warm(request, now)
                    if warm is not None:
                        return warm
                    return engine.handle_request(request.request(), now)
                request = request.request(body)
            hit = engine.fast_lookup(request, now)
            if hit is not None:
                return engine.fast_commit(hit, request, now)
            return engine.handle_request(request, now)

    def _dispatch_blocking(self, head: ParsedHead, body: bytes,
                           served: int) -> Union[Warm, Response]:
        """One request start to finish on the calling thread: the warm
        triple, or the response to settle and send."""
        result = self._engine_dispatch(head, time.monotonic(), body=body,
                                       served=served)
        if isinstance(result, EngineReply):
            return result.response
        if isinstance(result, PullFromHome):
            return self._execute_pull(result)
        return result

    def _execute_pull(self, pull: PullFromHome) -> Response:
        """Lazy migration: blocking fetch from home, outside the lock."""
        upstream = None
        corrupt = False
        started = time.monotonic()
        try:
            upstream = http_fetch(pull.home, pull.request,
                                  timeout=self.request_timeout,
                                  pool=self.pool)
        except DigestMismatch:
            # The pull body failed its X-DCWS-Digest (and the pool's own
            # one-shot retry failed too): the home answered, so this is
            # not silence — the engine counts a rejected pull and 302s
            # the client to the home instead of feeding death detection.
            corrupt = True
        except (OSError, HTTPError):
            pass
        finished = time.monotonic()
        rtt = finished - started if upstream is not None else None
        with self._lock:
            reply = self.engine.complete_pull(pull, upstream, finished,
                                              rtt=rtt, corrupt=corrupt)
        return reply.response

    def _settle_keep_alive(self, served: int,
                           request: Union[Request, ParsedHead, None],
                           response: Response) -> bool:
        """Whether the connection outlives *response*, its *served*-th.

        *request* is ``None`` when the bytes that earned the response
        never parsed into one.  (A warm answer needs no settling: it is
        never the ``keep_alive_max_requests``-th, and its head already
        says whether the connection persists.)  A connection we are
        about to close says so and nothing else: the engine's
        ``Keep-Alive`` parameters
        beside ``Connection: close`` make some clients (``http.client``
        on an HTTP/1.0 response) keep the channel.
        """
        config = self.engine.config
        keep = (config.keep_alive
                and served < config.keep_alive_max_requests
                and (request is None
                     or wants_keep_alive(request.version, request.headers))
                and wants_keep_alive(response.version, response.headers))
        if not keep:
            response.headers.set("Connection", "close")
            response.headers.remove("Keep-Alive")
        return keep

    def _refuse(self) -> Response:
        """Tally one front-end drop and build its answer (section 5.2:
        "dropped gracefully with a 503 error response").

        Accepting thread only.  The drop reaches the engine metrics when
        the next periodic pass drains the counter, so the thread that
        must keep accepting under overload never waits on the engine
        lock.
        """
        self._drops_recorded += 1
        response = error_response(StatusCode.SERVICE_UNAVAILABLE,
                                  "server overloaded")
        response.headers.set("Connection", "close")
        response.headers.set("Retry-After", "1")
        return response

    @staticmethod
    def _bad_framing(exc: RecoverableProtocolError) -> Response:
        """The 400 for a request the parser consumed whole (its invalid
        Content-Length frames no body).  The stream is still correctly
        delimited, so the answer offers to keep the connection: the next
        pipelined request parses normally."""
        response = error_response(StatusCode.BAD_REQUEST, str(exc))
        response.headers.set("Connection", "keep-alive")
        return response

    # ------------------------------------------------------------------
    # Periodic machinery (statistics, migration, validation, pinger)
    # ------------------------------------------------------------------

    def _periodic_pass(self, now: float,
                       run: Callable[..., object]) -> None:
        """One tick: drain front-end drops, tick the engine, then hand
        each blocking step — a transfer per action, the journal's
        interval fsync, a checkpoint when one is due — to
        ``run(step, *args)``.  The threaded host's periodic thread runs
        them in place; the event loop submits them to its executor."""
        pending_drops = self._drops_recorded - self._drops_drained
        with self._lock:
            for __ in range(pending_drops):
                self.engine.metrics.record_drop(now)
            actions = self.engine.tick(now)
        self._drops_drained += pending_drops
        for action in actions:
            if self._stop.is_set():
                return
            run(self._run_action, action)
        if self.journal is not None:
            run(self.journal.maybe_sync, now)
        if self.snapshot_path and \
                now - self._last_snapshot >= self.snapshot_interval:
            self._last_snapshot = now
            run(self._locked_checkpoint)

    def _run_action(self, action: OutboundAction) -> None:
        """One periodic server-to-server transfer, off the lock."""
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
            self.engine.complete_action(action, response, finished, rtt=rtt)


def close_quietly(connection: socket.socket) -> None:
    """Shut down and close a socket, swallowing transport errors."""
    try:
        connection.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        connection.close()
    except OSError:
        pass
