"""Request dispatch shared by both socket front ends.

Every engine call runs under the host's one engine lock;
:meth:`BlockingDirectiveMixin._engine_dispatch` is the serve path's
single locked section — shedding signal, cached-read short-circuit,
full :meth:`DCWSEngine.handle_request`.

The engine answers a request either with a finished :class:`EngineReply`
or with a *directive* naming blocking work — a lazy-migration pull over
the network (:class:`PullFromHome`) or a dirty-document splice
(:class:`RegenerateAndServe`).  How that work is scheduled differs per
front end (a worker thread in :mod:`repro.server.threaded`, an executor
thread in :mod:`repro.server.aio`), but the work itself — lock scoping,
the per-document regeneration guard, the double-checked commit — is
identical.  :class:`BlockingDirectiveMixin` implements it once.

Host requirements: ``engine`` (a :class:`DCWSEngine`), ``_lock`` (the
engine guard), ``_pressure()`` (load as a fraction of capacity),
``pool`` (a :class:`repro.client.pool.ConnectionPool`) and
``request_timeout``; call :meth:`_init_dispatch` before use.
:meth:`_engine_dispatch` never blocks beyond the lock; every other
method here may block (network or CPU) and must therefore run on a
thread that is allowed to — never on the event loop.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Optional, TYPE_CHECKING, Union

from repro.client.breaker import BreakerOpenError
from repro.client.realclient import http_fetch
from repro.errors import DigestMismatch, HTTPError
from repro.http.messages import Request, Response
from repro.server.engine import (
    EngineReply,
    PullFromHome,
    RegenerateAndServe,
)
from repro.server.striping import StripedLock

if TYPE_CHECKING:
    from repro.faults import FaultPlan
    from repro.server.wal import WriteAheadJournal


class BlockingDirectiveMixin:
    """The locked engine dispatch, and execution of the directives
    (:class:`PullFromHome` / :class:`RegenerateAndServe`) it returns."""

    def _init_dispatch(self) -> None:
        # Lock-scope reduction: dirty-document regeneration runs off the
        # engine lock, guarded so two threads never splice the same name
        # concurrently.  Striped rather than per-name: the old per-name
        # dict grew without bound with the corpus; a fixed array of
        # hash-addressed locks (config.lock_stripes) keeps memory O(1)
        # while two *different* documents contend only on a stripe
        # collision — and the same CRC-32 shard map drives cross-worker
        # document ownership in the multi-process front end.
        self.engine.defer_regeneration = True
        self._regen_locks = StripedLock(self.engine.config.lock_stripes)

    def _regen_lock(self, name: str) -> threading.Lock:
        return self._regen_locks.lock_for(name)

    def _engine_dispatch(self, request: Request, now: float
                         ) -> Union[EngineReply, PullFromHome,
                                    RegenerateAndServe]:
        """One request through the engine, under the engine lock.

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
            hit = engine.fast_lookup(request, now)
            if hit is not None:
                return engine.fast_commit(hit, request, now)
            return engine.handle_request(request, now)

    def _directive_work(self, directive: Union[PullFromHome,
                                               RegenerateAndServe]
                        ) -> Response:
        """Execute one blocking directive.

        Seam for the multi-process worker host, which overrides this to
        forward directives touching shards owned by another worker over
        the supervisor channel instead of executing them locally.
        """
        if isinstance(directive, RegenerateAndServe):
            return self._execute_regeneration(directive)
        return self._execute_pull(directive)

    def _execute_regeneration(self, directive: RegenerateAndServe) -> Response:
        """Dirty-document regeneration with the splice off the engine lock.

        The per-document guard serializes threads racing for the same
        name; the double-checked dirty flag (``regeneration_plan`` returns
        ``None`` once a peer has committed) makes the losers skip straight
        to serving.  The engine lock is held only to capture the plan and
        to commit the result — the string splice itself runs unlocked, so
        the lock again covers just graph/table mutations.
        """
        with self._regen_lock(directive.name):
            with self._lock:
                plan = self.engine.regeneration_plan(directive.name)
            if plan is not None:
                output, next_template = plan.apply()
                with self._lock:
                    self.engine.commit_regeneration(
                        plan, output, next_template, time.monotonic())
        with self._lock:
            reply = self.engine.serve_after_regeneration(
                directive, time.monotonic())
        return reply.response

    def _execute_pull(self, pull: PullFromHome) -> Response:
        """Lazy migration: blocking fetch from home, outside the lock.

        ``home_down`` distinguishes a breaker fast-fail (the home's
        circuit is open — degrade to 503 + Retry-After) from a fresh
        transport failure (degrade to 302 back to home)."""
        upstream = None
        home_down = False
        corrupt = False
        started = time.monotonic()
        try:
            upstream = http_fetch(pull.home, pull.request,
                                  timeout=self.request_timeout,
                                  pool=self.pool)
        except BreakerOpenError:
            home_down = True
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
                                              home_down=home_down, rtt=rtt,
                                              corrupt=corrupt)
        return reply.response


class DurabilityMixin:
    """Journal + snapshot lifecycle shared by both socket front ends.

    Host requirements: ``engine``, ``_lock``, ``snapshot_path`` and (set
    by :meth:`_init_durability`) ``journal_path``.  The pattern is the
    same in both hosts:

    - :meth:`_recover_state` at start, under the engine lock — snapshot +
      journal replay when journaling is on, the legacy snapshot-only
      restore when it is off;
    - :meth:`_checkpoint_state` on the snapshot interval and at stop,
      under the engine lock — durable snapshot then journal truncation;
    - :meth:`_durability_tick` every periodic tick, *without* the lock —
      drives the ``interval`` fsync policy (the journal has its own
      locking);
    - :meth:`_close_durability` at stop.

    All methods may block on disk and must run where blocking is allowed
    (the threaded server's threads, the event-loop host's executor).
    """

    journal: "Optional[WriteAheadJournal]" = None

    def _init_durability(self, journal_path: Optional[str],
                         faults: "Optional[FaultPlan]" = None) -> None:
        self.journal_path = journal_path
        self.journal = None
        self._journal_faults = faults

    def _recover_state(self, now: float) -> None:
        """Initialize + restore the engine; open the journal for append.

        Caller holds the engine lock.  Recovery scans the journal
        read-only *before* opening it for append, so a torn tail is
        observed (and reported in the recovery stats) rather than being
        silently truncated by the open.
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

    def _durability_tick(self, now: float) -> None:
        """Per-tick journal upkeep (interval fsync).  Lock-free."""
        if self.journal is not None:
            self.journal.maybe_sync(now)

    def _close_durability(self) -> None:
        if self.journal is not None:
            self.journal.close()


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
