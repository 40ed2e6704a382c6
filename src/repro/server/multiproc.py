"""Multi-core scale-out: a supervisor forking event-loop worker processes.

One :class:`AsyncDCWSServer` loop saturates a single core long before a
multi-core machine does.  This module scales the same engine across
cores the way classic pre-fork servers do, adapted to DCWS semantics:

- **Accept distribution.**  The parent binds one ``SO_REUSEPORT``
  listener *per worker* on the same port and hands each forked worker
  its own; the kernel then load-balances accepts across workers with no
  user-space hand-off at all.  Platforms without ``SO_REUSEPORT`` run a
  single process (:func:`choose_mode` returns ``None``).

- **Shard ownership.**  Every document maps to a stripe
  (``shard_of(name, lock_stripes)`` — CRC-32, so all processes agree)
  and every stripe to the *owning* worker (``roster[shard % len(roster)]``
  over the sorted alive workers).  Clean cached reads serve from any
  worker, and so do dirty regenerations — in memory, under that
  worker's own engine lock, like every other engine call.  A first-use
  **pull** executes only on the owner, so one worker fetches a hosted
  document from its home — a non-owner forwards the client request over
  its supervisor channel and relays the owner's response.  If the owner
  is dead or slow the requester degrades to pulling locally (every
  engine mutation is idempotent and crash-atomic), trading momentary
  single-writer discipline for zero client-visible failures.

- **Invalidation broadcast.**  Each worker's copy cache reports
  invalidations (``CopyCache.on_invalidate``); the worker batches
  them per tick and the supervisor fans them out, so a regeneration or
  author update on one worker evicts the stale rendering from every
  sibling within one tick period (bounded staleness, no shared memory).

- **Supervision.**  The parent monitors workers and respawns any that
  die (fresh listener, fresh channel), rebroadcasting the roster so
  shard ownership heals; aggregated per-worker stats (pids, accepted
  connections, cache hits, RPS) are pushed back down so any worker can
  answer ``/~dcws/workers``.

The control protocol is newline-delimited JSON over unix socketpairs;
request/response bodies cross it base64-encoded in their wire form, so
the existing HTTP (de)serializers are the only marshalling layer.
"""

from __future__ import annotations

import base64
import json
import multiprocessing
import os
import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.core.document import Location
from repro.errors import ReproError
from repro.http.messages import (
    Request,
    Response,
    parse_request,
    parse_response,
)
from repro.server.aio import AsyncDCWSServer
from repro.server.engine import DCWSEngine, PullFromHome
from repro.server.striping import shard_of

_READY_TIMEOUT = 10.0
_MONITOR_PERIOD = 0.2
_VIEW_PERIOD = 0.5


def choose_mode() -> Optional[str]:
    """``"reuseport"`` where the platform can share one port between
    worker processes, else ``None`` (callers run a single process)."""
    return "reuseport" if hasattr(socket, "SO_REUSEPORT") else None


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _unb64(text: str) -> bytes:
    return base64.b64decode(text.encode("ascii"))


class _Channel:
    """Newline-delimited JSON over one end of a unix socketpair.

    Sends are locked (multiple threads push stats/invalidations/forward
    replies); reads happen on one dedicated reader thread per end.
    A transport error marks the channel dead and is reported as a
    ``False``/``None`` result, never an exception — a dying peer must
    not take its sibling down.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._reader = sock.makefile("rb")
        self._send_lock = threading.Lock()
        self.alive = True

    def send(self, message: Dict[str, Any]) -> bool:
        data = (json.dumps(message, separators=(",", ":")) + "\n").encode()
        with self._send_lock:
            if not self.alive:
                return False
            try:
                self._sock.sendall(data)
                return True
            except OSError:
                self.alive = False
                return False

    def recv(self) -> Optional[Dict[str, Any]]:
        """One message; ``None`` on EOF/error (peer gone)."""
        try:
            line = self._reader.readline()
        except (OSError, ValueError):
            return None
        if not line:
            return None
        try:
            message = json.loads(line)
        except ValueError:
            return None
        return message if isinstance(message, dict) else None

    def close(self) -> None:
        self.alive = False
        for closer in (self._reader.close, self._sock.close):
            try:
                closer()
            except OSError:
                pass


class _ForwardWaiter:
    """One in-flight forwarded request awaiting the owner's response."""

    __slots__ = ("event", "payload")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.payload: Optional[str] = None


class _WorkerHost(AsyncDCWSServer):
    """One worker process's event loop plus its supervisor channel.

    Extends the single-process loop with: invalidation batching (pushed
    each tick), per-tick stats reports, and pull forwarding to the
    shard owner via :meth:`_execute_pull`.
    """

    def __init__(self, engine: DCWSEngine, *, channel: _Channel,
                 worker_index: int, **kwargs: Any) -> None:
        super().__init__(engine, **kwargs)
        self.channel = channel
        self.worker_index = worker_index
        self._roster: List[int] = [worker_index]
        self._cluster_view: Dict[str, Any] = {}
        self._invalidation_lock = threading.Lock()
        self._pending_invalidations: "set[str]" = set()
        self._forward_lock = threading.Lock()
        self._forward_seq = 0
        self._forward_waiters: Dict[str, _ForwardWaiter] = {}
        engine.response_cache.on_invalidate = self._note_invalidation
        engine.worker_view = self._worker_view

    # -- outbound: invalidations and stats -------------------------------

    def _note_invalidation(self, name: str) -> None:
        with self._invalidation_lock:
            self._pending_invalidations.add(name)

    def _tick(self, now: float) -> None:
        super()._tick(now)
        with self._invalidation_lock:
            names = sorted(self._pending_invalidations)
            self._pending_invalidations.clear()
        if names:
            self.channel.send({"kind": "invalidate", "names": names})
        stats = self.engine.stats
        self.channel.send({
            "kind": "stats",
            "worker": self.worker_index,
            "pid": os.getpid(),
            "requests": stats.requests,
            "responses_200": stats.responses_200,
            "accepted": self.connections_accepted,
            "response_cache_hits": self.engine.response_cache.stats.hits,
            "repairs": stats.repairs,
            "replica_drops": stats.replica_drops,
            "two_choices_picks":
                self.engine.replication.counters.two_choices_picks,
        })

    # -- inbound: supervisor messages ------------------------------------

    def handle_message(self, message: Dict[str, Any]) -> None:
        """Process one supervisor message (channel reader thread)."""
        kind = message.get("kind")
        if kind == "roster":
            self._roster = sorted(int(i) for i in message.get("workers", []))
        elif kind == "cluster":
            self._cluster_view = message.get("view", {})
        elif kind == "invalidate":
            self._apply_invalidations(message.get("names", []))
        elif kind == "forward":
            executor = self._executor
            if executor is not None:
                executor.submit(self._serve_forward, message)
        elif kind == "forward-reply":
            waiter = self._forward_waiters.pop(str(message.get("id")), None)
            if waiter is not None:
                payload = message.get("response")
                waiter.payload = payload if isinstance(payload, str) else None
                waiter.event.set()

    def _apply_invalidations(self, names: List[str]) -> None:
        """A sibling mutated these documents: drop our renderings.
        ``broadcast=False`` keeps the relay from echoing forever."""
        with self._lock:
            for name in names:
                self.engine.response_cache.invalidate(str(name),
                                                      broadcast=False)

    # -- pull forwarding ---------------------------------------------------

    def _owner_of(self, name: str) -> int:
        roster = self._roster or [self.worker_index]
        shard = shard_of(name, self.engine.config.lock_stripes)
        return roster[shard % len(roster)]

    def _execute_pull(self, pull: PullFromHome) -> Response:
        if self._owner_of(pull.key) != self.worker_index:
            response = self._forward_request(pull.key, pull.client_request)
            if response is not None:
                return response
            # Owner dead, roster mid-heal, or reply timed out: pull
            # locally.  Every mutation behind a pull is idempotent and
            # crash-atomic, so relaxing single-writer ownership for one
            # request is strictly better than failing the client.
        return super()._execute_pull(pull)

    def _forward_request(self, name: str,
                         request: Request) -> Optional[Response]:
        with self._forward_lock:
            self._forward_seq += 1
            request_id = f"{self.worker_index}:{self._forward_seq}"
        waiter = _ForwardWaiter()
        self._forward_waiters[request_id] = waiter
        sent = self.channel.send({
            "kind": "forward",
            "id": request_id,
            "origin": self.worker_index,
            "name": name,
            "stripes": self.engine.config.lock_stripes,
            "request": _b64(request.serialize()),
        })
        if not sent:
            self._forward_waiters.pop(request_id, None)
            return None
        if not waiter.event.wait(self.request_timeout):
            self._forward_waiters.pop(request_id, None)
            return None
        if waiter.payload is None:
            return None
        try:
            return parse_response(_unb64(waiter.payload))
        except Exception:
            return None

    def _serve_forward(self, message: Dict[str, Any]) -> None:
        """Execute a request forwarded from a non-owner (executor
        thread) and relay the response.  ``_dispatch_blocking`` pulls
        locally — this worker *is* the owner — so forwards can never
        ping-pong."""
        try:
            request = parse_request(_unb64(str(message.get("request"))))
            response = self._dispatch_blocking(request)
            payload: Optional[str] = _b64(response.serialize())
        except Exception:
            payload = None
        self.channel.send({"kind": "forward-reply",
                           "id": str(message.get("id")),
                           "response": payload})

    # -- admin view -------------------------------------------------------

    def _worker_view(self) -> Dict[str, Any]:
        return {
            "worker": self.worker_index,
            "pid": os.getpid(),
            "roster": list(self._roster),
            "stripes": self.engine.config.lock_stripes,
            "cluster": self._cluster_view,
        }


def _worker_main(index: int,
                 factory: Callable[[int, Location], DCWSEngine],
                 listener: socket.socket,
                 channel_sock: socket.socket,
                 location: Location,
                 server_options: Dict[str, Any]) -> None:
    """Entry point of one forked worker process."""
    channel = _Channel(channel_sock)
    engine = factory(index, location)
    options = dict(server_options)
    for path_key in ("snapshot_path", "journal_path"):
        # Durability files must not be shared between processes: suffix
        # per worker so each keeps an independent snapshot + journal.
        if options.get(path_key):
            options[path_key] = f"{options[path_key]}.w{index}"
    host = _WorkerHost(engine, channel=channel, worker_index=index,
                       **options)
    host.start(listener=listener)

    stopping = threading.Event()

    def read_channel() -> None:
        while True:
            message = channel.recv()
            if message is None or message.get("kind") == "stop":
                stopping.set()
                return
            try:
                host.handle_message(message)
            except Exception:
                pass  # a malformed control message must not kill serving

    reader = threading.Thread(target=read_channel, daemon=True,
                              name=f"dcws-mp-ctl-{index}")
    reader.start()
    channel.send({"kind": "ready", "worker": index, "pid": os.getpid()})
    try:
        stopping.wait()
    except KeyboardInterrupt:
        pass  # Ctrl-C hits the whole foreground process group
    try:
        host.stop()
    except Exception:
        pass
    finally:
        channel.close()
        os._exit(0)


class _WorkerProc:
    """Supervisor-side record of one worker process."""

    __slots__ = ("index", "process", "channel", "ready", "stats",
                 "last_requests", "last_sample", "rps")

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.channel: Optional[_Channel] = None
        self.ready = threading.Event()
        self.stats: Dict[str, Any] = {}
        self.last_requests = 0
        self.last_sample = 0.0
        self.rps = 0.0

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class WorkerSupervisor:
    """Fork, monitor, and coordinate N event-loop worker processes.

    ``engine_factory(index, location)`` runs *in the forked child* and
    builds that worker's engine (fork start method: nothing is pickled,
    the closure simply survives the fork).  All workers share one port.
    """

    def __init__(self, engine_factory: Callable[[int, Location], DCWSEngine],
                 workers: int, *,
                 host: str = "127.0.0.1",
                 port: int = 0,
                 stripes: int = 16,
                 server_options: Optional[Dict[str, Any]] = None) -> None:
        if workers < 1:
            raise ReproError("workers must be >= 1")
        self.engine_factory = engine_factory
        self.workers = workers
        self.host = host
        self.port = port
        if choose_mode() is None:
            raise ReproError(
                "SO_REUSEPORT is not available on this platform")
        self.stripes = stripes
        self.server_options = dict(server_options or {})
        self._procs: List[_WorkerProc] = [
            _WorkerProc(i) for i in range(workers)]
        self._ctx = multiprocessing.get_context("fork")
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._started = False
        self.respawns = 0

    # -- listener plumbing ------------------------------------------------

    def _bind_reuseport(self) -> socket.socket:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        listener.bind((self.host, self.port))
        listener.listen(128)
        if self.port == 0:
            self.port = listener.getsockname()[1]
        return listener

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        if self._started:
            raise ReproError("supervisor already started")
        self._started = True
        for proc in self._procs:
            self._spawn(proc)
        for proc in self._procs:
            if not proc.ready.wait(_READY_TIMEOUT):
                self.stop()
                raise ReproError(
                    f"worker {proc.index} failed to report ready")
        self._broadcast_roster()
        monitor = threading.Thread(target=self._monitor_loop, daemon=True,
                                   name="dcws-mp-monitor")
        self._threads.append(monitor)
        monitor.start()

    def _spawn(self, proc: _WorkerProc) -> None:
        """Fork one worker (fresh listener + channel); used for both
        initial start and respawn after a worker death."""
        listener = self._bind_reuseport()
        parent_ctl, child_ctl = socket.socketpair()
        location = Location(self.host, self.port)
        process = self._ctx.Process(
            target=_worker_main,
            args=(proc.index, self.engine_factory, listener, child_ctl,
                  location, self.server_options),
            daemon=True,
            name=f"dcws-worker-{proc.index}")
        process.start()
        # Parent keeps only its ends; the child inherited duplicates.
        child_ctl.close()
        listener.close()
        proc.process = process
        proc.channel = _Channel(parent_ctl)
        proc.ready = threading.Event()
        reader = threading.Thread(target=self._read_worker, args=(proc,),
                                  daemon=True,
                                  name=f"dcws-mp-read-{proc.index}")
        reader.start()

    def stop(self) -> None:
        if not self._started:
            return
        self._stop.set()
        for proc in self._procs:
            if proc.channel is not None:
                proc.channel.send({"kind": "stop"})
        for proc in self._procs:
            if proc.process is not None:
                proc.process.join(timeout=3.0)
                if proc.process.is_alive():
                    proc.process.terminate()
                    proc.process.join(timeout=1.0)
            if proc.channel is not None:
                proc.channel.close()
        for thread in self._threads:
            thread.join(timeout=2.0)
        self._threads = []
        self._started = False

    def __enter__(self) -> "WorkerSupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- channel fan-in / fan-out ----------------------------------------

    def _read_worker(self, proc: _WorkerProc) -> None:
        channel = proc.channel
        assert channel is not None
        while True:
            message = channel.recv()
            if message is None:
                return  # worker gone; the monitor loop handles respawn
            kind = message.get("kind")
            if kind == "ready":
                proc.ready.set()
            elif kind == "stats":
                proc.stats = message
            elif kind == "invalidate":
                names = message.get("names", [])
                for other in self._procs:
                    if other is not proc and other.channel is not None:
                        other.channel.send({"kind": "invalidate",
                                            "names": names})
            elif kind == "forward":
                self._route_forward(proc, message)
            elif kind == "forward-reply":
                self._route_forward_reply(message)

    def _roster(self) -> List[int]:
        return sorted(p.index for p in self._procs if p.alive)

    def _route_forward(self, origin: _WorkerProc,
                       message: Dict[str, Any]) -> None:
        """Relay a forward to the shard owner — recomputed here from the
        live roster, so a stale worker-side roster cannot misroute."""
        roster = self._roster()
        name = str(message.get("name", ""))
        owner_index = None
        if roster:
            stripes = int(message.get("stripes", 0)) or self.stripes
            owner_index = roster[shard_of(name, stripes) % len(roster)]
        owner = next((p for p in self._procs if p.index == owner_index
                      and p.alive and p.channel is not None), None)
        if owner is None or owner.index == origin.index:
            # No better owner than the asker: tell it to run locally.
            if origin.channel is not None:
                origin.channel.send({"kind": "forward-reply",
                                     "id": str(message.get("id")),
                                     "response": None})
            return
        owner.channel.send(message)

    def _route_forward_reply(self, message: Dict[str, Any]) -> None:
        request_id = str(message.get("id", ""))
        origin_index = request_id.split(":", 1)[0]
        for proc in self._procs:
            if str(proc.index) == origin_index and proc.channel is not None:
                proc.channel.send(message)
                return

    def _broadcast_roster(self) -> None:
        roster = self._roster()
        for proc in self._procs:
            if proc.channel is not None:
                proc.channel.send({"kind": "roster", "workers": roster})

    # -- monitoring, respawn, aggregated view ----------------------------

    def _monitor_loop(self) -> None:
        last_view = 0.0
        while not self._stop.is_set():
            changed = False
            for proc in self._procs:
                if not proc.alive and not self._stop.is_set():
                    self.respawns += 1
                    self._spawn(proc)
                    proc.ready.wait(_READY_TIMEOUT)
                    changed = True
            if changed:
                self._broadcast_roster()
            now = time.monotonic()
            if now - last_view >= _VIEW_PERIOD:
                last_view = now
                self._sample_rps(now)
                view = self.cluster_view()
                for proc in self._procs:
                    if proc.channel is not None:
                        proc.channel.send({"kind": "cluster", "view": view})
            self._stop.wait(_MONITOR_PERIOD)

    def _sample_rps(self, now: float) -> None:
        for proc in self._procs:
            requests = int(proc.stats.get("requests", 0))
            if proc.last_sample:
                elapsed = max(now - proc.last_sample, 1e-6)
                delta = max(requests - proc.last_requests, 0)
                proc.rps = delta / elapsed
            proc.last_requests = requests
            proc.last_sample = now

    def cluster_view(self) -> Dict[str, Any]:
        """The aggregated per-worker roster any worker serves from
        ``/~dcws/workers``."""
        roster = self._roster()
        stripes = self.stripes
        workers: Dict[str, Any] = {}
        for proc in self._procs:
            shards = [s for s in range(stripes)
                      if roster and roster[s % len(roster)] == proc.index]
            workers[str(proc.index)] = {
                "pid": proc.stats.get("pid"),
                "alive": proc.alive,
                "accepted": proc.stats.get("accepted", 0),
                "requests": proc.stats.get("requests", 0),
                "response_cache_hits":
                    proc.stats.get("response_cache_hits", 0),
                "rps": round(proc.rps, 3),
                "repairs": proc.stats.get("repairs", 0),
                "replica_drops": proc.stats.get("replica_drops", 0),
                "shards": shards,
            }
        return {"mode": "reuseport", "port": self.port, "stripes": stripes,
                "respawns": self.respawns, "roster": roster,
                "workers": workers}

    def aggregate_stats(self) -> Dict[str, int]:
        """Summed counters across workers (benchmark reporting)."""
        totals = {"requests": 0, "responses_200": 0, "accepted": 0,
                  "response_cache_hits": 0, "repairs": 0,
                  "replica_drops": 0, "two_choices_picks": 0}
        for proc in self._procs:
            for key in totals:
                totals[key] += int(proc.stats.get(key, 0))
        return totals
