"""Simulated server nodes.

:class:`QueuedServer` models the node: a bounded connection queue fed by
the front-end, a worker pool sharing one CPU, and a NIC egress link.  The
concrete subclasses plug in behaviour:

- :class:`SimServer` hosts a real :class:`~repro.server.engine.DCWSEngine`
  (the system under test) behind the socket hosts' route,
  :func:`repro.server.dispatch.serve`, never overloaded: the paper's
  503 is the queue drop below, and shedding would move Figure 6;
- :class:`StaticServer` serves a fixed store with no DCWS logic — the
  building block for the round-robin-DNS and TCP-router baselines
  (:mod:`repro.baselines`).

Timing of one served request::

    arrival -> [queue] -> worker dequeues -> CPU reservation
            -> NIC reservation (response bytes + connection overhead)
            -> response arrives at requester after link latency

A worker is held from dequeue to the end of NIC transmission — and across
the whole server-to-server pull for lazy migration, exactly like the
blocking worker threads of the prototype.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple, Union

from repro.errors import DocumentNotFound
from repro.http.messages import (Request, Response, error_response,
                                 parse_response)
from repro.http.status import StatusCode
from repro.http.wire import ParsedHead
from repro.server.dispatch import serve
from repro.server.engine import DCWSEngine, EngineReply, PullFromHome
from repro.server.filestore import DocumentStore, guess_content_type
from repro.sim.events import EventLoop
from repro.sim.network import BandwidthLink, CostModel, Serializer

#: What reaches a node: a client's memoised head, or a peer's request.
Arrival = Union[ParsedHead, Request]
RespondFn = Callable[[Optional[Response]], None]
SendFn = Callable[["QueuedServer", object, Request, RespondFn], None]


class QueuedServer:
    """Front-end queue + worker pool + CPU + NIC for one server node."""

    def __init__(self, name: str, loop: EventLoop, costs: CostModel, *,
                 workers: int, queue_length: int,
                 switch: Optional[BandwidthLink] = None,
                 cpu_scale: float = 1.0) -> None:
        self.name = name
        self.loop = loop
        self.costs = costs
        self.workers = workers
        self.queue_length = queue_length
        # Heterogeneity: CPU charges are multiplied by this factor (1.0 =
        # the calibrated Pentium-200; 2.0 = a machine half as fast).
        self.cpu_scale = cpu_scale
        self.cpu = Serializer(f"cpu:{name}")
        self.nic = BandwidthLink(costs.node_bandwidth, f"nic:{name}")
        self.switch = switch
        self.crashed = False
        self.busy_workers = 0
        self._queue: Deque[Tuple[Arrival, RespondFn]] = deque()
        # Counters surfaced to benches.
        self.arrivals = 0
        self.served = 0
        self.dropped = 0

    # ------------------------------------------------------------------
    # Arrival path (the front-end thread)
    # ------------------------------------------------------------------

    def deliver(self, request: Arrival, respond: RespondFn) -> None:
        """A connection reaches this node at the loop's current time."""
        if self.crashed:
            self.loop.schedule_after(self.costs.request_timeout,
                                     lambda: respond(None))
            return
        self.arrivals += 1
        if self.busy_workers < self.workers:
            self._begin(request, respond)
        elif len(self._queue) < self.queue_length:
            self._queue.append((request, respond))
        else:
            self._drop(request, respond)

    def _drop(self, request: Arrival, respond: RespondFn) -> None:
        """Queue overflow: graceful 503 from the front-end (section 5.2)."""
        self.dropped += 1
        self.on_drop(request)
        response = error_response(StatusCode.SERVICE_UNAVAILABLE,
                                  "connection queue full")
        __, cpu_end = self.cpu.reserve(self.loop.now,
                                       self.costs.error_cpu * self.cpu_scale)
        self._transmit(response, respond, earliest=cpu_end, hold_worker=False)

    # ------------------------------------------------------------------
    # Worker path
    # ------------------------------------------------------------------

    def _begin(self, request: Arrival, respond: RespondFn) -> None:
        self.busy_workers += 1
        self.handle(request, respond)

    def handle(self, request: Arrival, respond: RespondFn) -> None:
        """Subclass hook: compute and send the response.

        Implementations must end by calling :meth:`finish` exactly once
        per request (possibly asynchronously, after sub-requests).
        """
        raise NotImplementedError

    def finish(self, response: Response, respond: RespondFn, *,
               cpu_cost: float) -> None:
        """Charge CPU, transmit, and free the worker when the NIC is done."""
        __, cpu_end = self.cpu.reserve(self.loop.now,
                                       cpu_cost * self.cpu_scale)
        self._transmit(response, respond, earliest=cpu_end, hold_worker=True)
        self.served += 1

    def _transmit(self, response: Response, respond: RespondFn, *,
                  earliest: float, hold_worker: bool) -> None:
        nbytes = len(response.body) + self.costs.effective_connection_overhead()
        __, nic_end = self.nic.reserve_bytes(earliest, nbytes)
        arrival = nic_end + self.costs.link_latency
        if self.switch is not None:
            __, switch_end = self.switch.reserve_bytes(earliest, nbytes)
            arrival = max(arrival, switch_end + self.costs.link_latency)
        if hold_worker:
            self.loop.schedule(nic_end, self._release_worker)
        self.loop.schedule(arrival, lambda: respond(response))

    def _release_worker(self) -> None:
        self.busy_workers -= 1
        if self._queue and self.busy_workers < self.workers and not self.crashed:
            request, respond = self._queue.popleft()
            self._begin(request, respond)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Stop answering; queued connections get no response (timeout)."""
        self.crashed = True
        pending = list(self._queue)
        self._queue.clear()
        for __, respond in pending:
            self.loop.schedule_after(self.costs.request_timeout,
                                     lambda r=respond: r(None))

    def recover(self) -> None:
        self.crashed = False

    # Subclass hooks ----------------------------------------------------

    def on_drop(self, request: Arrival) -> None:
        """Called when the front-end sheds a connection."""


class SimServer(QueuedServer):
    """A DCWS server node: a real engine on a simulated node."""

    def __init__(self, engine: DCWSEngine, loop: EventLoop, costs: CostModel,
                 send: SendFn, *, switch: Optional[BandwidthLink] = None,
                 cpu_scale: float = 1.0) -> None:
        super().__init__(name=str(engine.location), loop=loop, costs=costs,
                         workers=engine.config.worker_threads,
                         queue_length=engine.config.socket_queue_length,
                         switch=switch, cpu_scale=cpu_scale)
        self.engine = engine
        self.send = send

    # ------------------------------------------------------------------

    def handle(self, request: Arrival, respond: RespondFn) -> None:
        result = serve(self.engine, request, self.loop.now)
        if isinstance(result, tuple):
            # Warm: the response its kept bytes carry, a clean hit.
            head, body, __ = result
            result = EngineReply(parse_response(head))
            result.response.body = body
        if isinstance(result, PullFromHome):
            # Lazy migration: the worker blocks on an HTTP session with the
            # home server (section 4.2, sub-condition 1).
            self.send(self, result.home, result.request,
                      lambda response: self._pull_done(result, response, respond))
            return
        self._reply(result, respond)

    def _pull_done(self, pull: PullFromHome, response: Optional[Response],
                   respond: RespondFn) -> None:
        reply = self.engine.complete_pull(pull, response, self.loop.now)
        self._reply(reply, respond)

    def _reply(self, reply: EngineReply, respond: RespondFn) -> None:
        status = reply.response.status
        cost = self.costs.cpu_cost(
            redirected=300 <= status < 400,
            error=status >= 400,
            reconstructed=reply.reconstructed,
            spliced=reply.spliced,
            body_bytes=len(reply.response.body))
        self.finish(reply.response, respond, cpu_cost=cost)

    def on_drop(self, request: Arrival) -> None:
        self.engine.metrics.record_drop(self.loop.now)

    # ------------------------------------------------------------------
    # Periodic machinery: the statistics/pinger threads
    # ------------------------------------------------------------------

    def run_tick(self) -> None:
        """Execute the engine's periodic work at the loop's current time."""
        if self.crashed:
            return
        for action in self.engine.tick(self.loop.now):
            self.send(self, action.peer, action.request,
                      lambda response, a=action: self.engine.complete_action(
                          a, response, self.loop.now))


class StaticServer(QueuedServer):
    """A plain static-file server: the unit of the baseline clusters.

    Serves documents from *store* verbatim; no migration, no redirects, no
    piggybacking.  Used by the round-robin DNS baseline (every node has a
    full replica, as with NCSA's AFS-shared cluster) and behind the TCP
    router baseline.
    """

    def __init__(self, name: str, store: DocumentStore, loop: EventLoop,
                 costs: CostModel, *, workers: int = 12,
                 queue_length: int = 100,
                 switch: Optional[BandwidthLink] = None) -> None:
        super().__init__(name=name, loop=loop, costs=costs, workers=workers,
                         queue_length=queue_length, switch=switch)
        self.store = store
        self.bytes_sent = 0

    def handle(self, request: Arrival, respond: RespondFn) -> None:
        path = request.route
        try:
            data = self.store.get(path)
        except DocumentNotFound:
            self.finish(error_response(StatusCode.NOT_FOUND, path), respond,
                        cpu_cost=self.costs.error_cpu)
            return
        response = Response(status=StatusCode.OK, body=data)
        response.headers.set("Content-Type", guess_content_type(path))
        response.headers.set("Content-Length", str(len(data)))
        self.bytes_sent += len(data)
        self.finish(response, respond,
                    cpu_cost=self.costs.cpu_cost(body_bytes=len(data)))
