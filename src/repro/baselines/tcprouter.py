"""Central TCP-router cluster baseline (paper section 2).

Models the Cisco LocalDirector / IBM TCP-router / MagicRouter pattern the
paper argues against: one router owns the virtual address, rewrites each
inbound connection to a backend chosen round-robin, and — in the common
one-armed deployment — carries the response bytes back out through its own
NIC.  "The packet router is expected to be a bottleneck as all packets
must pass through it" (section 1): here that is literal, because every
response reserves the router's 100 Mbps egress and a per-connection slice
of router CPU.

Backends are full replicas (the router pattern assumes identical servers).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

from repro.client.walker import WalkerStats
from repro.datasets.base import SiteContent
from repro.errors import SimulationError
from repro.http.messages import Response
from repro.http.urls import URL
from repro.server.filestore import MemoryStore
from repro.baselines.rr_dns import BaselineResult, _CountingSampler
from repro.sim.cluster import ClusterConfig
from repro.sim.events import EventLoop
from repro.sim.network import BandwidthLink, Serializer
from repro.sim.simclient import SimClient, shared_parse
from repro.sim.simserver import Arrival, StaticServer

#: CPU the router spends rewriting one connection's packets (seconds).
ROUTER_CONNECTION_CPU = 0.0002


class TCPRouterCluster:
    """N replicated backends behind one connection-rewriting router."""

    def __init__(self, site: SiteContent, config: ClusterConfig) -> None:
        if config.servers < 1:
            raise SimulationError("need at least one backend")
        self.site = site
        self.config = config
        self.loop = EventLoop()
        self.switch = BandwidthLink(config.costs.switch_bandwidth, "switch")
        shared = MemoryStore(site.documents)
        self.backends: List[StaticServer] = [
            StaticServer(f"backend{i}", shared, self.loop, config.costs,
                         workers=config.server_config.worker_threads,
                         queue_length=config.server_config.socket_queue_length,
                         switch=self.switch)
            for i in range(config.servers)
        ]
        self.router_cpu = Serializer("router-cpu")
        self.router_nic = BandwidthLink(config.costs.node_bandwidth, "router-nic")
        self._rotor = 0
        self._sampler = _CountingSampler(config.sample_interval)
        self._served_last: Dict[str, int] = {}
        self.clients: List[SimClient] = []
        parse = shared_parse()
        entry_urls = [URL("vip", 80, entry) for entry in site.entry_points]
        for index in range(config.clients):
            self.clients.append(SimClient(
                index, self.loop, config.costs,
                send=self._route, parse=parse,
                entry_points=entry_urls,
                seed=config.seed * 10_000 + index))

    # ------------------------------------------------------------------
    # The router data path
    # ------------------------------------------------------------------

    def _route(self, url: URL, request: Arrival,
               on_response: Callable[[Optional[Response]], None]) -> None:
        """client -> router (CPU) -> backend -> router (NIC) -> client."""
        costs = self.config.costs
        backend = self.backends[self._rotor % len(self.backends)]
        self._rotor += 1
        __, cpu_end = self.router_cpu.reserve(
            self.loop.now + costs.link_latency, ROUTER_CONNECTION_CPU)

        def backend_responded(response: Optional[Response]) -> None:
            if response is None:
                self._sampler.count(None)
                on_response(None)
                return
            nbytes = len(response.body) + costs.effective_connection_overhead()
            __, nic_end = self.router_nic.reserve_bytes(self.loop.now, nbytes)
            arrival = nic_end + costs.link_latency
            self.loop.schedule(arrival, lambda: _deliver(response))

        def _deliver(response: Response) -> None:
            self._sampler.count(response)
            on_response(response)

        self.loop.schedule(cpu_end + costs.link_latency,
                           lambda: backend.deliver(request, backend_responded))

    # ------------------------------------------------------------------

    def run(self) -> BaselineResult:
        rng = random.Random(self.config.seed)
        ramp = max(self.config.client_ramp, 1e-9)
        for client in self.clients:
            client.start(delay=rng.uniform(0.0, ramp))
        self.loop.every(self.config.sample_interval, self._take_sample,
                        end=self.config.duration)
        self.loop.run_until(self.config.duration)
        for client in self.clients:
            client.stop()
        return self._result()

    def _take_sample(self) -> None:
        per_server: Dict[str, float] = {}
        for backend in self.backends:
            last = self._served_last.get(backend.name, 0)
            per_server[backend.name] = (
                (backend.served - last) / self.config.sample_interval)
            self._served_last[backend.name] = backend.served
        self._sampler.take(self.loop.now, per_server)

    def _result(self) -> BaselineResult:
        client_stats = WalkerStats()
        for client in self.clients:
            client_stats.requests += client.stats.requests
            client_stats.sequences += client.stats.sequences
            client_stats.drops += client.stats.drops
            client_stats.errors += client.stats.errors
            client_stats.bytes_received += client.stats.bytes_received
        per_server = {
            b.name: {"served": b.served, "dropped": b.dropped,
                     "cpu_utilization": b.cpu.utilization(self.loop.now)}
            for b in self.backends}
        per_server["router"] = {
            "cpu_utilization": self.router_cpu.utilization(self.loop.now),
            "nic_utilization": self.router_nic.utilization(self.loop.now),
        }
        return BaselineResult(
            series=self._sampler.series,
            client_stats=client_stats,
            drops=sum(b.dropped for b in self.backends),
            storage_bytes=self.site.stats.total_bytes * len(self.backends),
            events_processed=self.loop.events_processed,
            per_server=per_server,
        )
