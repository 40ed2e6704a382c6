"""Round-robin DNS cluster baseline (paper section 2, NCSA prototype).

Every server is an identical replica of the whole site (the NCSA system
shared content through AFS).  A DNS round-robin hands out server addresses;
clients cache the mapping for a TTL, so one client sticks to one server
for TTL seconds — the coarse granularity the paper contrasts with DCWS's
per-document control.

Storage cost is ``N × site size`` (reported in the result), which is the
baseline's structural disadvantage even when its throughput matches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.client.walker import WalkerStats
from repro.datasets.base import SiteContent
from repro.errors import SimulationError
from repro.http.messages import Response
from repro.http.urls import URL
from repro.server.filestore import MemoryStore
from repro.server.stats import ClusterSample, TimeSeries
from repro.sim.cluster import ClusterConfig
from repro.sim.events import EventLoop
from repro.sim.network import BandwidthLink
from repro.sim.simclient import SimClient, shared_parse
from repro.sim.simserver import Arrival, StaticServer


@dataclass
class BaselineResult:
    """Mirror of :class:`repro.sim.cluster.SimulationResult` essentials."""

    series: TimeSeries
    client_stats: WalkerStats
    drops: int
    storage_bytes: int
    events_processed: int
    per_server: Dict[str, Dict[str, object]] = field(default_factory=dict)

    @property
    def peak_cps(self) -> float:
        return self.series.peak_cps()

    @property
    def peak_bps(self) -> float:
        return self.series.peak_bps()

    def steady_cps(self, fraction: float = 0.5) -> float:
        return self.series.steady_state(fraction).mean_cps()

    def steady_bps(self, fraction: float = 0.5) -> float:
        return self.series.steady_state(fraction).mean_bps()


class _CountingSampler:
    """Derives CPS/BPS series from cluster-level delta counters."""

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.requests = 0
        self.bytes = 0
        self.drops = 0
        self._last_requests = 0
        self._last_bytes = 0
        self.series = TimeSeries()

    def count(self, response: Optional[Response]) -> None:
        if response is None:
            return
        self.requests += 1
        self.bytes += len(response.body)
        if response.status == 503:
            self.drops += 1

    def take(self, now: float, per_server_cps: Dict[str, float]) -> None:
        cps = (self.requests - self._last_requests) / self.interval
        bps = (self.bytes - self._last_bytes) / self.interval
        self._last_requests = self.requests
        self._last_bytes = self.bytes
        self.series.add(ClusterSample(time=now, cps=cps, bps=bps,
                                      drops_per_second=0.0,
                                      per_server_cps=per_server_cps))


class RoundRobinDNSCluster:
    """N replicated static servers behind a round-robin DNS."""

    def __init__(self, site: SiteContent, config: ClusterConfig, *,
                 dns_ttl: float = 30.0) -> None:
        if config.servers < 1:
            raise SimulationError("need at least one server")
        self.site = site
        self.config = config
        self.dns_ttl = dns_ttl
        self.loop = EventLoop()
        self.switch = BandwidthLink(config.costs.switch_bandwidth, "switch")
        # One shared dict: replicas without N copies in host memory (the
        # model charges storage_bytes = N × size in the result instead).
        shared = MemoryStore(site.documents)
        self.servers: List[StaticServer] = [
            StaticServer(f"replica{i}", shared, self.loop, config.costs,
                         workers=config.server_config.worker_threads,
                         queue_length=config.server_config.socket_queue_length,
                         switch=self.switch)
            for i in range(config.servers)
        ]
        self._rotor = 0
        self._sampler = _CountingSampler(config.sample_interval)
        self._served_last: Dict[str, int] = {}
        self.clients: List[SimClient] = []
        parse = shared_parse()
        entry_urls = [URL("www", 80, entry) for entry in site.entry_points]
        for index in range(config.clients):
            self.clients.append(SimClient(
                index, self.loop, config.costs,
                send=self._make_send(index), parse=parse,
                entry_points=entry_urls,
                seed=config.seed * 10_000 + index))

    # ------------------------------------------------------------------

    def _resolve(self, lease: Dict[str, object]) -> StaticServer:
        """Round-robin DNS with client-side TTL caching."""
        now = self.loop.now
        expires = lease.get("expires", -1.0)
        if lease.get("server") is None or now >= float(expires):  # type: ignore[arg-type]
            lease["server"] = self.servers[self._rotor % len(self.servers)]
            self._rotor += 1
            lease["expires"] = now + self.dns_ttl
        return lease["server"]  # type: ignore[return-value]

    def _make_send(self, client_index: int):
        lease: Dict[str, object] = {"server": None, "expires": -1.0}

        def send(url: URL, request: Arrival,
                 on_response: Callable[[Optional[Response]], None]) -> None:
            server = self._resolve(lease)

            def counted(response: Optional[Response]) -> None:
                self._sampler.count(response)
                on_response(response)

            arrival = self.loop.now + self.config.costs.link_latency
            self.loop.schedule(arrival,
                               lambda: server.deliver(request, counted))

        return send

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
        for server in self.servers:
            last = self._served_last.get(server.name, 0)
            per_server[server.name] = (
                (server.served - last) / self.config.sample_interval)
            self._served_last[server.name] = server.served
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
            s.name: {"served": s.served, "dropped": s.dropped,
                     "cpu_utilization": s.cpu.utilization(self.loop.now)}
            for s in self.servers}
        return BaselineResult(
            series=self._sampler.series,
            client_stats=client_stats,
            drops=sum(s.dropped for s in self.servers),
            storage_bytes=self.site.stats.total_bytes * len(self.servers),
            events_processed=self.loop.events_processed,
            per_server=per_server,
        )
