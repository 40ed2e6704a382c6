"""Cluster orchestration: servers + clients + network + sampling.

:class:`SimCluster` assembles a complete experiment: DCWS server nodes
(the first hosts the data set; the rest start as empty co-ops, exactly the
paper's cold start), Algorithm 2 clients, the switched network, periodic
engine ticks, and a cluster-wide CPS/BPS sampler.  ``run()`` executes the
virtual-time experiment and returns a :class:`SimulationResult`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.client.walker import WalkerStats
from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.datasets.base import SiteContent
from repro.errors import SimulationError
from repro.http.messages import Request, Response
from repro.http.urls import URL
from repro.server.engine import DCWSEngine
from repro.server.filestore import MemoryStore
from repro.server.stats import TimeSeries, sample_cluster
from repro.faults import FaultPlan
from repro.sim.events import EventLoop
from repro.sim.network import BandwidthLink, CostModel, FaultyTransport, PAPER_COSTS
from repro.sim.simclient import SimClient, shared_parse
from repro.sim.simserver import QueuedServer, SimServer


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs of one simulated experiment."""

    servers: int = 4
    clients: int = 32
    duration: float = 60.0
    sample_interval: float = 10.0
    seed: int = 0
    server_config: ServerConfig = field(default_factory=ServerConfig)
    costs: CostModel = PAPER_COSTS
    client_ramp: float = 1.0       # stagger client starts over this window
    tick_period: Optional[float] = None
    host_prefix: str = "server"
    # Pre-balance the cluster before clients start: non-entry documents are
    # round-robin force-migrated across all servers, modelling a deployment
    # that has already completed its (rate-limited) warm-up.  Used by the
    # peak-load figures; Figure 8 runs cold (prewarm=False).
    prewarm: bool = False
    # Initial placement override: "cold" (all documents at home),
    # "balanced" (same as prewarm=True), or "skewed" (every movable
    # document force-migrated to a single co-op — an adversarial start
    # the policy must recover from via re-migration).  None defers to the
    # ``prewarm`` flag.  Paper future work §6: "the effects of initial
    # data distribution on the potential parallelism and scalability".
    initial_distribution: Optional[str] = None
    # Mean user think time between page views, seconds (0 reproduces the
    # paper's benchmark; the think-time ablation sweeps this).
    think_time: float = 0.0
    # Per-server CPU speed multipliers for heterogeneous clusters: server
    # i's CPU charges are multiplied by cpu_scales[i] (1.0 = a paper-spec
    # Pentium-200; 2.0 = half as fast).  None = homogeneous.
    cpu_scales: Optional[Sequence[float]] = None
    # Deterministic fault injection on server-to-server transfers: the
    # same seeded FaultPlan the real transports consume, adapted to
    # virtual time by repro.sim.network.FaultyTransport.
    faults: Optional[FaultPlan] = None

    def effective_tick_period(self) -> float:
        if self.tick_period is not None:
            return self.tick_period
        return min(self.server_config.stats_interval,
                   self.server_config.pinger_interval) / 2.0


@dataclass
class SimulationResult:
    """Everything a bench needs from one run."""

    config: ClusterConfig
    series: TimeSeries
    client_stats: WalkerStats
    migrations: int
    revocations: int
    replications: int
    reconstructions: int
    redirects_served: int
    drops: int
    events_processed: int
    per_server: Dict[str, Dict[str, object]] = field(default_factory=dict)
    # Replication-group activity (replication_k >= 2 runs).
    repairs: int = 0
    replica_drops: int = 0
    # Client-observed request latencies (virtual seconds, issue to final
    # byte including redirects/retries), for percentile reporting.
    latencies: List[float] = field(default_factory=list)

    def latency_percentile(self, fraction: float) -> float:
        """The *fraction* percentile (0..1) of client latencies; 0.0
        when no latencies were recorded."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        index = min(len(ordered) - 1,
                    max(0, int(fraction * len(ordered))))
        return ordered[index]

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


class SimCluster:
    """One virtual DCWS deployment plus its client population."""

    def __init__(self, sites: Union[SiteContent, Sequence[SiteContent]],
                 config: ClusterConfig) -> None:
        if isinstance(sites, SiteContent):
            sites = [sites]
        if not sites:
            raise SimulationError("cluster needs at least one site")
        if config.servers < 1:
            raise SimulationError("cluster needs at least one server")
        if len(sites) > config.servers:
            raise SimulationError("more sites than servers")
        self.sites = list(sites)
        self.config = config
        self.loop = EventLoop()
        self.switch = BandwidthLink(config.costs.switch_bandwidth, "switch")
        self.locations = [Location(f"{config.host_prefix}{i}", 80)
                          for i in range(config.servers)]
        self.fault_transport: Optional[FaultyTransport] = None
        if config.faults is not None:
            self.fault_transport = FaultyTransport(
                config.faults,
                request_timeout=config.costs.request_timeout,
                link_latency=config.costs.link_latency)
        self.servers: Dict[str, SimServer] = {}
        self._build_servers()
        self.entry_urls = self._entry_urls()
        self.clients: List[SimClient] = []
        self._build_clients()
        self._sampled = TimeSeries()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build_servers(self) -> None:
        for index, location in enumerate(self.locations):
            if index < len(self.sites):
                store = MemoryStore(self.sites[index].documents)
                entry_points = self.sites[index].entry_points
            else:
                store = MemoryStore()
                entry_points = []
            engine = DCWSEngine(
                location, self.config.server_config, store,
                entry_points=entry_points,
                peers=[peer for peer in self.locations if peer != location])
            cpu_scale = 1.0
            if self.config.cpu_scales is not None:
                if len(self.config.cpu_scales) != self.config.servers:
                    raise SimulationError(
                        "cpu_scales must have one entry per server")
                cpu_scale = self.config.cpu_scales[index]
            server = SimServer(engine, self.loop, self.config.costs,
                               send=self._server_send, switch=self.switch,
                               cpu_scale=cpu_scale)
            self.servers[str(location)] = server

    def _entry_urls(self) -> List[URL]:
        urls: List[URL] = []
        for index, site in enumerate(self.sites):
            home = self.locations[index]
            urls.extend(URL(home.host, home.port, entry)
                        for entry in site.entry_points)
        return urls

    def _build_clients(self) -> None:
        parse = shared_parse()
        for index in range(self.config.clients):
            client = SimClient(
                index, self.loop, self.config.costs,
                send=self._client_send, parse=parse,
                entry_points=self.entry_urls,
                seed=self.config.seed * 10_000 + index,
                think_time=self.config.think_time)
            self.clients.append(client)

    # ------------------------------------------------------------------
    # Network
    # ------------------------------------------------------------------

    def server_at(self, location: Location) -> Optional[SimServer]:
        return self.servers.get(str(location))

    def _server_send(self, source: QueuedServer, destination: Location,
                     request: Request,
                     on_response: Callable[[Optional[Response]], None]) -> None:
        """Server-to-server transfer (pulls, validations, pings)."""
        target = self.server_at(destination)
        if target is None or target.crashed:
            self.loop.schedule_after(self.config.costs.request_timeout,
                                     lambda: on_response(None))
            return
        extra_delay = 0.0
        if self.fault_transport is not None:
            fail_after, extra_delay = self.fault_transport.intercept(
                str(destination))
            if fail_after is not None:
                self.loop.schedule_after(fail_after,
                                         lambda: on_response(None))
                return
        __, send_end = source.nic.reserve_bytes(
            self.loop.now, self.config.costs.request_bytes)
        arrival = send_end + self.config.costs.link_latency + extra_delay
        self.loop.schedule(arrival,
                           lambda: target.deliver(request, on_response))

    def client_send(self, url: URL, request: Request,
                    on_response: Callable[[Optional[Response]], None]) -> None:
        """Public client-to-server send — for custom traffic sources such
        as the access-log replayer (:mod:`repro.sim.replay`)."""
        self._client_send(url, request, on_response)

    def _client_send(self, url: URL, request: Request,
                     on_response: Callable[[Optional[Response]], None]) -> None:
        """Client-to-server transfer (client NICs are not the bottleneck)."""
        target = self.servers.get(f"{url.host}:{url.port}")
        if target is None:
            self.loop.schedule_after(self.config.costs.request_timeout,
                                     lambda: on_response(None))
            return
        arrival = self.loop.now + self.config.costs.link_latency
        self.loop.schedule(arrival,
                           lambda: target.deliver(request, on_response))

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------

    def crash_server(self, index: int) -> None:
        self.servers[str(self.locations[index])].crash()

    def recover_server(self, index: int) -> None:
        self.servers[str(self.locations[index])].recover()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, *, extra_setup: Optional[Callable[["SimCluster"], None]] = None
            ) -> SimulationResult:
        """Run the experiment for ``config.duration`` virtual seconds."""
        rng = random.Random(self.config.seed)
        for server in self.servers.values():
            server.engine.initialize(self.loop.now)
        distribution = self.config.initial_distribution or \
            ("balanced" if self.config.prewarm else "cold")
        if distribution == "balanced":
            self._prewarm()
        elif distribution == "skewed":
            self._prewarm(skew_to=1)
        elif distribution != "cold":
            raise SimulationError(
                f"unknown initial_distribution: {distribution!r}")
        tick_period = self.config.effective_tick_period()
        for offset, server in enumerate(self.servers.values()):
            jitter = (offset + 1) * tick_period / max(1, len(self.servers) + 1)
            self.loop.every(tick_period, server.run_tick,
                            end=self.config.duration, start_offset=jitter)
        ramp = max(self.config.client_ramp, 1e-9)
        for client in self.clients:
            client.start(delay=rng.uniform(0.0, ramp))
        self.loop.every(self.config.sample_interval, self._take_sample,
                        end=self.config.duration)
        if extra_setup is not None:
            extra_setup(self)
        self.loop.run_until(self.config.duration)
        for client in self.clients:
            client.stop()
        return self._result()

    def _prewarm(self, skew_to: Optional[int] = None) -> None:
        """Distribute each site's non-entry documents over the servers.

        Default: round-robin (the home keeps its 1/N share plus every
        entry point) — the state a long-running deployment converges to
        under saturation.  ``skew_to=i`` instead piles every movable
        document onto server *i* (the adversarial start of the
        initial-distribution ablation).  Migrated bytes still move lazily
        on first request, so a short organic warm-up remains.
        Single-location semantics are preserved: a hot document still
        lives on exactly one server, so hot-spot ceilings (SBLog, MAPUG)
        survive pre-warming.
        """
        for site_index in range(len(self.sites)):
            home = self.locations[site_index]
            engine = self.servers[str(home)].engine
            movable = [record.name for record in engine.graph.documents()
                       if not record.entry_point]
            movable.sort()
            targets = list(self.locations)
            for position, name in enumerate(movable):
                if skew_to is not None:
                    target = targets[skew_to % len(targets)]
                else:
                    target = targets[position % len(targets)]
                if target == home:
                    continue
                engine.policy.force_migrate(name, target, self.loop.now)
            # A long-running system has already rewritten its dirty
            # documents and its co-ops already hold their copies; complete
            # that state at t=0 so the run measures steady behaviour, not
            # an artificial regeneration/pull storm.
            engine.regenerate_dirty()
            for record in engine.graph.migrated_documents():
                coop_engine = self.servers[str(record.location)].engine
                data = engine.store.get(record.name)
                coop_engine.seed_hosted(home, record.name, data,
                                        record.version, self.loop.now)

    def _take_sample(self) -> None:
        engines = [server.engine for server in self.servers.values()]
        self._sampled.add(sample_cluster(self.loop.now, engines))

    def _result(self) -> SimulationResult:
        client_stats = WalkerStats()
        latencies: List[float] = []
        for client in self.clients:
            stats = client.stats
            client_stats.sequences += stats.sequences
            client_stats.steps += stats.steps
            client_stats.requests += stats.requests
            client_stats.bytes_received += stats.bytes_received
            client_stats.cache_hits += stats.cache_hits
            client_stats.drops += stats.drops
            client_stats.redirects += stats.redirects
            client_stats.errors += stats.errors
            client_stats.backoff_time += stats.backoff_time
            client_stats.replica_fallbacks += stats.replica_fallbacks
            latencies.extend(client.latencies)
        migrations = revocations = replications = 0
        reconstructions = redirects = drops = 0
        repairs = replica_drops = 0
        per_server: Dict[str, Dict[str, object]] = {}
        for key, server in self.servers.items():
            engine = server.engine
            migrations += engine.stats.migrations
            revocations += engine.stats.revocations
            replications += engine.stats.replications
            repairs += engine.stats.repairs
            replica_drops += engine.stats.replica_drops
            reconstructions += engine.stats.reconstructions
            redirects += engine.stats.responses_301
            drops += server.dropped
            per_server[key] = {
                "requests": engine.stats.requests,
                "served": server.served,
                "dropped": server.dropped,
                "migrated_away": len(engine.graph.migrated_documents()),
                "hosted": sum(1 for h in engine.hosted.values() if h.fetched),
                "pings": engine.stats.pings,
                "validations": engine.stats.validations,
                "redirects": engine.stats.responses_301,
                "cpu_utilization": server.cpu.utilization(self.loop.now),
                "nic_utilization": server.nic.utilization(self.loop.now),
            }
        return SimulationResult(
            config=self.config,
            series=self._sampled,
            client_stats=client_stats,
            migrations=migrations,
            revocations=revocations,
            replications=replications,
            reconstructions=reconstructions,
            redirects_served=redirects,
            drops=drops,
            events_processed=self.loop.events_processed,
            per_server=per_server,
            repairs=repairs,
            replica_drops=replica_drops,
            latencies=latencies,
        )
