"""Experiment drivers: one function per paper table/figure plus ablations.

Each driver runs the required sweep through the simulator and returns a
result object carrying the same rows/series the paper reports, a
``format()`` rendering for terminals, and shape-check helpers the pytest
benches assert on (who wins, by what factor, where crossovers fall).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from repro.baselines.rr_dns import RoundRobinDNSCluster
from repro.baselines.tcprouter import TCPRouterCluster
from repro.bench.harness import (
    ExperimentScale,
    build_site,
    cluster_config,
    current_scale,
    run_dcws,
    saturating_clients,
    scaled_server_config,
)
from repro.bench.reporting import format_table, sparkline
from repro.core.config import ServerConfig
from repro.datasets.base import filler_text
from repro.html.parser import parse_html
from repro.html.rewriter import rewrite_html
from repro.server.stats import growth_profile
from repro.sim.cluster import SimCluster, SimulationResult

PAPER_DATASETS = ("mapug", "sblog", "lod", "sequoia")


# ======================================================================
# Figure 6: peak load — BPS and CPS vs number of concurrent clients
# ======================================================================

@dataclass
class Figure6Result:
    """CPS/BPS per (server count, client count) on the LOD data set."""

    dataset: str
    rows: List[Tuple[int, int, float, float]]  # servers, clients, cps, bps

    def series_for(self, servers: int) -> List[Tuple[int, float, float]]:
        return [(clients, cps, bps) for s, clients, cps, bps in self.rows
                if s == servers]

    def peak_cps(self, servers: int) -> float:
        return max((cps for s, __, cps, __ in self.rows if s == servers),
                   default=0.0)

    def peak_bps(self, servers: int) -> float:
        return max((bps for s, __, __, bps in self.rows if s == servers),
                   default=0.0)

    def format(self) -> str:
        return format_table(
            ("servers", "clients", "CPS", "BPS (MB/s)"),
            [(s, c, cps, bps / 1e6) for s, c, cps, bps in self.rows],
            title=f"Figure 6 — peak load, {self.dataset.upper()} data set")


def figure6(scale: Optional[ExperimentScale] = None, *,
            dataset: str = "lod",
            server_counts: Optional[Sequence[int]] = None,
            client_counts: Optional[Sequence[int]] = None) -> Figure6Result:
    """Sweep client population for several cluster sizes (paper Fig. 6).

    Expected shape: CPS/BPS rise roughly linearly with clients, flatten at
    a per-cluster-size peak, and the peak doubles when servers double.
    """
    scale = scale or current_scale()
    servers_sweep = tuple(server_counts or scale.server_counts)
    clients_sweep = tuple(client_counts or scale.client_counts)
    site = build_site(dataset)
    rows: List[Tuple[int, int, float, float]] = []
    for servers in servers_sweep:
        for clients in clients_sweep:
            result = run_dcws(site, servers=servers, clients=clients,
                              scale=scale, prewarm=True)
            rows.append((servers, clients,
                         result.steady_cps(), result.steady_bps()))
    return Figure6Result(dataset=dataset, rows=rows)


# ======================================================================
# Figure 7: scalability — peak BPS and CPS vs number of servers
# ======================================================================

@dataclass
class Figure7Result:
    """Peak CPS/BPS per (data set, server count)."""

    rows: List[Tuple[str, int, float, float]]  # dataset, servers, cps, bps

    def series_for(self, dataset: str) -> List[Tuple[int, float, float]]:
        return [(servers, cps, bps) for d, servers, cps, bps in self.rows
                if d == dataset]

    def scaling_ratio(self, dataset: str, low: int, high: int,
                      metric: str = "cps") -> float:
        """peak(high servers) / peak(low servers); 1.0 means no gain."""
        series = {servers: (cps, bps)
                  for __, servers, cps, bps in self.series_with_name(dataset)}
        index = 0 if metric == "cps" else 1
        low_value = series[low][index]
        if low_value <= 0:
            return float("inf")
        return series[high][index] / low_value

    def series_with_name(self, dataset: str):
        return [(d, servers, cps, bps) for d, servers, cps, bps in self.rows
                if d == dataset]

    def format(self) -> str:
        return format_table(
            ("dataset", "servers", "peak CPS", "peak BPS (MB/s)"),
            [(d, s, cps, bps / 1e6) for d, s, cps, bps in self.rows],
            title="Figure 7 — scalability across data sets")


def figure7(scale: Optional[ExperimentScale] = None, *,
            datasets: Sequence[str] = PAPER_DATASETS,
            server_counts: Optional[Sequence[int]] = None) -> Figure7Result:
    """Sweep cluster size for each data set (paper Fig. 7).

    Expected shape: LOD and Sequoia scale near-linearly; SBLog and MAPUG
    go clearly sub-linear at larger cluster sizes because their hot images
    saturate whichever co-op hosts them.
    """
    scale = scale or current_scale()
    servers_sweep = tuple(server_counts or scale.server_counts)
    rows: List[Tuple[str, int, float, float]] = []
    for dataset in datasets:
        site = build_site(dataset)
        for servers in servers_sweep:
            clients = saturating_clients(scale, servers)
            result = run_dcws(site, servers=servers, clients=clients,
                              scale=scale, prewarm=True)
            rows.append((dataset, servers,
                         result.steady_cps(), result.steady_bps()))
    return Figure7Result(rows=rows)


# ======================================================================
# Figure 8: time-exponential growth from a cold start
# ======================================================================

@dataclass
class Figure8Result:
    """CPS/BPS vs time from a cold start (1 home, empty co-ops)."""

    dataset: str
    servers: int
    times: List[float]
    cps: List[float]
    bps: List[float]
    migrations: int

    def cps_growth(self) -> List[float]:
        return growth_profile(self.cps)

    def is_accelerating(self, split: float = 0.5) -> bool:
        """True when the mean growth increment of the later part of the
        run exceeds the earlier part's — the "exponential" signature."""
        growth = self.cps_growth()
        if len(growth) < 4:
            return False
        pivot = int(len(growth) * split)
        early = growth[:pivot]
        late = growth[pivot:]
        if not early or not late:
            return False
        return (sum(late) / len(late)) > (sum(early) / len(early))

    def warmup_gain(self) -> float:
        """final CPS / initial CPS."""
        if not self.cps or self.cps[0] <= 0:
            return float("inf")
        return self.cps[-1] / self.cps[0]

    def format(self) -> str:
        lines = [f"Figure 8 — cold-start growth, {self.dataset.upper()}, "
                 f"{self.servers} servers ({self.migrations} migrations)"]
        lines.append("CPS  " + sparkline(self.cps))
        lines.append("BPS  " + sparkline(self.bps))
        rows = list(zip(self.times, self.cps,
                        (b / 1e6 for b in self.bps)))
        lines.append(format_table(("t (s)", "CPS", "BPS (MB/s)"), rows))
        return "\n".join(lines)


def figure8(scale: Optional[ExperimentScale] = None, *,
            dataset: str = "lod", servers: int = 8,
            clients: Optional[int] = None,
            warmup_compression: float = 3.0) -> Figure8Result:
    """Cold-start run (paper Fig. 8): all files on one home server,
    co-ops empty, performance sampled over time.

    The paper's warm-up spans 30 minutes at T_st = 10 s (≈180 migration
    opportunities).  ``warmup_compression`` shrinks the migration/
    consistency intervals a further factor below the scale's base
    compression so the same *number* of migration rounds fits in the
    scaled run — preserving the curve's shape, not its wall-clock span.
    """
    scale = scale or current_scale()
    site = build_site(dataset)
    client_count = clients if clients is not None else \
        saturating_clients(scale, servers)
    base = scaled_server_config(scale)
    compressed = base.scaled(1.0 / max(1.0, warmup_compression))
    result = run_dcws(site, servers=servers, clients=client_count,
                      scale=scale, prewarm=False,
                      server_config=compressed,
                      duration=scale.coldstart_duration)
    return Figure8Result(
        dataset=dataset, servers=servers,
        times=result.series.times(),
        cps=result.series.cps_series(),
        bps=result.series.bps_series(),
        migrations=result.migrations)


# ======================================================================
# Table 2: parameter-tuning trade-offs
# ======================================================================

@dataclass
class Table2Row:
    parameter: str
    low_value: float
    high_value: float
    metric: str
    low_result: float
    high_result: float
    expectation: str

    @property
    def matches_expectation(self) -> bool:
        """The paper predicts each metric's direction; check it."""
        if self.expectation == "higher_with_low":
            return self.low_result >= self.high_result
        return self.high_result >= self.low_result


@dataclass
class Table2Result:
    rows: List[Table2Row] = field(default_factory=list)

    def row(self, parameter: str) -> Table2Row:
        for row in self.rows:
            if row.parameter == parameter:
                return row
        raise KeyError(parameter)

    def format(self) -> str:
        return format_table(
            ("parameter", "low", "high", "metric", "@low", "@high", "as predicted"),
            [(r.parameter, r.low_value, r.high_value, r.metric,
              r.low_result, r.high_result, "yes" if r.matches_expectation else "NO")
             for r in self.rows],
            title="Table 2 — parameter tuning trade-offs")


def table2(scale: Optional[ExperimentScale] = None, *,
           dataset: str = "lod", servers: int = 4) -> Table2Result:
    """Measure each Table 2 trade-off with a low/high parameter pair.

    Every run is a cold start so migration/consistency machinery is fully
    exercised; metrics are overhead or responsiveness counters whose
    direction the paper predicts in Table 2.
    """
    scale = scale or current_scale()
    site = build_site(dataset)
    base = scaled_server_config(scale)
    clients = saturating_clients(scale, servers)
    duration = scale.duration * 2

    def run_with(config: ServerConfig) -> SimulationResult:
        return run_dcws(site, servers=servers, clients=clients, scale=scale,
                        prewarm=False, duration=duration,
                        server_config=config)

    result = Table2Result()

    # T_st: lower -> more migration/recalculation overhead (more
    # migrations in the same window); higher -> longer delay to balance.
    low, high = base.stats_interval * 0.5, base.stats_interval * 4
    r_low = run_with(replace(base, stats_interval=low))
    r_high = run_with(replace(base, stats_interval=high))
    result.rows.append(Table2Row(
        "T_st", low, high, "migrations",
        float(r_low.migrations), float(r_high.migrations),
        expectation="higher_with_low"))

    # T_pi: lower -> more overhead due to forced pinger requests.
    low, high = base.pinger_interval * 0.5, base.pinger_interval * 4
    r_low = run_with(replace(base, pinger_interval=low))
    r_high = run_with(replace(base, pinger_interval=high))
    pings_low = _total_pings(r_low)
    pings_high = _total_pings(r_high)
    result.rows.append(Table2Row(
        "T_pi", low, high, "forced pings",
        pings_low, pings_high, expectation="higher_with_low"))

    # T_val: lower -> more (re)validation transfers of unchanged documents.
    low, high = base.validation_interval * 0.25, base.validation_interval * 4
    r_low = run_with(replace(base, validation_interval=low))
    r_high = run_with(replace(base, validation_interval=high))
    result.rows.append(Table2Row(
        "T_val", low, high, "validation transfers",
        _total_validations(r_low), _total_validations(r_high),
        expectation="higher_with_low"))

    # T_home: lower -> more overhead for migration and redirection
    # (re-migrations happen sooner and more often).
    low, high = base.home_remigration_interval * 0.1, \
        base.home_remigration_interval * 10
    r_low = run_with(replace(base, home_remigration_interval=low,
                             imbalance_tolerance=1.05))
    r_high = run_with(replace(base, home_remigration_interval=high,
                              imbalance_tolerance=1.05))
    result.rows.append(Table2Row(
        "T_home", low, high, "migrations+redirects",
        float(r_low.migrations + r_low.redirects_served),
        float(r_high.migrations + r_high.redirects_served),
        expectation="higher_with_low"))

    # T_coop: lower -> shorter delay to balance load (more migrations
    # early, faster spread); higher -> less often migration.
    low, high = base.coop_migration_spacing * 0.25, \
        base.coop_migration_spacing * 4
    r_low = run_with(replace(base, coop_migration_spacing=low))
    r_high = run_with(replace(base, coop_migration_spacing=high))
    result.rows.append(Table2Row(
        "T_coop", low, high, "migrations",
        float(r_low.migrations), float(r_high.migrations),
        expectation="higher_with_low"))
    return result


def _total_pings(result: SimulationResult) -> float:
    return float(sum(int(info.get("pings", 0))
                     for info in result.per_server.values()))


def _total_validations(result: SimulationResult) -> float:
    return float(sum(int(info.get("validations", 0))
                     for info in result.per_server.values()))


# ======================================================================
# Section 5.3 — parsing/reconstruction overhead
# ======================================================================

@dataclass
class OverheadResult:
    """Measured parse/reconstruct costs plus in-run reconstruction rates."""

    mean_document_bytes: float
    parse_ms: float
    reconstruct_ms: float
    mean_reconstruction_rate: float   # documents per second (simulated run)
    peak_reconstruction_rate: float
    paper_parse_ms: float = 3.0
    paper_reconstruct_ms: float = 20.0

    def format(self) -> str:
        return format_table(
            ("quantity", "paper (1998 CPU)", "measured"),
            [("mean document size (KB)", 6.5, self.mean_document_bytes / 1024),
             ("parse time (ms/doc)", self.paper_parse_ms, self.parse_ms),
             ("reconstruct time (ms/doc)", self.paper_reconstruct_ms,
              self.reconstruct_ms),
             ("LOD reconstruction rate avg (doc/s)", 1.3,
              self.mean_reconstruction_rate),
             ("LOD reconstruction rate peak (doc/s)", 17.2,
              self.peak_reconstruction_rate)],
            title="Section 5.3 — parsing and reconstruction overhead")


def overhead(scale: Optional[ExperimentScale] = None, *,
             corpus_documents: int = 200,
             document_bytes: int = 6500) -> OverheadResult:
    """Time the real parser/rewriter on a 6.5 KB-average corpus and read
    reconstruction rates out of a cold-start LOD run (paper section 5.3)."""
    scale = scale or current_scale()
    import random as _random

    rng = _random.Random(7)
    corpus: List[str] = []
    for index in range(corpus_documents):
        links = "".join(
            f'<a href="/doc{(index + k) % corpus_documents}.html">x</a>'
            for k in range(10))
        body = filler_text(rng, document_bytes - 400)
        corpus.append(f"<html><head><title>d{index}</title></head>"
                      f"<body>{links}<p>{body}</p></body></html>")
    mean_bytes = sum(len(d) for d in corpus) / len(corpus)

    start = _time.perf_counter()
    for source in corpus:
        parse_html(source)
    parse_ms = (_time.perf_counter() - start) * 1000.0 / len(corpus)

    start = _time.perf_counter()
    for source in corpus:
        rewrite_html(source, lambda value: value + "?v=2"
                     if value.startswith("/doc") else None)
    reconstruct_ms = (_time.perf_counter() - start) * 1000.0 / len(corpus)

    site = build_site("lod")
    result = run_dcws(site, servers=4,
                      clients=saturating_clients(scale, 4),
                      scale=scale, prewarm=False,
                      duration=scale.duration * 2)
    rates = [s.reconstructions_per_second for s in result.series.samples]
    mean_rate = (sum(rates) / len(rates)) if rates else 0.0
    peak_rate = max(rates, default=0.0)
    return OverheadResult(
        mean_document_bytes=mean_bytes,
        parse_ms=parse_ms,
        reconstruct_ms=reconstruct_ms,
        mean_reconstruction_rate=mean_rate,
        peak_reconstruction_rate=peak_rate)


# ======================================================================
# Section 5.3 — CPS vs BPS ordering across data sets
# ======================================================================

@dataclass
class CpsVsBpsResult:
    rows: List[Tuple[str, float, float, float]]  # dataset, cps, bps, bytes/conn

    def bps_order(self) -> List[str]:
        return [d for d, __, bps, __ in
                sorted(self.rows, key=lambda r: -r[2])]

    def cps_order(self) -> List[str]:
        return [d for d, cps, __, __ in
                sorted(self.rows, key=lambda r: -r[1])]

    def format(self) -> str:
        return format_table(
            ("dataset", "CPS", "BPS (MB/s)", "bytes/conn"),
            [(d, cps, bps / 1e6, bpc) for d, cps, bps, bpc in self.rows],
            title="Section 5.3 — CPS vs BPS across data sets")


def cps_vs_bps(scale: Optional[ExperimentScale] = None, *,
               servers: int = 4,
               datasets: Sequence[str] = PAPER_DATASETS) -> CpsVsBpsResult:
    """Peak CPS and BPS for every data set at one cluster size.

    Expected shape (section 5.3): BPS ranks by mean document size
    (Sequoia > SBLog > MAPUG > LOD) and CPS ranks in the reverse order.
    """
    scale = scale or current_scale()
    rows: List[Tuple[str, float, float, float]] = []
    for dataset in datasets:
        site = build_site(dataset)
        result = run_dcws(site, servers=servers,
                          clients=saturating_clients(scale, servers),
                          scale=scale, prewarm=True)
        cps = result.steady_cps()
        bps = result.steady_bps()
        rows.append((dataset, cps, bps, (bps / cps) if cps > 0 else 0.0))
    return CpsVsBpsResult(rows=rows)


# ======================================================================
# Ablations
# ======================================================================

@dataclass
class BaselineComparison:
    rows: List[Tuple[str, str, int, float, float, float]]
    # (dataset, system, servers, cps, bps, storage MB)

    def steady_cps_of(self, dataset: str, system: str, servers: int) -> float:
        for d, s, n, cps, __, __ in self.rows:
            if (d, s, n) == (dataset, system, servers):
                return cps
        raise KeyError((dataset, system, servers))

    def format(self) -> str:
        return format_table(
            ("dataset", "system", "servers", "CPS", "BPS (MB/s)", "storage (MB)"),
            [(d, s, n, cps, bps / 1e6, storage / 1e6)
             for d, s, n, cps, bps, storage in self.rows],
            title="Ablation — DCWS vs round-robin DNS vs TCP router")


def ablation_baselines(scale: Optional[ExperimentScale] = None, *,
                       datasets: Sequence[str] = ("lod",),
                       server_counts: Sequence[int] = (2, 8)) -> BaselineComparison:
    """DCWS against the related-work architectures of section 2."""
    scale = scale or current_scale()
    rows: List[Tuple[str, str, int, float, float, float]] = []
    for dataset in datasets:
        site = build_site(dataset)
        for servers in server_counts:
            clients = saturating_clients(scale, servers)
            dcws = run_dcws(site, servers=servers, clients=clients,
                            scale=scale, prewarm=True)
            rows.append((dataset, "dcws", servers, dcws.steady_cps(),
                         dcws.steady_bps(),
                         float(site.stats.total_bytes)))
            config = cluster_config(scale, servers=servers, clients=clients)
            rr = RoundRobinDNSCluster(site, config).run()
            rows.append((dataset, "rr-dns", servers, rr.steady_cps(),
                         rr.steady_bps(), float(rr.storage_bytes)))
            router = TCPRouterCluster(site, config).run()
            rows.append((dataset, "tcp-router", servers, router.steady_cps(),
                         router.steady_bps(), float(router.storage_bytes)))
    return BaselineComparison(rows=rows)


@dataclass
class ReplicationAblation:
    dataset: str
    servers: int
    cps_without: float
    cps_with: float
    replications: int
    max_replicas: int

    @property
    def gain(self) -> float:
        if self.cps_without <= 0:
            return float("inf")
        return self.cps_with / self.cps_without

    def format(self) -> str:
        return format_table(
            ("variant", "CPS"),
            [("single location (prototype)", self.cps_without),
             (f"max_replicas={self.max_replicas} "
              f"({self.replications} replications)", self.cps_with)],
            title=f"Ablation — hot-spot replication, {self.dataset.upper()},"
                  f" {self.servers} servers")


def ablation_replication(scale: Optional[ExperimentScale] = None, *,
                         dataset: str = "sblog",
                         servers: int = 8) -> ReplicationAblation:
    """The paper's future-work fix (section 6): replicate hot documents.

    Expected shape: on the hot-spot data set, allowing replicas raises the
    ceiling the single hot co-op imposed.
    """
    scale = scale or current_scale()
    site = build_site(dataset)
    clients = saturating_clients(scale, servers)
    base = scaled_server_config(scale)
    # Long enough for replica links to propagate: referring documents
    # hosted on co-ops only pick up rewritten links at their next
    # validation, so the run must span several validation intervals.
    duration = max(scale.duration * 2, base.validation_interval * 3)
    replicated = replace(base, max_replicas=4, imbalance_tolerance=1.05)
    without = run_dcws(site, servers=servers, clients=clients, scale=scale,
                       prewarm=True, server_config=base, duration=duration)
    with_replicas = run_dcws(
        site, servers=servers, clients=clients, scale=scale, prewarm=True,
        duration=duration, server_config=replicated)
    return ReplicationAblation(
        dataset=dataset, servers=servers,
        cps_without=without.steady_cps(),
        cps_with=with_replicas.steady_cps(),
        replications=with_replicas.replications,
        max_replicas=replicated.max_replicas)


@dataclass
class KillHolderBench:
    """Availability and tail latency when a replica holder is killed.

    Two variants of the same kill-one-holder experiment: the revoke/
    re-home baseline (``replication_k=1``, the pre-replication-groups
    behaviour) versus replication groups with autonomous repair
    (``replication_k=2``).  Availability is the fraction of client
    requests that did not end in a transport failure or error status.
    """

    dataset: str
    servers: int
    crash_at: float
    rows: List[Tuple[str, float, float, int, int, int, int]]
    # (variant, availability, p99 latency, errors, repairs,
    #  replica_drops, revocations)

    def row(self, variant: str) -> Tuple[str, float, float, int, int, int, int]:
        for entry in self.rows:
            if entry[0] == variant:
                return entry
        raise KeyError(variant)

    def availability(self, variant: str) -> float:
        return self.row(variant)[1]

    def p99(self, variant: str) -> float:
        return self.row(variant)[2]

    def format(self) -> str:
        return format_table(
            ("variant", "availability", "p99 (s)", "errors", "repairs",
             "replica drops", "revocations"),
            self.rows,
            title=f"Bench — kill one holder, {self.dataset.upper()},"
                  f" {self.servers} servers, crash at t={self.crash_at:.1f}s")


def bench_kill_holder(scale: Optional[ExperimentScale] = None, *,
                      dataset: str = "sblog", servers: int = 6,
                      crash_fraction: float = 0.4) -> KillHolderBench:
    """Kill the busiest co-op mid-run under a Zipf flash crowd.

    Expected shape: with replication groups (k=2) the surviving copy
    keeps the hot documents reachable while the repair daemon restores
    the group, so availability stays strictly above the revoke/re-home
    baseline, whose clients burn timeouts against the dead holder until
    the pinger declares it and every document is yanked back home.
    """
    scale = scale or current_scale()
    site = build_site(dataset)
    clients = saturating_clients(scale, servers)
    base = scaled_server_config(scale)
    # Long enough that detection (ping_failure_limit pings) and at least
    # one repair round both land well inside the post-crash window.
    duration = max(scale.duration * 2, base.pinger_interval * 10)
    crash_at = duration * crash_fraction

    def kill_busiest(cluster: SimCluster) -> None:
        def kill() -> None:
            busiest = max(
                range(1, cluster.config.servers),
                key=lambda i: cluster.servers[
                    str(cluster.locations[i])].served)
            cluster.crash_server(busiest)
        cluster.loop.schedule(crash_at, kill)

    variants = (
        ("baseline", base),
        ("replicated", replace(base, replication_k=2, max_replicas=4,
                               max_replications_per_interval=32)),
    )
    rows: List[Tuple[str, float, float, int, int, int, int]] = []
    for variant, server_config in variants:
        config = cluster_config(scale, servers=servers, clients=clients,
                                prewarm=True, duration=duration,
                                server_config=server_config)
        result = SimCluster(site, config).run(extra_setup=kill_busiest)
        requests = max(1, result.client_stats.requests)
        availability = 1.0 - result.client_stats.errors / requests
        rows.append((variant, availability,
                     result.latency_percentile(0.99),
                     result.client_stats.errors, result.repairs,
                     result.replica_drops, result.revocations))
    return KillHolderBench(dataset=dataset, servers=servers,
                           crash_at=crash_at, rows=rows)


@dataclass
class SelectionAblation:
    rows: List[Tuple[str, float, int, int]]
    # (policy, steady cps, migrations, reconstructions)

    def row(self, policy: str) -> Tuple[str, float, int, int]:
        for entry in self.rows:
            if entry[0] == policy:
                return entry
        raise KeyError(policy)

    def format(self) -> str:
        return format_table(
            ("policy", "CPS", "migrations", "reconstructions"),
            self.rows,
            title="Ablation — Algorithm 1 selection policy")


@dataclass
class ThinkTimeAblation:
    rows: List[Tuple[float, float, float]]  # think time, cps, cps/client

    def format(self) -> str:
        return format_table(
            ("think time (s)", "CPS", "CPS per client"),
            self.rows,
            title="Ablation — user think time (paper future work §6)")


def ablation_think_time(scale: Optional[ExperimentScale] = None, *,
                        dataset: str = "lod", servers: int = 4,
                        think_times: Sequence[float] = (0.0, 2.0, 8.0)
                        ) -> ThinkTimeAblation:
    """Effect of user think time on delivered load.

    The paper's benchmark used zero think time (maximum pressure per
    client).  With think time, each client demands less, so the same
    cluster supports far more concurrent users at the same CPS — the
    "more realistic situations" of section 6.
    """
    scale = scale or current_scale()
    from repro.bench.harness import cluster_config

    site = build_site(dataset)
    clients = saturating_clients(scale, servers)
    rows: List[Tuple[float, float, float]] = []
    for think in think_times:
        config = replace(cluster_config(scale, servers=servers,
                                        clients=clients, prewarm=True),
                         think_time=think)
        result = SimCluster(site, config).run()
        cps = result.steady_cps()
        rows.append((think, cps, cps / clients))
    return ThinkTimeAblation(rows=rows)


@dataclass
class BookmarkAblation:
    """Stale-URL (bookmark/search-engine/log-replay) traffic cost."""

    replay_requests: int
    replay_redirected: int
    replay_succeeded: int
    walker_cps: float

    @property
    def redirect_fraction(self) -> float:
        if self.replay_requests == 0:
            return 0.0
        return self.replay_redirected / self.replay_requests

    def format(self) -> str:
        return format_table(
            ("quantity", "value"),
            [("replayed stale-URL requests", self.replay_requests),
             ("  -> answered via 301 redirect", self.replay_redirected),
             ("  -> ultimately served 200", self.replay_succeeded),
             ("redirect fraction", self.redirect_fraction),
             ("concurrent walker CPS (unaffected)", self.walker_cps)],
            title="Ablation — bookmark/log-replay traffic (sections 4.4, 6)")


def ablation_bookmarks(scale: Optional[ExperimentScale] = None, *,
                       dataset: str = "lod",
                       servers: int = 4) -> BookmarkAblation:
    """Replay a synthesized access log (pre-migration URLs) against a
    warmed cluster while normal walkers browse.

    Shape claim (section 4.4): stale-URL requests for migrated documents
    are answered with cheap 301s and still succeed after one extra
    connection; the redirect fraction approximates the migrated share of
    the replayed document population.
    """
    scale = scale or current_scale()
    from repro.bench.harness import cluster_config
    from repro.datasets.logs import generate_access_log
    from repro.sim.replay import attach_replay

    site = build_site(dataset)
    records = generate_access_log(site, duration=scale.duration * 0.8,
                                  sequences_per_second=3.0, seed=5)
    config = cluster_config(scale, servers=servers,
                            clients=saturating_clients(scale, servers) // 2,
                            prewarm=True)
    cluster = SimCluster(site, config)
    replayer = attach_replay(cluster, records, time_scale=1.0,
                             start_offset=1.0)
    result = cluster.run(extra_setup=lambda c: replayer.start())
    return BookmarkAblation(
        replay_requests=replayer.stats.issued,
        replay_redirected=replayer.stats.redirected,
        replay_succeeded=replayer.stats.succeeded,
        walker_cps=result.steady_cps())


@dataclass
class HeterogeneityAblation:
    rows: List[Tuple[str, str, float, float]]
    # (cluster kind, system, cps, drops/s-ish)

    def cps_of(self, kind: str, system: str) -> float:
        for k, s, cps, __ in self.rows:
            if (k, s) == (kind, system):
                return cps
        raise KeyError((kind, system))

    def format(self) -> str:
        return format_table(
            ("cluster", "system", "CPS", "drops"),
            self.rows,
            title="Ablation — heterogeneous servers (section 2 motivation)")


def ablation_heterogeneity(scale: Optional[ExperimentScale] = None, *,
                           dataset: str = "lod",
                           servers: int = 4) -> HeterogeneityAblation:
    """DCWS vs round-robin DNS on homogeneous vs heterogeneous clusters.

    Related work (section 2) notes that heterogeneous servers break plain
    round-robin scheduling.  Here half the servers are 2x slower: blind
    RR-DNS keeps sending them an equal share (drops rise), while DCWS's
    load-table feedback steers documents toward the fast machines.
    """
    scale = scale or current_scale()
    from repro.bench.harness import cluster_config
    from repro.baselines.rr_dns import RoundRobinDNSCluster

    site = build_site(dataset)
    clients = saturating_clients(scale, servers)
    hetero_scales = tuple(2.0 if i % 2 else 1.0 for i in range(servers))
    base = scaled_server_config(scale)
    # Long enough for re-migration (T_home) to pull documents back off
    # the overloaded slow machines.
    duration = max(scale.duration * 2, base.home_remigration_interval * 2.5)
    rows: List[Tuple[str, str, float, float]] = []
    for kind, scales in (("homogeneous", None), ("heterogeneous",
                                                 hetero_scales)):
        config = replace(cluster_config(scale, servers=servers,
                                        clients=clients, prewarm=True,
                                        duration=duration),
                         cpu_scales=scales)
        dcws = SimCluster(site, config).run()
        rows.append((kind, "dcws", dcws.steady_cps(), float(dcws.drops)))
        # Extension: drop-pressure-aware load metric (overloaded slow
        # machines advertise their drops as load).
        dp_config = replace(config, server_config=replace(
            base, drop_pressure_weight=25.0))
        dcws_dp = SimCluster(site, dp_config).run()
        rows.append((kind, "dcws+droppressure", dcws_dp.steady_cps(),
                     float(dcws_dp.drops)))
        rr = RoundRobinDNSCluster(site, config, dns_ttl=10.0)
        if scales is not None:
            for index, server in enumerate(rr.servers):
                server.cpu_scale = scales[index]
        rr_result = rr.run()
        rows.append((kind, "rr-dns", rr_result.steady_cps(),
                     float(rr_result.drops)))
    return HeterogeneityAblation(rows=rows)


@dataclass
class InitialDistributionAblation:
    rows: List[Tuple[str, float, float, float]]
    # (distribution, early cps, steady cps, final cps)

    def row(self, distribution: str) -> Tuple[str, float, float, float]:
        for entry in self.rows:
            if entry[0] == distribution:
                return entry
        raise KeyError(distribution)

    def format(self) -> str:
        return format_table(
            ("initial distribution", "early CPS", "steady CPS", "final CPS"),
            self.rows,
            title="Ablation — initial data distribution (future work §6)")


def ablation_initial_distribution(scale: Optional[ExperimentScale] = None, *,
                                  dataset: str = "lod", servers: int = 4
                                  ) -> InitialDistributionAblation:
    """Effect of the starting placement on parallelism (future work §6).

    Three starts on the same cluster: *balanced* (round-robin — the
    converged state), *cold* (everything at home) and *skewed*
    (everything piled on a single co-op).  Shape claims: balanced is the
    ceiling; both degenerate starts begin far below it and climb as the
    (rate-limited) migration machinery redistributes documents.
    """
    scale = scale or current_scale()
    from repro.bench.harness import cluster_config

    site = build_site(dataset)
    clients = saturating_clients(scale, servers)
    base = scaled_server_config(scale)
    duration = max(scale.duration * 3, base.home_remigration_interval * 2.0)
    rows: List[Tuple[str, float, float, float]] = []
    for distribution in ("balanced", "cold", "skewed"):
        config = replace(cluster_config(scale, servers=servers,
                                        clients=clients, duration=duration),
                         initial_distribution=distribution)
        result = SimCluster(site, config).run()
        cps = result.series.cps_series()
        early = sum(cps[:3]) / max(1, len(cps[:3]))
        rows.append((distribution, early, result.steady_cps(), cps[-1]))
    return InitialDistributionAblation(rows=rows)


def ablation_selection(scale: Optional[ExperimentScale] = None, *,
                       dataset: str = "mapug",
                       servers: int = 4) -> SelectionAblation:
    """Algorithm 1 (steps 4-5) vs hottest-first vs random selection.

    The locality heuristics should achieve comparable balance with fewer
    referrer regenerations (less hyperlink-update churn).
    """
    scale = scale or current_scale()
    site = build_site(dataset)
    clients = saturating_clients(scale, servers)
    base = scaled_server_config(scale)
    rows: List[Tuple[str, float, int, int]] = []
    for policy in ("paper", "hottest", "random"):
        result = run_dcws(site, servers=servers, clients=clients, scale=scale,
                          prewarm=False, duration=scale.duration * 2,
                          server_config=replace(base, selection_policy=policy))
        rows.append((policy, result.steady_cps(), result.migrations,
                     result.reconstructions))
    return SelectionAblation(rows=rows)
