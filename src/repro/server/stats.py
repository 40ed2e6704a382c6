"""Cluster-wide statistics sampling.

The paper samples CPS and BPS at 10-second intervals (Figure 8) and
averages them over fixed client populations (Figure 6).  This module holds
the shared time-series machinery both the simulator and the real harness
use: take a :class:`ClusterSample` of every server's metrics at time *now*,
accumulate them into a :class:`TimeSeries`, and derive aggregate and peak
statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

from repro.server.engine import DCWSEngine


@dataclass(frozen=True)
class ClusterSample:
    """Aggregate cluster performance at one instant.

    Only what a figure or a test reads rides here; every other counter
    stays with its owner's ``describe()`` and ``/~dcws/...`` page.
    """

    time: float
    cps: float                  # aggregate connections per second
    bps: float                  # aggregate bytes per second
    drops_per_second: float
    per_server_cps: Dict[str, float] = field(default_factory=dict)
    reconstructions_per_second: float = 0.0
    # Durability posture at sample time, summed across engines whose
    # host attached a write-ahead journal: un-checkpointed journal bytes
    # and records (recovery replay cost) and the highest LSN in the
    # cluster.
    wal_bytes: int = 0
    wal_records_since_checkpoint: int = 0
    wal_last_lsn: int = 0
    # Replication groups with autonomous repair, summed across engines
    # (none unless replication_k >= 2): group census at sample time,
    # lifetime repairs (``EngineStats.repairs``), and two-choices picks.
    # ``replication_copies`` is a histogram of live-holder count ->
    # number of groups (keys are strings for JSON friendliness).
    replication_groups: int = 0
    replication_groups_below_target: int = 0
    replication_repairs: int = 0
    replication_two_choices_picks: int = 0
    replication_copies: Dict[str, int] = field(default_factory=dict)

    @property
    def imbalance(self) -> float:
        """max/mean per-server CPS; 1.0 is perfectly balanced."""
        values = list(self.per_server_cps.values())
        if not values:
            return 1.0
        mean = sum(values) / len(values)
        if mean <= 0.0:
            return 1.0
        return max(values) / mean


def sample_cluster(now: float,
                   engines: Iterable[DCWSEngine]) -> ClusterSample:
    """Read every engine's sliding-window rates at *now*."""
    total_cps = 0.0
    total_bps = 0.0
    total_drops = 0.0
    total_reconstructions = 0.0
    wal_bytes = 0
    wal_records = 0
    wal_last_lsn = 0
    replication_groups = 0
    replication_below = 0
    replication_repairs = 0
    two_choices_picks = 0
    replication_copies: Dict[str, int] = {}
    per_server: Dict[str, float] = {}
    for engine in engines:
        cps = engine.metrics.cps(now)
        total_cps += cps
        total_bps += engine.metrics.bps(now)
        total_drops += engine.metrics.drops.rate(now)
        total_reconstructions += engine.metrics.reconstructions.rate(now)
        journal = engine.journal
        if journal is not None:
            wal_bytes += journal.size_bytes
            wal_records += journal.records_since_checkpoint
            wal_last_lsn = max(wal_last_lsn, journal.last_lsn)
        manager = engine.replication
        replication_groups += len(manager.groups)
        replication_below += manager.groups_below_target()
        replication_repairs += engine.stats.repairs
        two_choices_picks += manager.counters.two_choices_picks
        for live, count in manager.copies_histogram().items():
            key = str(live)
            replication_copies[key] = replication_copies.get(key, 0) + count
        per_server[str(engine.location)] = cps
    return ClusterSample(time=now, cps=total_cps, bps=total_bps,
                         drops_per_second=total_drops,
                         per_server_cps=per_server,
                         reconstructions_per_second=total_reconstructions,
                         wal_bytes=wal_bytes,
                         wal_records_since_checkpoint=wal_records,
                         wal_last_lsn=wal_last_lsn,
                         replication_groups=replication_groups,
                         replication_groups_below_target=replication_below,
                         replication_repairs=replication_repairs,
                         replication_two_choices_picks=two_choices_picks,
                         replication_copies=replication_copies)


@dataclass
class TimeSeries:
    """An ordered sequence of cluster samples plus summary statistics."""

    samples: List[ClusterSample] = field(default_factory=list)

    def add(self, sample: ClusterSample) -> None:
        if self.samples and sample.time < self.samples[-1].time:
            raise ValueError("samples must be appended in time order")
        self.samples.append(sample)

    def times(self) -> List[float]:
        return [s.time for s in self.samples]

    def cps_series(self) -> List[float]:
        return [s.cps for s in self.samples]

    def bps_series(self) -> List[float]:
        return [s.bps for s in self.samples]

    def peak_cps(self) -> float:
        return max((s.cps for s in self.samples), default=0.0)

    def peak_bps(self) -> float:
        return max((s.bps for s in self.samples), default=0.0)

    def steady_state(self, fraction: float = 0.5) -> "TimeSeries":
        """The trailing *fraction* of samples (warm-up discarded)."""
        if not self.samples:
            return TimeSeries()
        start = int(len(self.samples) * (1.0 - fraction))
        return TimeSeries(samples=list(self.samples[start:]))

    def mean_cps(self) -> float:
        if not self.samples:
            return 0.0
        return sum(s.cps for s in self.samples) / len(self.samples)

    def mean_bps(self) -> float:
        if not self.samples:
            return 0.0
        return sum(s.bps for s in self.samples) / len(self.samples)

    def __len__(self) -> int:
        return len(self.samples)


def growth_profile(series: Sequence[float]) -> List[float]:
    """First differences of a series — used to verify Figure 8's
    accelerating (exponential-like) warm-up, where later increments exceed
    earlier ones."""
    return [b - a for a, b in zip(series, series[1:])]
