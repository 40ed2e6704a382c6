"""Load metrics: connections per second (CPS) and bytes per second (BPS).

The paper's evaluation (section 5.3) uses CPS and BPS as its two
performance measures and chooses CPS as the load-balancing metric because
typical web transfers are small; BPS is noted as the better metric for
large-file workloads such as the Sequoia data set.  Both are computed here
over a sliding window so a server's ``LoadMetric`` reflects *recent* load,
matching the statistics re-calculation interval T_st.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Deque, List

from repro.errors import ConfigError


#: Time buckets per :class:`WindowCounter` window.
_BUCKETS = 64


class LoadMetricKind(str, Enum):
    """Which measurement a server reports as its GLT ``LoadMetric``."""

    CPS = "cps"
    BPS = "bps"


class WindowCounter:
    """Events-per-second over a fixed sliding time window.

    Kept as at most ``_BUCKETS`` + 1 time buckets of ``window /
    _BUCKETS`` seconds, each a running ``[index, weight]``, so memory is
    fixed whatever the event rate.  A query drops every bucket the
    window's old edge has reached: ``rate`` never counts an event older
    than the window and may miss those of at most one bucket width just
    inside it.  Timestamps must be non-decreasing per counter, which both
    the simulator (single virtual clock) and the real server (monotonic
    clock under a lock) guarantee.
    """

    __slots__ = ("window", "_width", "_buckets")

    def __init__(self, window: float) -> None:
        if window <= 0:
            raise ConfigError(f"window must be positive, got {window!r}")
        self.window = window
        self._width = window / _BUCKETS
        self._buckets: Deque[List[float]] = deque()

    def record(self, now: float, weight: float = 1.0) -> None:
        """Record an event of *weight* at time *now*."""
        index = int(now / self._width)
        buckets = self._buckets
        if not buckets or buckets[-1][0] != index:
            self._prune(now)
            buckets.append([index, 0.0])
        buckets[-1][1] += weight

    def rate(self, now: float) -> float:
        """Weighted events per second over the window ending at *now*."""
        self._prune(now)
        return sum(bucket[1] for bucket in self._buckets) / self.window

    def _prune(self, now: float) -> None:
        edge = int((now - self.window) / self._width)
        buckets = self._buckets
        while buckets and buckets[0][0] <= edge:
            buckets.popleft()


@dataclass
class ServerMetrics:
    """A server's own measurements, from which it derives its GLT row.

    Connections, bytes and drops are recorded by the request path; the
    statistics module reads ``cps``/``bps`` at each T_st boundary.
    """

    window: float

    def __post_init__(self) -> None:
        self.connections = WindowCounter(self.window)
        self.bytes = WindowCounter(self.window)
        # Drops arrive in bursts separated by client backoff, so their
        # rate is averaged over several stats windows to give the
        # drop-pressure signal a stable value between bursts.
        self.drops = WindowCounter(self.window * 4)
        self.redirects = WindowCounter(self.window)
        self.reconstructions = WindowCounter(self.window)

    def record_connection(self, now: float, bytes_sent: int) -> None:
        self.connections.record(now)
        self.bytes.record(now, float(bytes_sent))

    def record_drop(self, now: float) -> None:
        self.drops.record(now)

    def record_redirect(self, now: float) -> None:
        self.redirects.record(now)

    def record_reconstruction(self, now: float) -> None:
        self.reconstructions.record(now)

    def cps(self, now: float) -> float:
        return self.connections.rate(now)

    def bps(self, now: float) -> float:
        return self.bytes.rate(now)

    def load_metric(self, now: float, kind: LoadMetricKind,
                    drop_pressure_weight: float = 0.0) -> float:
        """The value this server advertises in its GLT row.

        ``drop_pressure_weight`` is an extension beyond the paper: each
        dropped connection per second adds that many units of advertised
        load, so a machine shedding requests looks *loaded* even when its
        raw CPS is low (essential on heterogeneous clusters, where a slow
        machine's low CPS otherwise reads as idleness).
        """
        base = self.cps(now) if kind is LoadMetricKind.CPS else self.bps(now)
        if drop_pressure_weight > 0.0:
            base += drop_pressure_weight * self.drops.rate(now)
        return base
