"""Replay recorded access logs against a simulated cluster.

A :class:`ReplayClient` issues each :class:`~repro.datasets.logs.LogRecord`
at its recorded (scaled) time, always against the document's *home* URL —
the way a bookmark, a search-engine index, or a log recorded before any
migration addresses the site (paper section 4.4).  Migrated documents
therefore answer with a 301 which the replayer follows, so the fraction of
replay traffic measures the redirect overhead DCWS imposes on stale-URL
clients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.client.walker import MAX_REDIRECTS
from repro.datasets.logs import LogRecord
from repro.http.messages import Response
from repro.http.urls import URL, join_url
from repro.sim.cluster import SimCluster
from repro.sim.simclient import get_head


@dataclass
class ReplayStats:
    """Counters accumulated by one replay."""

    issued: int = 0
    succeeded: int = 0
    redirected: int = 0
    dropped: int = 0
    failed: int = 0
    statuses: List[int] = field(default_factory=list)


class ReplayClient:
    """Fires a trace's requests into a cluster at their recorded times."""

    def __init__(self, cluster: SimCluster, records: Sequence[LogRecord], *,
                 home_index: int = 0, time_scale: float = 1.0,
                 start_offset: float = 0.0) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.cluster = cluster
        self.records = list(records)
        self.home = cluster.locations[home_index]
        self.time_scale = time_scale
        self.start_offset = start_offset
        self.stats = ReplayStats()

    def start(self) -> None:
        """Schedule every record: pass it to ``cluster.run`` as
        ``extra_setup=lambda c: replayer.start()``."""
        base = self.records[0].time if self.records else 0.0
        for record in self.records:
            when = self.start_offset + (record.time - base) * self.time_scale
            self.cluster.loop.schedule(
                self.cluster.loop.now + when,
                lambda r=record: self._issue(r))

    # ------------------------------------------------------------------

    def _issue(self, record: LogRecord, redirect_depth: int = 0,
               url: Optional[URL] = None) -> None:
        target = url if url is not None else \
            URL(self.home.host, self.home.port, record.path)
        self.stats.issued += 1

        def received(response: Optional[Response]) -> None:
            if response is None:
                self.stats.failed += 1
                return
            self.stats.statuses.append(response.status)
            if response.status in (301, 302) and redirect_depth < MAX_REDIRECTS:
                location = response.headers.get("Location")
                if location:
                    self.stats.redirected += 1
                    self._issue(record, redirect_depth + 1,
                                join_url(target, location))
                    return
            if response.status == 200:
                self.stats.succeeded += 1
            elif response.status == 503:
                self.stats.dropped += 1
            else:
                self.stats.failed += 1

        self.cluster.client_send(target, get_head(target), received)

    # ------------------------------------------------------------------

    @property
    def redirect_fraction(self) -> float:
        """Share of issued requests that needed at least one redirect."""
        if self.stats.issued == 0:
            return 0.0
        return self.stats.redirected / self.stats.issued
