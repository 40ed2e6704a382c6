"""The Global Load Table (paper section 3.3).

Each server keeps its own best-effort copy of ``(Server, LoadMetric)``
rows.  Rows carry the origin server's measurement timestamp; merging two
tables keeps, per server, the row with the newest timestamp, which makes
merge commutative, associative and idempotent — gossip can arrive in any
order, duplicated, over any transfer, and every server converges to the
same table once communication quiesces.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.document import Location
from repro.http.piggyback import LoadReport


class GlobalLoadTable:
    """One server's local view of cluster load."""

    def __init__(self, own: Location) -> None:
        self.own = own
        self._rows: Dict[str, LoadReport] = {}

    def update_own(self, metric: float, now: float) -> None:
        """Record this server's own measurement (always trusted)."""
        key = str(self.own)
        self._rows[key] = LoadReport(server=key, metric=metric, timestamp=now)

    def observe(self, report: LoadReport) -> bool:
        """Merge one piggybacked row; newest timestamp wins.

        Ties keep the existing row, so replaying a report is a no-op.
        Returns True when the table changed.
        """
        current = self._rows.get(report.server)
        if current is not None and current.timestamp >= report.timestamp:
            return False
        self._rows[report.server] = report
        return True

    def merge(self, reports: Iterable[LoadReport]) -> int:
        """Merge many rows; returns how many changed the table."""
        return sum(1 for report in reports if self.observe(report))

    def snapshot(self) -> List[LoadReport]:
        """Every row, sorted by server name (deterministic piggyback order)."""
        return sorted(self._rows.values(), key=lambda r: r.server)

    def get(self, server: Location) -> Optional[LoadReport]:
        return self._rows.get(str(server))

    def servers(self) -> List[Location]:
        """Every known server, including this one."""
        return [Location.parse(key) for key in sorted(self._rows)]

    def peers(self) -> List[Location]:
        """Every known server except this one."""
        own_key = str(self.own)
        return [Location.parse(key) for key in sorted(self._rows) if key != own_key]

    def register(self, server: Location) -> None:
        """Introduce a peer with no measurement yet (metric 0 at t=-inf),
        so a fresh cluster can bootstrap before any gossip arrives."""
        key = str(server)
        if key not in self._rows:
            self._rows[key] = LoadReport(server=key, metric=0.0,
                                         timestamp=float("-inf"))

    def least_loaded(self, exclude: Sequence[Location] = ()) -> Optional[Location]:
        """The peer with the lowest metric (paper section 4.2: "the server
        with the lowest LoadMetric value is selected"), excluding this
        server and *exclude*; ties break by server name."""
        excluded = {str(self.own)} | {str(loc) for loc in exclude}
        best: Optional[LoadReport] = None
        for key in sorted(self._rows):
            if key in excluded:
                continue
            row = self._rows[key]
            if best is None or row.metric < best.metric:
                best = row
        return Location.parse(best.server) if best else None

    def mean_metric(self) -> float:
        """Mean metric across all known servers (including self)."""
        if not self._rows:
            return 0.0
        return sum(row.metric for row in self._rows.values()) / len(self._rows)

    def stale_peers(self, now: float, max_age: float) -> List[Location]:
        """Peers whose rows are older than *max_age* — pinger targets."""
        own_key = str(self.own)
        stale = [key for key, row in self._rows.items()
                 if key != own_key and now - row.timestamp > max_age]
        return [Location.parse(key) for key in sorted(stale)]

    def remove(self, server: Location) -> None:
        """Drop a server declared dead."""
        self._rows.pop(str(server), None)

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, server: object) -> bool:
        if isinstance(server, Location):
            return str(server) in self._rows
        return isinstance(server, str) and server in self._rows
