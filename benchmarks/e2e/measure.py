"""From raw windows to the benchmark's metrics.

**Speed normalisation.**  On a shared box the machine changes speed in
phases that outlast a window (host contention, vCPU placement,
frequency): the same code gave raw requests/second 7,350-9,460 within
one run.  The generator does fixed work per request, so its own CPU per
request, divided by a per-workload reference (``constants.json``), is
how slow the machine was *during that window*::

    speed = client.cpu_us_per_req / client_ref_us

Every time-valued end-to-end metric is corrected by it per window —
rates are multiplied, durations divided — and the metric is the median
over all windows of all episodes.  Raw values stay available as
``client.*`` layer metrics.  ``setup_s`` is raw wall time: normalising
made it worse.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

Metric = Tuple[float, str]


def percentile(ordered: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, int(share * len(ordered) + 0.5) - 1))
    return ordered[rank]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def window_stats(window, ref_us: float, limit_ms: float) -> Dict[str, float]:
    """One timed window (a ``loadgen.Window``), speed-normalised."""
    done = max(1, window.completed)
    own_us = window.client_cpu_s / done * 1e6
    speed = own_us / ref_us
    raw = window.completed / window.wall_s
    ordered = sorted(window.latencies)
    # The limit is stated at reference speed, like the latencies.
    limit_s = limit_ms / 1e3 * speed
    return {
        "rps": raw * speed,
        "cpu_us_per_req": window.server_cpu_s / done * 1e6 / speed,
        "p50_ms": percentile(ordered, 0.50) * 1e3 / speed,
        "p95_ms": percentile(ordered, 0.95) * 1e3 / speed,
        "p99_ms": percentile(ordered, 0.99) * 1e3 / speed,
        "speed": speed,
        "client_us": own_us,
        "rps_raw": raw,
        "steal_share": window.stolen_s / window.wall_s,
        "within": sum(1 for latency in ordered if latency <= limit_s),
        "attempted": window.attempted,
        "completed": window.completed,
        "failed": window.failed,
        "wire_bytes": window.wire_bytes,
        "per_server": {f"{host}:{port}": count for (host, port), count
                       in window.per_server.items()},
    }


def aggregate(windows: List[Dict[str, float]]) -> Dict[str, Metric]:
    """End-to-end and ``client.*`` metrics over every window of a run."""
    def mid(key: str) -> float:
        return median([w[key] for w in windows])

    def total(key: str) -> float:
        return sum(w[key] for w in windows)

    raw = [w["rps_raw"] for w in windows]
    spread = (max(raw) - min(raw)) / mid("rps_raw") if windows else 0.0
    return {
        "rps": (mid("rps"), "1/s"),
        "cpu_us_per_req": (mid("cpu_us_per_req"), "us"),
        "p95_ms": (mid("p95_ms"), "ms"),
        "slo_share": (total("within") / max(1, total("attempted")), "ratio"),
        "wire_bytes_per_req": (
            total("wire_bytes") / max(1, total("completed")), "B"),
        "client.cpu_us_per_req": (mid("client_us"), "us"),
        "client.speed": (mid("speed"), "ratio"),
        "client.rps_raw": (mid("rps_raw"), "1/s"),
        "client.p50_ms": (mid("p50_ms"), "ms"),
        "client.p99_ms": (mid("p99_ms"), "ms"),
        "client.window_spread": (spread, "ratio"),
        "client.steal_share": (mid("steal_share"), "ratio"),
        "client.attempted": (total("attempted"), "count"),
        "client.failed": (total("failed"), "count"),
    }


def load_share_max(windows: List[Dict[str, float]]) -> float:
    """Largest server's share of completed requests (1/servers is ideal)."""
    totals: Dict[str, int] = {}
    for window in windows:
        for address, count in window["per_server"].items():
            totals[address] = totals.get(address, 0) + count
    served = sum(totals.values())
    return max(totals.values()) / served if served else 1.0
