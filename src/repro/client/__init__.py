"""Client side: the custom benchmark of paper Algorithm 2.

Conventional benchmarks (SPECweb96) request documents without regard to
hyperlinks; DCWS rewrites hyperlinks, so the paper builds a custom client
that *navigates*: start at a random well-known entry point, walk 1–25
random hyperlinks, fetch embedded images in parallel, keep a client-side
cache for the duration of each sequence, and back off exponentially on 503.

:class:`~repro.client.walker.Walk` holds those rules without I/O;
:class:`~repro.client.walker.RandomWalker` drives it one blocking fetch at
a time and :class:`repro.sim.simclient.SimClient` on the simulator's event
loop.  :func:`~repro.client.realclient.fetch_url` is the real-socket fetch.
"""

from repro.client.cache import ClientCache
from repro.client.pool import ConnectionPool
from repro.client.realclient import http_fetch
from repro.client.walker import (
    ExponentialBackoff,
    FetchOutcome,
    RandomWalker,
    Walk,
    WalkerStats,
    select_next_link,
)

__all__ = [
    "ClientCache",
    "ConnectionPool",
    "ExponentialBackoff",
    "FetchOutcome",
    "RandomWalker",
    "Walk",
    "WalkerStats",
    "http_fetch",
    "select_next_link",
]
