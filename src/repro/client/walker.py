"""Algorithm 2: the custom client benchmark (paper Figure 5).

::

    do forever:
        reset cache
        current_url <- a randomly selected well-known entry point
        no_steps <- random(1..25)
        for i = 1 to no_steps:
            request current_url from its server if not cached
            request all embedded images in parallel
            wait until everything arrives
            parse the document, select a new link
            current_url <- new link

Plus the request-drop behaviour of section 5.2: on a 503 the client backs
off exponentially (1 s, 2 s, 4 s, ...).

:class:`RandomWalker` is a synchronous implementation parameterized by a
``fetch`` callable, so it runs against the real socket server, an in-memory
engine (tests), or anything else that answers URL fetches.  The simulator
uses the same :func:`select_next_link`, :class:`ClientCache` and
:class:`ExponentialBackoff` pieces in event-driven form.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.client.cache import ClientCache
from repro.http.urls import URL, join_url, parse_url

MIN_STEPS = 1
MAX_STEPS = 25


@dataclass
class FetchOutcome:
    """What the transport returns for one URL fetch.

    ``links``/``images`` are the raw hyperlink values found in the body
    (absolute or relative); empty for non-HTML.  ``dropped`` marks a 503.
    ``redirected`` marks that a 301 was followed (one extra connection).
    ``not_modified`` marks a revalidation answered 304 (the entity came
    from the client's validator cache; ``size``/``links`` describe that
    cached entity).  ``wire_size``, when set, is the body bytes actually
    received — smaller than ``size`` for gzip responses, zero for 304s —
    so byte accounting can distinguish entity size from transfer size.
    """

    status: int
    size: int = 0
    links: List[str] = field(default_factory=list)
    images: List[str] = field(default_factory=list)
    redirected: bool = False
    not_modified: bool = False
    wire_size: Optional[int] = None
    # A replica holder failed at the transport level and the client
    # recovered by itself — re-deriving the home URL from the migrated
    # path, or rerouting to an advertised sibling replica.
    replica_fallback: bool = False
    # Integrity verdicts from the transport: the body did not match its
    # Content-Length (``short_body``), or decoded/verified wrong against
    # its gzip framing or X-DCWS-Digest (``corrupt_body``).  Either way
    # the entity is unusable, whatever the status code says.
    short_body: bool = False
    corrupt_body: bool = False

    @property
    def ok(self) -> bool:
        """Usable entity: a 2xx, or a 304 satisfied from the client's
        validator cache — and the body passed its integrity checks."""
        if self.short_body or self.corrupt_body:
            return False
        return 200 <= self.status < 300 or self.not_modified

    @property
    def dropped(self) -> bool:
        return self.status == 503

    @property
    def transport_failed(self) -> bool:
        """Connection refused/reset/timeout — no HTTP response at all.
        (599 is the transport's sentinel, never sent by a server.)"""
        return self.status == 599


FetchFn = Callable[[URL], FetchOutcome]


class ExponentialBackoff:
    """503 handling: sleep 1 s, 2 s, 4 s, ... per consecutive drop."""

    def __init__(self, base: float = 1.0, ceiling: float = 64.0) -> None:
        self.base = base
        self.ceiling = ceiling
        self._consecutive = 0

    def on_drop(self) -> float:
        """Return how long to sleep after this drop."""
        delay = min(self.base * (2 ** self._consecutive), self.ceiling)
        self._consecutive += 1
        return delay

    def on_success(self) -> None:
        self._consecutive = 0


def select_next_link(links: Sequence[str], rng: random.Random) -> Optional[str]:
    """Pick the next hyperlink to follow, uniformly at random.

    Returns ``None`` when the page has no outgoing hyperlinks, which ends
    the sequence early (a user hitting a leaf page).
    """
    if not links:
        return None
    return links[rng.randrange(len(links))]


@dataclass
class WalkerStats:
    """Counters one walker accumulates across its sequences."""

    sequences: int = 0
    steps: int = 0
    requests: int = 0
    bytes_received: int = 0   # body bytes on the wire (wire_size-aware)
    entity_bytes: int = 0     # logical entity bytes the client obtained
    not_modified: int = 0     # revalidations answered 304
    cache_hits: int = 0
    drops: int = 0
    redirects: int = 0
    errors: int = 0
    transport_failures: int = 0
    transport_retries: int = 0
    backoff_time: float = 0.0
    replica_fallbacks: int = 0  # fetches that self-healed via home/replica
    short_bodies: int = 0       # body length disagreed with Content-Length
    corrupt_bodies: int = 0     # body failed gzip decode or digest check


class RandomWalker:
    """A synchronous Algorithm 2 client.

    ``fetch`` performs one URL fetch (following redirects itself and
    reporting them via ``redirected``); ``sleep`` is injectable so tests
    need not wait wall-clock seconds.
    """

    def __init__(self, entry_points: Sequence[str], fetch: FetchFn, *,
                 seed: int = 0,
                 sleep: Callable[[float], None] = None,
                 min_steps: int = MIN_STEPS,
                 max_steps: int = MAX_STEPS,
                 max_transport_retries: int = 3) -> None:
        if not entry_points:
            raise ValueError("walker needs at least one entry-point URL")
        self.entry_points = [parse_url(e) if isinstance(e, str) else e
                             for e in entry_points]
        self.fetch = fetch
        self.rng = random.Random(seed)
        self.sleep = sleep if sleep is not None else _default_sleep
        self.min_steps = min_steps
        self.max_steps = max_steps
        self.max_transport_retries = max_transport_retries
        self.cache = ClientCache()
        self.backoff = ExponentialBackoff()
        self.stats = WalkerStats()

    # ------------------------------------------------------------------

    def run(self, sequences: int) -> WalkerStats:
        """Execute *sequences* complete browse sequences."""
        for _ in range(sequences):
            self.run_sequence()
        return self.stats

    def run_sequence(self) -> None:
        """One iteration of Algorithm 2's outer loop."""
        self.cache.reset()
        self.stats.sequences += 1
        current = self.entry_points[self.rng.randrange(len(self.entry_points))]
        steps = self.rng.randint(self.min_steps, self.max_steps)
        for _ in range(steps):
            outcome = self._fetch_document(current)
            if outcome is None:
                return  # unrecoverable error ends the sequence
            self.stats.steps += 1
            size, links, images = outcome
            self._fetch_images(current, images)
            raw_next = select_next_link(links, self.rng)
            if raw_next is None:
                return
            current = join_url(current, raw_next)

    # ------------------------------------------------------------------

    def _fetch_document(self, url: URL):
        cached = self.cache.lookup(str(url))
        if cached is not None:
            self.stats.cache_hits += 1
            size, links = cached
            return size, links, []  # images were fetched with the page
        outcome = self._fetch_with_backoff(url)
        if outcome is None or not outcome.ok:
            if outcome is not None:
                self.stats.errors += 1
            return None
        self.cache.store(str(url), outcome.size, outcome.links)
        return outcome.size, outcome.links, outcome.images

    def _fetch_images(self, base: URL, images: List[str]) -> None:
        """Request embedded images (sequentially here; the real benchmark
        binary uses four helper threads — the threaded harness in
        :mod:`repro.bench.harness` provides that parallelism)."""
        for raw in images:
            image_url = join_url(base, raw)
            if self.cache.lookup(str(image_url)) is not None:
                self.stats.cache_hits += 1
                continue
            outcome = self._fetch_with_backoff(image_url)
            if outcome is not None and outcome.ok:
                self.cache.store(str(image_url), outcome.size, [])

    def _fetch_with_backoff(self, url: URL) -> Optional[FetchOutcome]:
        """Fetch with exponential backoff on 503 drops *and* transport
        failures (connection refused/reset); transport retries are bounded
        by ``max_transport_retries``, drops retry indefinitely."""
        transport_tries = 0
        while True:
            try:
                outcome = self.fetch(url)
            except OSError:
                # Transports that raise instead of returning the 599
                # sentinel (refused/reset) get the same retry treatment.
                outcome = FetchOutcome(status=599)
            except Exception:
                self.stats.errors += 1
                return None
            self.stats.requests += 1
            self.stats.entity_bytes += outcome.size
            self.stats.bytes_received += (
                outcome.wire_size if outcome.wire_size is not None
                else outcome.size)
            if outcome.not_modified:
                self.stats.not_modified += 1
            if outcome.redirected:
                self.stats.redirects += 1
            if outcome.replica_fallback:
                self.stats.replica_fallbacks += 1
            if outcome.short_body:
                self.stats.short_bodies += 1
            if outcome.corrupt_body:
                self.stats.corrupt_bodies += 1
            if outcome.transport_failed:
                self.stats.transport_failures += 1
                if transport_tries >= self.max_transport_retries:
                    return outcome  # counted as an error by the caller
                transport_tries += 1
                self.stats.transport_retries += 1
                delay = self.backoff.on_drop()
                self.stats.backoff_time += delay
                self.sleep(delay)
                continue
            if outcome.dropped:
                self.stats.drops += 1
                delay = self.backoff.on_drop()
                self.stats.backoff_time += delay
                self.sleep(delay)
                continue
            self.backoff.on_success()
            return outcome


def _default_sleep(seconds: float) -> None:
    import time

    time.sleep(seconds)
