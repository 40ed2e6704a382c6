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

:class:`Walk` holds these rules and does no I/O.  Two clients run it,
fetching and waiting for it: :class:`repro.sim.simclient.SimClient`, on
the simulator's event loop, and :class:`RandomWalker`, one blocking fetch
at a time, against the real socket server or any ``fetch`` callable.
Each client's transport follows redirects itself, because the real one's
choice among advertised replicas and its validators live there.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.client.cache import ClientCache
from repro.html.links import extract_links
from repro.html.parser import parse_html
from repro.http.urls import URL, join_url, parse_url

MIN_STEPS = 1
MAX_STEPS = 25
# Redirect hops one fetch follows, the home failover included.
MAX_REDIRECTS = 5


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
    ``url`` is the URL last asked, after redirects and failover (the one
    that answered, when one did); ``None`` means the one first asked.
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
    url: Optional[URL] = None

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


def page_links(content_type: str, body: bytes) -> Tuple[List[str], List[str]]:
    """A page's ``(links, images)``: the hyperlinks a user can follow and
    the references fetched with the page; both empty for non-HTML."""
    if not content_type.startswith("text/html") or not body:
        return [], []
    links: List[str] = []
    images: List[str] = []
    for link in extract_links(parse_html(body.decode("latin-1", "replace"))):
        if link.embedded:
            images.append(link.value)
        elif link.tag in ("a", "area"):
            links.append(link.value)
    return links, images


@dataclass
class WalkerStats:
    """Counters one walker accumulates across its sequences.

    ``requests`` counts the exchanges the client's transport reports:
    every hop in the simulator, every ``fetch`` call for
    :class:`RandomWalker`, whose transport follows redirects itself.
    """

    sequences: int = 0
    steps: int = 0
    requests: int = 0
    bytes_received: int = 0   # body bytes on the wire (wire_size-aware)
    entity_bytes: int = 0     # logical entity bytes the client obtained
    not_modified: int = 0     # revalidations answered 304
    cache_hits: int = 0
    drops: int = 0
    redirects: int = 0
    errors: int = 0           # fetches that ended without a usable entity
    transport_failures: int = 0
    transport_retries: int = 0
    backoff_time: float = 0.0
    replica_fallbacks: int = 0  # fetches that self-healed via home/replica
    short_bodies: int = 0       # body length disagreed with Content-Length
    corrupt_bodies: int = 0     # body failed gzip decode or digest check


class Walk:
    """Algorithm 2's rules, with no I/O: the client running it fetches
    and waits.

    The client calls :meth:`begin` for each sequence, then for each step
    :meth:`step`; when that misses the cache it fetches the page, hands
    the outcome to :meth:`page` and fetches the images it returns (each
    one :meth:`wanted` when a helper picks it up, then :meth:`image`).
    :meth:`choose` gives the next URL and the think time to wait first.
    Every exchange goes through :meth:`book`, which turns a 503 into the
    delay to wait before asking again.
    """

    def __init__(self, entry_points: Sequence[URL], seed: int, *,
                 min_steps: int = MIN_STEPS, max_steps: int = MAX_STEPS,
                 think_time: float = 0.0,
                 backoff: Optional[ExponentialBackoff] = None) -> None:
        if not entry_points:
            raise ValueError("walker needs at least one entry-point URL")
        self.entry_points = list(entry_points)
        self.rng = random.Random(seed)
        self.min_steps = min_steps
        self.max_steps = max_steps
        # Mean user think time between page views (exponentially
        # distributed).  The paper's benchmark used zero think time and
        # flags that as future work (section 6).
        self.think_time = think_time
        self.backoff = backoff if backoff is not None else ExponentialBackoff()
        self.cache = ClientCache()
        self.stats = WalkerStats()
        self.current: Optional[URL] = None
        self._steps_left = 0

    def begin(self) -> URL:
        """Start a sequence: reset the cache, draw the number of steps,
        then the entry point, and return it."""
        self.cache.reset()
        self.stats.sequences += 1
        self._steps_left = self.rng.randint(self.min_steps, self.max_steps)
        return self.entry_points[self.rng.randrange(len(self.entry_points))]

    def step(self, url: URL) -> Optional[List[str]]:
        """Step to *url*: its links when this sequence holds the page
        (its images came with it), else ``None`` and the client fetches."""
        self.current = url
        cached = self.cache.lookup(str(url))
        if cached is None:
            return None
        self.stats.cache_hits += 1
        self.stats.steps += 1
        return cached[1]

    def page(self, url: URL, outcome: FetchOutcome) -> Optional[List[URL]]:
        """Take the page *url* answered with; return its images, in page
        order, or ``None`` when the step failed and the user gives up the
        sequence."""
        if not outcome.ok:
            self.stats.errors += 1
            return None
        self.stats.steps += 1
        self.cache.store(str(url), outcome.size, outcome.links)
        return [join_url(url, raw) for raw in outcome.images]

    def wanted(self, image: URL) -> bool:
        """Whether *image* still needs fetching: a helper skips one that
        an earlier fetch cached by the time it picks it up."""
        return str(image) not in self.cache

    def image(self, url: URL, outcome: FetchOutcome) -> None:
        """Take the image *url* answered with."""
        if outcome.ok:
            self.cache.store(str(url), outcome.size, [])
        else:
            self.stats.errors += 1

    def choose(self, links: Sequence[str]) -> Tuple[Optional[URL], float]:
        """Pick the next link, resolved against the URL this step asked
        for (``None`` ends the sequence), then the think time to wait
        before going on."""
        self._steps_left -= 1
        raw = select_next_link(links, self.rng)
        target = None
        if self._steps_left > 0 and raw is not None:
            target = join_url(self.current, raw)
        think = 0.0
        if self.think_time > 0.0:
            think = self.rng.expovariate(1.0 / self.think_time)
        return target, think

    def book(self, outcome: FetchOutcome) -> Optional[float]:
        """Book one exchange; for a 503, return the backoff delay to wait
        before asking again."""
        stats = self.stats
        stats.requests += 1
        stats.entity_bytes += outcome.size
        stats.bytes_received += (outcome.size if outcome.wire_size is None
                                 else outcome.wire_size)
        stats.not_modified += outcome.not_modified
        stats.redirects += outcome.redirected
        stats.replica_fallbacks += outcome.replica_fallback
        stats.short_bodies += outcome.short_body
        stats.corrupt_bodies += outcome.corrupt_body
        stats.transport_failures += outcome.transport_failed
        if outcome.dropped:
            stats.drops += 1
            return self.delay()
        if not outcome.transport_failed:
            self.backoff.on_success()
        return None

    def delay(self) -> float:
        """The next backoff delay, booked into ``backoff_time``."""
        delay = self.backoff.on_drop()
        self.stats.backoff_time += delay
        return delay


class RandomWalker:
    """Algorithm 2 run one blocking fetch at a time.

    ``fetch`` performs one URL fetch, following redirects itself and
    reporting them via ``redirected``; ``sleep`` is injectable so tests
    need not wait wall-clock seconds.  A real socket can be refused for a
    moment (a full backlog, a server restarting), so a fetch that reaches
    no server is retried up to ``max_transport_retries`` times on the 503
    backoff schedule.
    """

    def __init__(self, entry_points: Sequence[str], fetch: FetchFn, *,
                 seed: int = 0,
                 sleep: Optional[Callable[[float], None]] = None,
                 min_steps: int = MIN_STEPS,
                 max_steps: int = MAX_STEPS,
                 max_transport_retries: int = 3) -> None:
        self.walk = Walk([parse_url(e) if isinstance(e, str) else e
                          for e in entry_points], seed,
                         min_steps=min_steps, max_steps=max_steps)
        self.stats = self.walk.stats
        self.fetch = fetch
        self.sleep = sleep if sleep is not None else time.sleep
        self.max_transport_retries = max_transport_retries

    def run(self, sequences: int) -> WalkerStats:
        """Execute *sequences* complete browse sequences."""
        for _ in range(sequences):
            self.run_sequence()
        return self.stats

    def run_sequence(self) -> None:
        """One iteration of Algorithm 2's outer loop."""
        walk = self.walk
        url: Optional[URL] = walk.begin()
        while url is not None:
            links = walk.step(url)
            if links is None:
                outcome = self._fetch(url)
                images = walk.page(outcome.url or url, outcome)
                if images is None:
                    return
                for image in images:
                    if walk.wanted(image):
                        fetched = self._fetch(image)
                        walk.image(fetched.url or image, fetched)
                links = outcome.links
            url, __ = walk.choose(links)  # this walk has no think time

    def _fetch(self, url: URL) -> FetchOutcome:
        """Fetch *url*, waiting out 503s and bounded transport retries."""
        retries = 0
        while True:
            try:
                outcome = self.fetch(url)
            except OSError:
                # Transports that raise instead of returning the 599
                # sentinel (refused/reset) get the same retry treatment.
                outcome = FetchOutcome(status=599)
            except Exception:
                # A malformed answer (say, a bad Location): one error,
                # not retried.
                return FetchOutcome(status=599)
            delay = self.walk.book(outcome)
            if outcome.transport_failed and \
                    retries < self.max_transport_retries:
                retries += 1
                self.stats.transport_retries += 1
                delay = self.walk.delay()
            if delay is None:
                return outcome
            self.sleep(delay)
