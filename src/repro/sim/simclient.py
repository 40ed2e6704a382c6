"""The event-driven Algorithm 2 client for the simulator.

Behaviourally identical to :class:`repro.client.walker.RandomWalker` —
same cache semantics, link selection, redirect following and 503
exponential backoff — but written in continuation style so thousands of
concurrent clients run inside one event loop.

Each client models one benchmark *thread* of the paper: a main thread
navigating hyperlinks plus four helper threads fetching embedded images in
parallel.  ``CostModel.client_overhead`` charges the client workstation's
per-request work, which is what bounds a single client to roughly the
~45 requests/s the paper's client machines exhibited.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Tuple

from repro.client.cache import ClientCache
from repro.client.walker import (
    MAX_STEPS,
    MIN_STEPS,
    ExponentialBackoff,
    WalkerStats,
    select_next_link,
)
from repro.core.naming import decode_migrated_path
from repro.errors import NamingError
from repro.http.messages import Request, Response
from repro.http.urls import URL, join_url
from repro.sim.events import EventLoop
from repro.sim.network import CostModel, Serializer

# (links, images) of a fetched resource; resolved by the cluster's shared
# parse cache (real HTML parsing, memoized per distinct body).
ParsedLinks = Tuple[List[str], List[str]]
ParseFn = Callable[[str, bytes], ParsedLinks]
ClientSendFn = Callable[[URL, Request, Callable[[Optional[Response]], None]], None]

_MAX_REDIRECTS = 5


def _home_fallback(url: URL) -> Optional[URL]:
    """The home-server URL a migrated-form *url* encodes, if any.

    Pull-through naming means the home always holds the permanent copy,
    so a client that cannot reach a co-op can re-derive the home URL
    from the path alone — the same failover the real-socket client
    (:func:`repro.client.realclient.fetch_url`) performs.
    """
    try:
        home, original = decode_migrated_path(url.path)
    except NamingError:
        return None
    if home.host == url.host and home.port == url.port:
        return None
    return URL(home.host, home.port, original)


class SimClient:
    """One simulated benchmark client thread."""

    def __init__(self, index: int, loop: EventLoop, costs: CostModel, *,
                 send: ClientSendFn, parse: ParseFn,
                 entry_points: List[URL], seed: int,
                 min_steps: int = MIN_STEPS, max_steps: int = MAX_STEPS,
                 think_time: float = 0.0) -> None:
        if not entry_points:
            raise ValueError("client needs at least one entry-point URL")
        self.index = index
        self.loop = loop
        self.costs = costs
        self.send = send
        self.parse = parse
        self.entry_points = entry_points
        self.rng = random.Random(seed)
        self.min_steps = min_steps
        self.max_steps = max_steps
        # Mean user think time between page views (exponentially
        # distributed).  The paper's benchmark used zero think time and
        # flags that as future work (section 6); non-zero values model a
        # human reading each page before clicking on.
        self.think_time = think_time
        self.cache = ClientCache()
        self.backoff = ExponentialBackoff(base=costs.backoff_base,
                                          ceiling=costs.backoff_ceiling)
        self.stats = WalkerStats()
        # Completed-fetch latencies in virtual seconds (first issue to
        # terminal response, across redirects and 503 backoff retries) —
        # the availability/percentile raw material for the benches.
        self.latencies: List[float] = []
        # The client workstation's per-request work is serialized through
        # one CPU, shared by the main thread and the four image helpers —
        # this is what bounds one benchmark client to the paper's ~45
        # requests/s even on image-heavy pages.
        self._cpu = Serializer(f"client{index}-cpu")
        self._stopped = True
        self._steps_left = 0
        self._current: Optional[URL] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self, delay: float = 0.0) -> None:
        """Begin the infinite browse loop after *delay* seconds."""
        self._stopped = False
        self.loop.schedule_after(delay, self._begin_sequence)

    def stop(self) -> None:
        """Cease issuing new requests (in-flight ones complete harmlessly)."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Algorithm 2 outer loop
    # ------------------------------------------------------------------

    def _begin_sequence(self) -> None:
        if self._stopped:
            return
        self.cache.reset()
        self.stats.sequences += 1
        self._steps_left = self.rng.randint(self.min_steps, self.max_steps)
        entry = self.entry_points[self.rng.randrange(len(self.entry_points))]
        self._navigate(entry)

    def _navigate(self, url: URL) -> None:
        """One step: obtain the document, then its images, then follow on."""
        if self._stopped:
            return
        self._current = url
        cached = self.cache.lookup(str(url))
        if cached is not None:
            self.stats.cache_hits += 1
            self.stats.steps += 1
            __, links = cached
            # Images were fetched along with the page when it was cached.
            self._choose_next(links)
            return
        self._request(url, self._document_arrived)

    def _document_arrived(self, url: URL,
                          response: Optional[Response]) -> None:
        if self._stopped:
            return
        if response is None or response.status != 200:
            # Unreachable server or 404: the user gives up this sequence.
            if response is not None:
                self.stats.errors += 1
            self._begin_sequence()
            return
        self.stats.steps += 1
        content_type = response.headers.get("Content-Type", "") or ""
        links, images = self.parse(content_type, response.body)
        self.cache.store(str(url), len(response.body), links)
        pending = [raw for raw in images
                   if str(join_url(url, raw)) not in self.cache]
        if not pending:
            self._choose_next(links)
            return
        self._fetch_images(url, pending, links)

    # ------------------------------------------------------------------
    # Parallel image fetching (four helper threads)
    # ------------------------------------------------------------------

    def _fetch_images(self, base: URL, images: List[str],
                      links: List[str]) -> None:
        state = {"remaining": len(images), "queue": list(images)}

        def fetch_next() -> None:
            if self._stopped or not state["queue"]:
                return
            raw = state["queue"].pop(0)
            image_url = join_url(base, raw)
            if str(image_url) in self.cache:
                finish_one()
                fetch_next()
                return
            self._request(image_url,
                          lambda u, r: image_done(u, r))

        def image_done(image_url: URL, response: Optional[Response]) -> None:
            if self._stopped:
                return
            if response is not None and response.status == 200:
                self.cache.store(str(image_url), len(response.body), [])
            elif response is not None:
                self.stats.errors += 1
            finish_one()
            fetch_next()

        def finish_one() -> None:
            state["remaining"] -= 1
            if state["remaining"] == 0:
                # "wait until all the requested documents arrive" — done.
                self._choose_next(links)

        for __ in range(min(self.costs.image_helpers, len(images))):
            fetch_next()

    # ------------------------------------------------------------------

    def _choose_next(self, links: List[str]) -> None:
        if self._stopped:
            return
        self._steps_left -= 1
        raw_next = select_next_link(links, self.rng)
        if self._steps_left <= 0 or raw_next is None or self._current is None:
            self._after_thinking(self._begin_sequence)
            return
        target = join_url(self._current, raw_next)
        self._after_thinking(lambda: self._navigate(target))

    def _after_thinking(self, proceed: Callable[[], None]) -> None:
        """Run *proceed* after the user's (possibly zero) think time."""
        if self.think_time <= 0.0:
            proceed()
            return
        delay = self.rng.expovariate(1.0 / self.think_time)
        self.loop.schedule_after(delay, proceed)

    # ------------------------------------------------------------------
    # One fetch with redirects + backoff
    # ------------------------------------------------------------------

    def _request(self, url: URL,
                 on_done: Callable[[URL, Optional[Response]], None],
                 redirect_depth: int = 0, *,
                 _started: Optional[float] = None,
                 _fell_back: bool = False) -> None:
        """Issue one request after the client-side per-request overhead."""
        if _started is None:
            # Outermost call of this logical fetch: stamp its start and
            # record the total latency when the terminal response (or
            # failure) reaches the continuation — redirect hops and
            # backoff retries all count toward the same figure.
            _started = self.loop.now
            terminal = on_done

            def on_done(done_url: URL, response: Optional[Response],
                        _t0: float = _started,
                        _terminal=terminal) -> None:
                self.latencies.append(self.loop.now - _t0)
                _terminal(done_url, response)

        started = _started

        def issue() -> None:
            if self._stopped:
                return
            request = Request(method="GET", target=url.request_target)
            request.headers.set("Host", url.authority)
            self.send(url, request, received)

        def received(response: Optional[Response]) -> None:
            if self._stopped:
                return
            self.stats.requests += 1
            if response is None:
                # A dead co-op is not a dead document: retry once at the
                # home the migrated path encodes (replica failover).
                fallback = None if _fell_back else _home_fallback(url)
                if fallback is not None and redirect_depth < _MAX_REDIRECTS:
                    self.stats.replica_fallbacks += 1
                    self._request(fallback, on_done, redirect_depth + 1,
                                  _started=started, _fell_back=True)
                    return
                self.stats.errors += 1
                on_done(url, None)
                return
            self.stats.bytes_received += len(response.body)
            if response.status == 503:
                self.stats.drops += 1
                delay = self.backoff.on_drop()
                self.stats.backoff_time += delay
                self.loop.schedule_after(
                    delay, lambda: self._request(url, on_done, redirect_depth,
                                                 _started=started,
                                                 _fell_back=_fell_back))
                return
            self.backoff.on_success()
            if response.status in (301, 302) and redirect_depth < _MAX_REDIRECTS:
                location = response.headers.get("Location")
                if location:
                    self.stats.redirects += 1
                    target = join_url(url, location)
                    self._request(target, on_done, redirect_depth + 1,
                                  _started=started, _fell_back=_fell_back)
                    return
            on_done(url, response)

        __, ready = self._cpu.reserve(self.loop.now,
                                      self.costs.client_overhead)
        self.loop.schedule(ready, issue)
