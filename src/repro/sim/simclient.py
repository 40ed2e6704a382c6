"""The simulator's Algorithm 2 client: :class:`repro.client.walker.Walk`
run on the event loop.

The walk decides what to fetch and books what came back; this client
fetches in continuation style, so thousands of concurrent clients run
inside one event loop, and its transport follows redirects and fails
over to the home as :func:`repro.client.realclient.fetch_url` does.

Each client models one benchmark *thread* of the paper: a main thread
navigating hyperlinks plus four helper threads fetching embedded images in
parallel.  ``CostModel.client_overhead`` charges the client workstation's
per-request work, which is what bounds a single client to roughly the
~45 requests/s the paper's client machines exhibited.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.client.walker import (
    MAX_REDIRECTS,
    MAX_STEPS,
    MIN_STEPS,
    ExponentialBackoff,
    FetchOutcome,
    Walk,
    page_links,
)
from repro.core.naming import _home_fallback
from repro.http.messages import Response
from repro.http.urls import URL, join_url
from repro.http.wire import ParsedHead, parsed_head
from repro.sim.events import EventLoop
from repro.sim.network import CostModel, Serializer

# (links, images) of a fetched resource; resolved by the cluster's shared
# parse cache (real HTML parsing, memoized per distinct body).
ParsedLinks = Tuple[List[str], List[str]]
ParseFn = Callable[[str, bytes], ParsedLinks]
ClientSendFn = Callable[[URL, ParsedHead, Callable[[Optional[Response]], None]], None]
DoneFn = Callable[[URL, Optional[Response]], None]


def shared_parse() -> ParseFn:
    """One cluster's parse service: :func:`page_links`, memoized per
    distinct HTML body, so thousands of clients parse each page once."""
    memo: Dict[bytes, ParsedLinks] = {}

    def parse(content_type: str, body: bytes) -> ParsedLinks:
        if not content_type.startswith("text/html"):
            return [], []
        parsed = memo.get(body)
        if parsed is None:
            parsed = memo[body] = page_links(content_type, body)
        return parsed

    return parse


class SimClient:
    """One simulated benchmark client thread."""

    def __init__(self, index: int, loop: EventLoop, costs: CostModel, *,
                 send: ClientSendFn, parse: ParseFn,
                 entry_points: List[URL], seed: int,
                 min_steps: int = MIN_STEPS, max_steps: int = MAX_STEPS,
                 think_time: float = 0.0) -> None:
        self.walk = Walk(entry_points, seed, min_steps=min_steps,
                         max_steps=max_steps, think_time=think_time,
                         backoff=ExponentialBackoff(
                             base=costs.backoff_base,
                             ceiling=costs.backoff_ceiling))
        self.stats = self.walk.stats
        self.index = index
        self.loop = loop
        self.costs = costs
        self.send = send
        self.parse = parse
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
        if not self._stopped:
            self._navigate(self.walk.begin())

    def _navigate(self, url: URL) -> None:
        """One step: obtain the document, then its images, then follow on."""
        if self._stopped:
            return
        links = self.walk.step(url)
        if links is not None:
            self._choose_next(links)
        else:
            self._fetch(url, self._document_arrived)

    def _document_arrived(self, url: URL,
                          response: Optional[Response]) -> None:
        if self._stopped:
            return
        outcome = _outcome(response)
        if outcome.ok:
            content_type = response.headers.get("Content-Type", "") or ""
            outcome.links, outcome.images = self.parse(content_type,
                                                       response.body)
        images = self.walk.page(url, outcome)
        if images is None:
            self._begin_sequence()
        elif images:
            self._fetch_images(images, outcome.links)
        else:
            self._choose_next(outcome.links)

    def _fetch_images(self, images: List[URL], links: List[str]) -> None:
        """Fetch *images* on up to ``costs.image_helpers`` helper threads,
        then follow on once every one has arrived."""
        queue = list(images)
        remaining = len(images)

        def fetch_next() -> None:
            if self._stopped or not queue:
                return
            image = queue.pop(0)
            if self.walk.wanted(image):
                self._fetch(image, image_done)
            else:
                finish_one()
                fetch_next()

        def image_done(url: URL, response: Optional[Response]) -> None:
            if self._stopped:
                return
            self.walk.image(url, _outcome(response))
            finish_one()
            fetch_next()

        def finish_one() -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                self._choose_next(links)

        for __ in range(min(self.costs.image_helpers, len(images))):
            fetch_next()

    def _choose_next(self, links: List[str]) -> None:
        if self._stopped:
            return
        target, think = self.walk.choose(links)
        proceed = self._begin_sequence if target is None \
            else lambda: self._navigate(target)
        if think:
            self.loop.schedule_after(think, proceed)
        else:
            proceed()

    # ------------------------------------------------------------------
    # One fetch: redirects, failover to the home and 503 backoff
    # ------------------------------------------------------------------

    def _fetch(self, url: URL, on_done: DoneFn) -> None:
        """Fetch *url*, then ``on_done(answering_url, response)``; the
        latency recorded spans every hop and backoff wait."""
        started = self.loop.now

        def done(answered: URL, response: Optional[Response]) -> None:
            self.latencies.append(self.loop.now - started)
            on_done(answered, response)

        self._hop(url, done, 0, False)

    def _hop(self, url: URL, done: DoneFn, depth: int,
             fell_back: bool) -> None:
        """Issue one request after the client-side per-request overhead."""

        def issue() -> None:
            if self._stopped:
                return
            self.send(url, get_head(url), received)

        def received(response: Optional[Response]) -> None:
            if self._stopped:
                return
            if response is None:
                # A dead co-op is not a dead document: retry once at the
                # home the migrated path encodes.
                fallback = None
                if not fell_back and depth < MAX_REDIRECTS:
                    fallback = _home_fallback(url)
                self.walk.book(FetchOutcome(
                    599, replica_fallback=fallback is not None))
                if fallback is not None:
                    self._hop(fallback, done, depth + 1, True)
                else:
                    done(url, None)
                return
            location = None
            if response.status in (301, 302) and depth < MAX_REDIRECTS:
                location = response.headers.get("Location")
            delay = self.walk.book(FetchOutcome(
                response.status, len(response.body),
                redirected=bool(location)))
            if delay is not None:
                self.loop.schedule_after(
                    delay, lambda: self._hop(url, done, depth, fell_back))
            elif location:
                self._hop(join_url(url, location), done, depth + 1,
                          fell_back)
            else:
                done(url, response)

        __, ready = self._cpu.reserve(self.loop.now,
                                      self.costs.client_overhead)
        self.loop.schedule(ready, issue)


def get_head(url: URL) -> ParsedHead:
    """The head a client frames to GET *url*, as a server's parser
    hands it over: from the head memo, so it takes the warm route."""
    return parsed_head(f"GET {url.request_target} HTTP/1.0\r\n"
                       f"Host: {url.authority}".encode("latin-1"))


def _outcome(response: Optional[Response]) -> FetchOutcome:
    """What the walk needs of a terminal response (no links parsed)."""
    if response is None:
        return FetchOutcome(599)
    return FetchOutcome(response.status, len(response.body))
