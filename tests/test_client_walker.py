"""Unit tests for Algorithm 2's walk and its blocking client."""

import random

import pytest

from repro.client.walker import (
    ExponentialBackoff,
    FetchOutcome,
    RandomWalker,
    Walk,
    select_next_link,
)
from repro.http.messages import Response
from repro.http.urls import URL, parse_url
from repro.sim.events import EventLoop
from repro.sim.network import CostModel
from repro.sim.simclient import SimClient


class TestBackoff:
    def test_doubling(self):
        backoff = ExponentialBackoff()
        assert [backoff.on_drop() for __ in range(4)] == [1.0, 2.0, 4.0, 8.0]

    def test_ceiling(self):
        backoff = ExponentialBackoff(base=1.0, ceiling=4.0)
        delays = [backoff.on_drop() for __ in range(5)]
        assert delays[-1] == 4.0

    def test_success_resets(self):
        backoff = ExponentialBackoff()
        backoff.on_drop()
        backoff.on_drop()
        backoff.on_success()
        assert backoff.on_drop() == 1.0

    def test_custom_base(self):
        backoff = ExponentialBackoff(base=0.3)
        assert backoff.on_drop() == pytest.approx(0.3)
        assert backoff.on_drop() == pytest.approx(0.6)


class TestSelectNextLink:
    def test_empty_returns_none(self):
        assert select_next_link([], random.Random(0)) is None

    def test_uniform_choice(self):
        rng = random.Random(0)
        seen = {select_next_link(["a", "b", "c"], rng) for __ in range(100)}
        assert seen == {"a", "b", "c"}


class FakeSite:
    """An in-memory site answering walker fetches."""

    def __init__(self):
        self.pages = {
            "http://h/index.html": FetchOutcome(
                status=200, size=1000,
                links=["a.html", "b.html"], images=["i.gif"]),
            "http://h/a.html": FetchOutcome(status=200, size=500,
                                            links=["b.html"]),
            "http://h/b.html": FetchOutcome(status=200, size=500, links=[]),
            "http://h/i.gif": FetchOutcome(status=200, size=2000),
        }
        self.requests = []
        self.drop_next = 0
        self.refuse_next = 0

    def fetch(self, url: URL) -> FetchOutcome:
        self.requests.append(str(url))
        if self.refuse_next > 0:
            self.refuse_next -= 1
            raise ConnectionRefusedError("injected")
        if self.drop_next > 0:
            self.drop_next -= 1
            return FetchOutcome(status=503)
        return self.pages.get(str(url), FetchOutcome(status=404))


def make_walker(site, **kwargs):
    kwargs.setdefault("seed", 42)
    kwargs.setdefault("sleep", lambda s: None)
    return RandomWalker(["http://h/index.html"], site.fetch, **kwargs)


class TestWalker:
    def test_requires_entry_points(self):
        with pytest.raises(ValueError):
            RandomWalker([], lambda u: FetchOutcome(200))

    def test_sequence_starts_at_entry(self):
        site = FakeSite()
        walker = make_walker(site)
        walker.run_sequence()
        assert site.requests[0] == "http://h/index.html"

    def test_images_fetched_with_page(self):
        site = FakeSite()
        walker = make_walker(site)
        walker.run_sequence()
        assert "http://h/i.gif" in site.requests

    def test_cache_prevents_refetch_within_sequence(self):
        site = FakeSite()
        walker = make_walker(site, min_steps=25, max_steps=25)
        walker.run_sequence()
        # index.html fetched exactly once despite possible revisits.
        assert site.requests.count("http://h/index.html") == 1

    def test_cache_reset_between_sequences(self):
        site = FakeSite()
        walker = make_walker(site)
        walker.run(sequences=3)
        assert site.requests.count("http://h/index.html") == 3

    def test_503_backs_off_and_retries(self):
        site = FakeSite()
        site.drop_next = 2
        slept = []
        walker = make_walker(site, sleep=slept.append)
        walker.run_sequence()
        assert walker.stats.drops == 2
        assert slept == [1.0, 2.0]
        assert walker.stats.backoff_time == 3.0

    def test_stats_accumulate(self):
        site = FakeSite()
        walker = make_walker(site)
        stats = walker.run(sequences=5)
        assert stats.sequences == 5
        assert stats.requests >= 5
        assert stats.bytes_received > 0

    def test_sequence_ends_on_leaf_page(self):
        site = FakeSite()
        # Every page links only to b.html, which has no links.
        walker = make_walker(site, min_steps=25, max_steps=25)
        walker.run_sequence()
        assert walker.stats.steps <= 25

    def test_404_ends_sequence(self):
        site = FakeSite()
        site.pages["http://h/index.html"] = FetchOutcome(
            status=200, size=10, links=["missing.html"])
        walker = make_walker(site)
        walker.run_sequence()
        assert walker.stats.errors >= 0  # sequence terminated, no crash

    def test_transport_exception_counted(self):
        def broken(url):
            raise OSError("connection refused")

        walker = RandomWalker(["http://h/x.html"], broken,
                              sleep=lambda s: None)
        walker.run_sequence()
        assert walker.stats.errors == 1

    def test_unexpected_fetch_exception_is_one_error(self):
        def broken(url):
            raise ValueError("bad header")

        walker = RandomWalker(["http://h/x.html"], broken,
                              sleep=lambda s: None)
        walker.run(2)
        assert walker.stats.errors == 2
        assert walker.stats.requests == 0
        assert walker.stats.transport_retries == 0

    def test_transport_failure_backs_off_then_recovers(self):
        site = FakeSite()
        site.refuse_next = 2
        slept = []
        walker = make_walker(site, sleep=slept.append)
        walker.run_sequence()
        # Same capped exponential backoff schedule as 503 drops.
        assert slept[:2] == [1.0, 2.0]
        assert walker.stats.transport_failures == 2
        assert walker.stats.transport_retries == 2
        assert walker.stats.errors == 0
        assert walker.stats.sequences == 1

    def test_transport_retries_are_bounded(self):
        site = FakeSite()
        site.refuse_next = 50  # never recovers within the retry budget
        walker = make_walker(site, max_transport_retries=2)
        walker.run_sequence()
        # One initial attempt plus two retries, then the fetch is dropped
        # and counted as an error (the walk moves on, no crash).
        assert walker.stats.transport_failures == 3
        assert walker.stats.transport_retries == 2
        assert walker.stats.errors == 1

    def test_transport_success_resets_backoff(self):
        site = FakeSite()
        site.refuse_next = 1
        slept = []
        walker = make_walker(site, sleep=slept.append)
        walker.run_sequence()
        site.refuse_next = 1
        walker.run_sequence()
        # Each recovery reset the schedule: both retries waited the base.
        assert slept == [1.0, 1.0]


class TestOneWalk:
    """Rules the blocking walker shares with the simulator's client."""

    def test_both_clients_walk_the_same_urls(self):
        site = FakeSite()
        entries = ["http://h/index.html", "http://h/a.html"]
        walker = RandomWalker(entries, site.fetch, seed=5,
                              sleep=lambda s: None)
        walker.run(sequences=8)

        loop = EventLoop()
        asked = []

        def send(url, request, on_response):
            asked.append(str(url))
            page = site.pages.get(str(url), FetchOutcome(status=404))
            response = Response(status=page.status, body=str(url).encode())
            loop.schedule_after(0.001, lambda: on_response(response))

        def parse(content_type, body):
            page = site.pages[body.decode()]
            return page.links, page.images

        client = SimClient(0, loop, CostModel(client_overhead=0.001,
                                              image_helpers=1),
                           send=send, parse=parse, seed=5,
                           entry_points=[parse_url(e) for e in entries])
        client.start()
        loop.run_until(1.0)
        client.stop()
        assert len(asked) > len(site.requests) > 8
        assert asked[:len(site.requests)] == site.requests

    def test_a_failed_image_counts_as_an_error(self):
        site = FakeSite()
        site.pages["http://h/index.html"].images.append("gone.gif")
        walker = make_walker(site, min_steps=1, max_steps=1)
        walker.run_sequence()
        assert "http://h/gone.gif" in site.requests
        assert walker.stats.errors == 1

    def test_a_page_is_cached_under_the_url_that_answered(self):
        coop = parse_url("http://c/~migrate/h/80/index.html")
        site = FakeSite()
        site.pages["http://h/index.html"] = FetchOutcome(
            status=200, size=10, links=["index.html"], images=["i.gif"],
            redirected=True, url=coop)
        site.pages["http://c/~migrate/h/80/i.gif"] = FetchOutcome(200, 5)
        walker = make_walker(site, min_steps=2, max_steps=2)
        walker.run_sequence()
        # Its images resolve against the co-op; the next link resolves
        # against the URL the step asked for, which the cache misses.
        assert site.requests == ["http://h/index.html",
                                 "http://c/~migrate/h/80/i.gif",
                                 "http://h/index.html"]

    def test_cache_hits_count_steps_the_sequence_cache_answers(self):
        url = parse_url("http://h/a.html")
        walk = Walk([url], seed=1)
        walk.begin()
        assert walk.step(url) is None           # a miss books nothing
        walk.page(url, FetchOutcome(200, 10, links=["b.html"]))
        assert walk.step(url) == ["b.html"]
        assert walk.stats.cache_hits == 1
        walk.begin()                            # the reset empties it
        assert walk.step(url) is None
        assert walk.stats.cache_hits == 1
