"""Unit tests for the event-driven Algorithm 2 client."""

import pytest

from repro.http.headers import Headers
from repro.http.messages import Response
from repro.http.urls import URL, parse_url
from repro.sim.events import EventLoop
from repro.sim.network import CostModel
from repro.sim.simclient import SimClient


class ScriptedServer:
    """Answers client sends from a URL->response script, after a delay."""

    def __init__(self, loop, pages, delay=0.001):
        self.loop = loop
        self.pages = pages
        self.delay = delay
        self.requests = []
        self.drop_next = 0
        self.dead = set()   # hosts that have crashed: no answer at all

    def send(self, url, request, on_response):
        self.requests.append(str(url))
        if url.host in self.dead:
            response = None
        elif self.drop_next > 0:
            self.drop_next -= 1
            response = Response(status=503)
        else:
            response = self.pages.get(str(url), Response(status=404))
        self.loop.schedule_after(self.delay, lambda: on_response(response))


def html_response(body=b"<html>x</html>"):
    response = Response(status=200, body=body)
    response.headers.set("Content-Type", "text/html")
    return response


def parse_stub(mapping):
    def parse(content_type, body):
        return mapping.get(body, ([], []))
    return parse


def make_client(loop, server, parse, entries=("http://h/index.html",),
                costs=None, **kwargs):
    kwargs.setdefault("seed", 7)
    return SimClient(0, loop, costs or CostModel(client_overhead=0.001),
                     send=server.send, parse=parse,
                     entry_points=[parse_url(e) for e in entries], **kwargs)


class TestNavigation:
    def test_walks_links(self):
        loop = EventLoop()
        index_body = b"<html>index</html>"
        leaf_body = b"<html>leaf</html>"
        server = ScriptedServer(loop, {
            "http://h/index.html": html_response(index_body),
            "http://h/a.html": html_response(leaf_body),
        })
        parse = parse_stub({index_body: (["a.html"], []),
                            leaf_body: ([], [])})
        client = make_client(loop, server, parse)
        client.start()
        loop.run_until(2.0)
        client.stop()
        assert "http://h/index.html" in server.requests
        assert "http://h/a.html" in server.requests
        assert client.stats.sequences >= 2  # leaf ends sequences early

    def test_images_fetched_in_parallel(self):
        loop = EventLoop()
        index_body = b"<html>imgs</html>"
        image = Response(status=200, body=b"GIF")
        server = ScriptedServer(loop, {
            "http://h/index.html": html_response(index_body),
            **{f"http://h/i{k}.gif": image for k in range(8)},
        }, delay=0.1)
        parse = parse_stub({
            index_body: ([], [f"i{k}.gif" for k in range(8)])})
        client = make_client(loop, server, parse, max_steps=1, min_steps=1)
        client.start()
        # After the page + first image wave: at most 4 images in flight.
        loop.run_until(0.15)
        image_requests = [r for r in server.requests if "i" in r and ".gif" in r]
        assert 1 <= len(image_requests) <= 4
        loop.run_until(5.0)
        client.stop()
        image_requests = {r for r in server.requests if ".gif" in r}
        assert len(image_requests) == 8

    def test_entry_point_required(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            SimClient(0, loop, CostModel(), send=lambda *a: None,
                      parse=lambda *a: ([], []), entry_points=[], seed=1)


class TestRedirects:
    def test_follows_301(self):
        loop = EventLoop()
        target_body = b"<html>moved target</html>"
        redirect = Response(status=301)
        redirect.headers.set("Location", "http://coop/~migrate/h/80/index.html")
        server = ScriptedServer(loop, {
            "http://h/index.html": redirect,
            "http://coop/~migrate/h/80/index.html": html_response(target_body),
        })
        client = make_client(loop, server, parse_stub({target_body: ([], [])}))
        client.start()
        loop.run_until(1.0)
        client.stop()
        assert client.stats.redirects >= 1
        assert "http://coop/~migrate/h/80/index.html" in server.requests

    def test_redirect_loop_bounded(self):
        loop = EventLoop()
        redirect = Response(status=301)
        redirect.headers.set("Location", "http://h/index.html")
        server = ScriptedServer(loop, {"http://h/index.html": redirect})
        client = make_client(loop, server, parse_stub({}))
        client.start()
        loop.run_until(0.5)
        client.stop()
        # Bounded redirects per request attempt, not infinite.
        assert client.stats.redirects < len(server.requests) + 10


class TestFailover:
    COOP_COPY = "http://coop/~migrate/h/80/a.html"

    def run_one_sequence(self, dead):
        loop = EventLoop()
        body = b"<html>home copy</html>"
        server = ScriptedServer(loop, {"http://h/a.html": html_response(body)})
        server.dead.update(dead)
        client = make_client(loop, server, parse_stub({body: ([], [])}),
                             entries=(self.COOP_COPY,),
                             min_steps=1, max_steps=1)
        client.start()
        # Two hops of 1 ms overhead plus 1 ms delivery each: the second
        # sequence's first request is not issued before 5 ms.
        loop.run_until(0.0045)
        client.stop()
        return server, client

    def test_a_crashed_coop_fails_over_to_the_home_once(self):
        server, client = self.run_one_sequence({"coop"})
        assert server.requests == [self.COOP_COPY, "http://h/a.html"]
        assert client.stats.replica_fallbacks == 1
        assert client.stats.steps == 1
        assert client.stats.errors == 0
        assert client.latencies == [pytest.approx(0.004)]

    def test_a_dead_home_ends_the_fetch_as_an_error(self):
        server, client = self.run_one_sequence({"coop", "h"})
        assert server.requests == [self.COOP_COPY, "http://h/a.html"]
        assert client.stats.replica_fallbacks == 1
        assert client.stats.errors == 1
        assert client.stats.steps == 0


class TestBackoff:
    def test_503_backoff_then_retry(self):
        loop = EventLoop()
        body = b"<html>ok</html>"
        server = ScriptedServer(loop, {"http://h/index.html":
                                       html_response(body)})
        server.drop_next = 2
        costs = CostModel(client_overhead=0.001, backoff_base=0.5)
        client = make_client(loop, server, parse_stub({body: ([], [])}),
                             costs=costs, max_steps=1, min_steps=1)
        client.start()
        loop.run_until(0.4)
        assert client.stats.drops == 1
        loop.run_until(10.0)
        client.stop()
        assert client.stats.drops == 2
        assert client.stats.backoff_time == pytest.approx(1.5)  # 0.5 + 1.0
        assert any(r.endswith("index.html") for r in server.requests)

    def test_stop_halts_activity(self):
        loop = EventLoop()
        body = b"<html>ok</html>"
        server = ScriptedServer(loop,
                                {"http://h/index.html": html_response(body)})
        client = make_client(loop, server, parse_stub({body: ([], [])}))
        client.start()
        loop.run_until(0.5)
        client.stop()
        count = len(server.requests)
        loop.run_until(5.0)
        assert len(server.requests) == count


class TestCaching:
    def test_cached_page_not_refetched_within_sequence(self):
        loop = EventLoop()
        a_body = b"<html>a</html>"
        b_body = b"<html>b</html>"
        server = ScriptedServer(loop, {
            "http://h/index.html": html_response(a_body),
            "http://h/b.html": html_response(b_body),
        })
        # a <-> b cycle: revisits must come from cache.
        parse = parse_stub({a_body: (["b.html"], []),
                            b_body: (["/index.html"], [])})
        client = make_client(loop, server, parse, min_steps=10, max_steps=10)
        client.start()
        loop.run_until(0.2)
        client.stop()
        assert server.requests.count("http://h/index.html") <= \
            client.stats.sequences + 1
        assert client.stats.cache_hits > 0
