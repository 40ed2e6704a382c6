"""The cached-read short-circuit is observationally identical to the
slow path, and every host is observationally identical to the engine.

``fast_lookup`` + ``fast_commit`` is a second route through the engine
for plain cached GET/HEADs.  Twin engines take the same request script,
one through each route; heads, bodies and every counter must agree.
The fast route keeps each flavour's framed header block on the cache
entry and copies it from the second hit on, so the script runs through
it twice: a copy must read like the rendering it was taken from, must
not be reachable from the reply before it, and must die with its entry.

The hosts differ only in how they move bytes: one script — cached reads,
negotiation, a regeneration, a redirect, an author's update — goes
through a bare engine driven the way ``sim.SimServer.handle`` drives
it and through both socket front ends; bytes and counters must agree.
"""

import contextlib
import dataclasses
import gzip
import itertools
import re
import socket

import pytest

from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.http.content import (
    DCWS_EPOCH,
    DIGEST_HEADER,
    body_digest,
    etag_for,
    http_date,
)
from repro.http.headers import Headers, _Facts
from repro.http.messages import Request, Response, parse_response
from repro.http.wire import RequestParser, _parsed_head
from repro.server.aio import AsyncDCWSServer
from repro.server.dispatch import serve
from repro.server.engine import (
    DCWSEngine,
    EngineReply,
    OutboundAction,
    PURPOSE_HEADER,
    PullFromHome,
    VERSION_HEADER,
)
from repro.server.filestore import MemoryStore
from repro.server.threaded import ThreadedDCWSServer
from tests.support import free_port, parse_request

HOME = Location("home", 8001)

SITE = {
    "/index.html": b'<html><a href="big.html">B</a></html>',
    "/big.html": b"<html>" + b"<p>lorem ipsum dolor</p>" * 64 + b"</html>",
    "/i.gif": b"GIF89a" + b"x" * 500,
}

# GET/HEAD x gzip/identity, over a compressible page, a short page with
# no gzip variant, and an incompressible image.
SCRIPT = list(itertools.product(("GET", "HEAD"), ("gzip", None),
                                sorted(SITE)))


def make_engine() -> DCWSEngine:
    engine = DCWSEngine(HOME, ServerConfig(), MemoryStore(SITE),
                        entry_points=["/index.html"])
    engine.initialize(0.0)
    return engine


def build(method, encoding, path) -> Request:
    request = Request(method=method, target=path)
    if encoding:
        request.headers.set("Accept-Encoding", encoding)
    return request


def slow(engine, request, now):
    return engine.handle_request(request, now)


def fast(engine, request, now):
    hit = engine.fast_lookup(request, now)
    assert hit is not None, f"{request.method} {request.target} missed"
    return engine.fast_commit(hit, request, now)


def counters(engine):
    """Every ``EngineStats`` counter both routes must agree on —
    ``fast_hits`` is the one that says which route a request took."""
    stats = dataclasses.asdict(engine.stats)
    del stats["fast_hits"], stats["decisions"]
    return stats


def run(engine, route):
    """Warm the caches through the slow path, then replay the script
    through *route*; returns (warm replies, replayed replies)."""
    warm = [slow(engine, build(*step), 1.0) for step in SCRIPT]
    replayed = [route(engine, build(*step), 2.0 + turn)
                for turn, step in enumerate(SCRIPT)]
    return warm, replayed


def test_fast_path_matches_slow_path():
    by_fast, by_slow = make_engine(), make_engine()
    fast_warm, fast_replies = run(by_fast, fast)
    slow_warm, slow_replies = run(by_slow, slow)
    for step, quick, full, quick_warm, full_warm in zip(
            SCRIPT, fast_replies, slow_replies, fast_warm, slow_warm):
        assert quick.response.serialize_head() == \
            full.response.serialize_head(), step
        assert quick.response.body == full.response.body, step
        # Neither route copies: both hand out the cached bytes object
        # the cache fill produced.
        assert quick.response.body is quick_warm.response.body, step
        assert full.response.body is full_warm.response.body, step
        assert quick.doc_name == full.doc_name, step
    assert counters(by_fast) == counters(by_slow)
    for name in SITE:
        assert by_fast.graph.get(name).hits == by_slow.graph.get(name).hits


def test_script_covers_both_encodings():
    engine = make_engine()
    _, replies = run(engine, fast)
    encodings = {reply.response.headers.get("Content-Encoding")
                 for reply in replies}
    assert encodings == {"gzip", None}
    assert engine.stats.gzip_responses > 0


# -- three hosts, one script -------------------------------------------

COOP = Location("127.0.0.1", 1)  # a migration target nobody contacts

HOSTED = dict(SITE, **{
    "/index.html": b'<html><a href="d.html">D</a><a href="big.html">B</a>'
                   b"</html>",
    "/d.html": b'<html><a href="index.html">up</a></html>',
})


def migrate_d(engine):
    engine.policy.force_migrate("/d.html", COOP, now=0.0)


def update_index(engine):
    engine.update_document("/index.html",
                           b'<html><a href="d.html">D, revised</a></html>')


# -- the framed-block memo ----------------------------------------------

# How a request can ask for the connection: the engine frames a
# persistent and a one-shot head differently.
CONNECTIONS = [("HTTP/1.0", None), ("HTTP/1.0", "keep-alive"),
               ("HTTP/1.1", None), ("HTTP/1.1", "close")]
FLAVOURED = [(version, connection, *step)
             for version, connection in CONNECTIONS for step in SCRIPT]


def flavoured(version, connection, method, encoding, path) -> Request:
    request = build(method, encoding, path)
    request.version = version
    if connection:
        request.headers.set("Connection", connection)
    return request


def cache_entries(engine):
    return list(engine.response_cache.entries())


class Warm:
    """One answer of the warm route, as a front end receives it."""

    def __init__(self, head: bytes, body: bytes, persists: bool) -> None:
        self.head, self.body, self.persists = head, body, persists

    @property
    def headers(self) -> Headers:
        return parse_response(self.head).headers


def parsed(request):
    """*request*'s head as the front ends hand it to the engine: the
    head memo's, through a parser."""
    parser = RequestParser()
    parser.feed(request.serialize())
    head, body = parser.next_head()
    assert body == b""
    return head


def warm(engine, request, now):
    answer = engine.serve_warm(parsed(request), now)
    assert answer is not None, f"{request.method} {request.target} missed"
    return Warm(*answer)


def test_memoised_heads_match_the_slow_route_on_first_use_and_reuse():
    by_fast, by_slow = make_engine(), make_engine()
    filled = {step: slow(by_fast, build(*step), 1.0) for step in SCRIPT}
    for step in SCRIPT:
        slow(by_slow, build(*step), 1.0)
    assert not any(entry.framed for entry in cache_entries(by_fast))
    passes = []
    for turn in range(2):       # first use renders, second use reuses
        passes.append([
            (warm(by_fast, flavoured(*step), 2.0 + turn),
             slow(by_slow, flavoured(*step), 2.0 + turn))
            for step in FLAVOURED])
        if turn == 0:
            blocks = {id(entry): dict(entry.framed)
                      for entry in cache_entries(by_fast)}
    for step, (first, full), (again, full_again) in zip(FLAVOURED, *passes):
        head = full.response.serialize_head()
        assert first.head == head, step
        assert again.head == head, step
        assert full_again.response.serialize_head() == head, step
        assert DIGEST_HEADER.encode() + b": sha256:" in head, step
        # One body object per variant: the one the cache fill produced.
        assert first.body is filled[step[2:]].response.body, step
        assert again.body is first.body, step
        assert first.body == full.response.body, step
        if step[2] == "GET":    # the kept bytes themselves, sent again
            assert again.head is first.head, step
    assert counters(by_fast) == counters(by_slow)
    entries = cache_entries(by_fast)
    assert any(entry.framed for entry in entries)
    handed_out = {id(answer.head) for answers in passes
                  for answer, __ in answers}
    for entry in entries:
        assert len(entry.framed) <= 4
        # The second pass reused: the kept heads are the first pass's,
        # and they are what the replies were handed.
        assert entry.framed == blocks[id(entry)]
        assert all(entry.framed[key] is block
                   for key, block in blocks[id(entry)].items())
        assert {id(block) for block in entry.framed.values()} <= handed_out
    # The slow route never fills the memo.
    assert not any(entry.framed for entry in cache_entries(by_slow))


def test_each_kept_head_is_the_slow_renders_head():
    """Every flavour of kept head bytes — a GET's 200 identity or gzip,
    and the 304, each on a connection that persists (HTTP/1.1, HTTP/1.0
    with keep-alive) and one that does not (HTTP/1.0 without it) — is
    byte for byte what ``serialize_head`` makes of the slow route's
    rendering of the same request."""
    by_warm, by_slow = make_engine(), make_engine()
    for engine in (by_warm, by_slow):
        for step in SCRIPT:
            slow(engine, build(*step), 1.0)
    asks = [("HTTP/1.1", None, True), ("HTTP/1.0", "keep-alive", True),
            ("HTTP/1.0", None, False)]
    etag = etag_for("/big.html", 0)
    for version, connection, persists in asks:
        for encoding in ("gzip", None):
            request = lambda: flavoured(version, connection, "GET",
                                        encoding, "/big.html")
            answer = warm(by_warm, request(), 2.0)
            rendered = slow(by_slow, request(), 2.0).response
            assert answer.persists == persists
            assert answer.head == rendered.serialize_head()
            entry = by_warm.response_cache.peek("/big.html")
            assert entry.framed[(encoding == "gzip", persists)] \
                is answer.head
        revalidation = lambda: conditional(
            "/big.html", {"If-None-Match": etag}, version, connection)
        answer = warm(by_warm, revalidation(), 3.0)
        rendered = slow(by_slow, revalidation(), 3.0).response
        assert rendered.status == 304 and answer.body == b""
        assert answer.head == rendered.serialize_head()
        assert by_warm.response_cache.peek("/big.html") \
            .not_modified[persists] == answer.head
    entry = by_warm.response_cache.peek("/big.html")
    assert set(entry.framed) == {(gzip, persists) for gzip in (True, False)
                                 for persists in (True, False)}
    assert set(entry.not_modified) == {True, False}
    assert counters(by_warm) == counters(by_slow)


def replies_stay_apart(request):
    engine = make_engine()
    slow(engine, request(), 1.0)
    untouched = fast(engine, request(), 2.0).response.serialize_head()
    for turn in range(3):       # what a front end does when it closes
        reply = fast(engine, request(), 3.0 + turn)
        reply.response.headers.set("Connection", "close")
        reply.response.headers.remove("Keep-Alive")
        reply.response.headers.add("X-Test", "1")
        assert b"X-Test: 1" in reply.response.serialize_head()
        assert fast(engine, request(), 3.5 + turn) \
            .response.serialize_head() == untouched
    return untouched


def test_a_reply_cannot_reach_the_next_one():
    head = replies_stay_apart(
        lambda: flavoured("HTTP/1.1", None, "GET", "gzip", "/big.html"))
    assert head.split()[1] == b"200"


def test_a_304_cannot_reach_the_next_one():
    def revalidation():
        request = flavoured("HTTP/1.1", None, "GET", "gzip", "/big.html")
        request.headers.set("If-None-Match", etag_for("/big.html", 0))
        return request

    assert replies_stay_apart(revalidation).split()[1] == b"304"


def validators(answer):
    headers = answer.headers
    return {name: headers.get(name)
            for name in ("ETag", DIGEST_HEADER, VERSION_HEADER,
                         "Content-Length", "Last-Modified")}


def fast_twice(engine, request, now):
    """The memo's fill and its first reuse on the warm route; they must
    be the same bytes."""
    first, again = warm(engine, request(), now), warm(engine, request(),
                                                      now + 0.1)
    assert again.head is first.head
    assert first.body is again.body
    return again


def hosted_site_engine():
    engine = DCWSEngine(HOME, ServerConfig(), MemoryStore(dict(HOSTED)),
                        entry_points=["/index.html"], peers=[COOP])
    engine.initialize(0.0)
    return engine


def test_no_stale_head_after_an_update_or_a_migration():
    engine = hosted_site_engine()
    request = lambda: build("GET", None, "/index.html")
    slow(engine, request(), 1.0)
    seen = [validators(fast_twice(engine, request, 2.0))]
    for turn, change in enumerate((update_index, migrate_d)):
        change(engine)
        assert engine.fast_lookup(request(), 3.0 + turn) is None  # dirty
        regenerated = slow(engine, request(), 3.0 + turn)
        after = fast_twice(engine, request, 3.5 + turn)
        assert after.head == regenerated.response.serialize_head()
        assert after.body is regenerated.response.body
        record = engine.graph.get("/index.html")
        assert validators(after) == {
            "ETag": etag_for("/index.html", record.version),
            DIGEST_HEADER: body_digest(after.body),
            VERSION_HEADER: str(record.version),
            "Content-Length": str(len(after.body)),
            "Last-Modified": regenerated.response.headers.get(
                "Last-Modified")}
        seen.append(validators(after))
    # Three versions, three different heads (the update changed the
    # bytes, the migration the link inside them).
    for name in ("ETag", DIGEST_HEADER, VERSION_HEADER, "Content-Length"):
        assert len({entry[name] for entry in seen}) == 3, name


def test_no_stale_head_after_a_quarantine_clears():
    config = ServerConfig(scrub_interval=1.0, scrub_budget=16)
    engine = DCWSEngine(HOME, config, MemoryStore(dict(HOSTED)),
                        entry_points=["/index.html"])
    engine.initialize(0.0)
    request = lambda: build("GET", None, "/d.html")
    slow(engine, request(), 1.0)
    before = fast_twice(engine, request, 1.5)
    good = engine.store.get("/d.html")
    engine.store.put("/d.html", good.replace(b"up", b"UP"))     # bit rot
    engine.tick(2.0)
    assert engine.integrity.is_quarantined("/d.html")
    assert engine.fast_lookup(request(), 2.5) is None
    repaired = slow(engine, request(), 3.0)     # regenerates, clears
    assert not engine.integrity.is_quarantined("/d.html")
    after = fast_twice(engine, request, 3.5)
    assert after.head == repaired.response.serialize_head()
    body = after.body
    assert b">up<" in body and b"UP" not in body    # spliced, not the rot
    record = engine.graph.get("/d.html")
    assert validators(after) == {
        "ETag": etag_for("/d.html", record.version),
        DIGEST_HEADER: body_digest(body),
        VERSION_HEADER: str(record.version),
        "Content-Length": str(len(body)),
        "Last-Modified": repaired.response.headers.get("Last-Modified")}
    # The repair is a new version: nobody revalidates into the old one.
    assert validators(after)["ETag"] != validators(before)["ETag"]


def test_hosted_copies_have_no_memo_to_go_stale():
    """A pull that re-installs a hosted copy drops the cache entry that
    holds its kept head bytes, so the next head — on the warm route — is
    the new copy's, even when the home kept the version."""
    coop = DCWSEngine(Location("coop", 8002), ServerConfig(), MemoryStore({}),
                      peers=[HOME])
    coop.initialize(0.0)
    key = "/~migrate/home/8001/d.html"

    def install(body, version, now):
        coop.hosted.pop(key, None)      # as a validation's drop leaves it
        pull = coop.handle_request(build("GET", None, key), now)
        assert isinstance(pull, PullFromHome)
        assert pull.request.headers.get(PURPOSE_HEADER) == "migration-pull"
        upstream = Response(status=200, body=body)
        upstream.headers.set(VERSION_HEADER, version)
        upstream.headers.set(DIGEST_HEADER, body_digest(body))
        return coop.complete_pull(pull, upstream, now + 0.1)

    heads = []
    copies = ((b"<html>one</html>", "4"), (b"<html>two!</html>", "4"),
              (b"<html>three</html>", "5"))
    for turn, (body, version) in enumerate(copies):
        pulled = install(body, version, 1.0 + turn)
        # The memo's fill, then its first reuse.
        served = fast_twice(coop, lambda: build("GET", None, key), 1.5 + turn)
        assert served.head == pulled.response.serialize_head()
        assert served.body is pulled.response.body == body
        assert validators(served) == {
            "ETag": etag_for(key, version), DIGEST_HEADER: body_digest(body),
            VERSION_HEADER: None, "Content-Length": str(len(body)),
            "Last-Modified": pulled.response.headers.get("Last-Modified")}
        heads.append(served.head)
    assert len(set(heads)) == len(copies)
    assert coop.stats.fast_hits == 2 * len(copies)
    # Only the last copy's entry is left, holding the head just sent.
    (entry,) = cache_entries(coop)
    assert entry.body == copies[-1][0] and entry.framed
    assert served.head in entry.framed.values()


# -- conditional requests: the 304 short-circuit ---------------------------

COOP_2 = Location("127.0.0.1", 2)


def observed(engine, now):
    """Everything a request may move, whichever route served it."""
    return (counters(engine),
            {record.name: record.hits for record in engine.graph.documents()},
            engine.metrics.cps(now), engine.metrics.bps(now),
            engine.stats.bytes_sent)


LATER, EARLIER = http_date(DCWS_EPOCH + 3600), http_date(DCWS_EPOCH - 3600)


def conditionals(path, version=0):
    """name -> (request headers, status of a GET, takes the
    short-circuit) for a document at *version*."""
    current, stale = etag_for(path, version), etag_for(path, version + 7)
    return {
        "matching": ({"If-None-Match": current}, 304, True),
        "stale": ({"If-None-Match": stale}, 200, True),
        "star": ({"If-None-Match": "*"}, 304, True),
        "weak": ({"If-None-Match": "W/" + current}, 304, True),
        "list": ({"If-None-Match": f"{stale}, {current}"}, 304, True),
        "since-later": ({"If-Modified-Since": LATER}, 304, True),
        "since-earlier": ({"If-Modified-Since": EARLIER}, 200, True),
        "since-malformed": ({"If-Modified-Since": "yesterday"}, 200, True),
        "none-match-wins-200": ({"If-None-Match": stale,
                                 "If-Modified-Since": LATER}, 200, True),
        "none-match-wins-304": ({"If-None-Match": current,
                                 "If-Modified-Since": EARLIER}, 304, True),
        "range-and-match": ({"Range": "bytes=0-9",
                             "If-None-Match": current}, 304, False),
        "range-and-stale": ({"Range": "bytes=0-9",
                             "If-None-Match": stale}, 206, False),
    }


def conditional(path, headers, version="HTTP/1.1", connection=None,
                method="GET", encoding=None) -> Request:
    request = flavoured(version, connection, method, encoding, path)
    for name, value in headers.items():
        request.headers.set(name, value)
    return request


def twin_step(by_fast, by_slow, make_request, now):
    """One request through each twin; same wire bytes, same books.
    Returns the reply and whether it took the short-circuit."""
    before = by_fast.stats.fast_hits
    quick = serve(by_fast, make_request(), now)
    full = slow(by_slow, make_request(), now)
    assert quick.response.serialize() == full.response.serialize()
    assert quick.doc_name == full.doc_name
    assert observed(by_fast, now) == observed(by_slow, now)
    assert by_slow.stats.fast_hits == 0
    return quick, by_fast.stats.fast_hits - before == 1


def test_conditional_matrix_is_byte_identical_on_both_routes():
    by_fast, by_slow = make_engine(), make_engine()
    for engine in (by_fast, by_slow):       # fill the 200s the misses need
        for step in SCRIPT:
            slow(engine, build(*step), 1.0)
    statuses = set()
    for turn in range(2):       # first use frames the 304, second copies
        for path in ("/big.html", "/i.gif"):
            for name, (headers, status, short) in conditionals(path).items():
                for (version, connection), method, encoding in \
                        itertools.product(CONNECTIONS, ("GET", "HEAD"),
                                          ("gzip", None)):
                    step = (turn, path, name, version, connection, method,
                            encoding)
                    reply, took_it = twin_step(
                        by_fast, by_slow,
                        lambda: conditional(path, headers, version,
                                            connection, method, encoding),
                        2.0 + turn)
                    # Range is a GET matter: a HEAD ignores it.
                    expected = 200 if (method, status) == ("HEAD", 206) \
                        else status
                    assert reply.response.status == expected, step
                    assert took_it == short, step
                    assert reply.response.body == b"" or expected != 304, step
                    statuses.add(reply.response.status)
    assert statuses == {200, 206, 304}
    assert by_fast.stats.conditional_304s == by_fast.stats.responses_304 > 0
    # One framed block per "connection persists" flavour, however the
    # request spelled its validators, method or encoding.
    for path in ("/big.html", "/i.gif"):
        assert set(by_fast.response_cache.peek(path).not_modified) == \
            {True, False}
    # The slow route frames 304s through the same builder and memo.
    assert set(by_slow.response_cache.peek("/big.html").not_modified) == \
        {True, False}


def test_a_304_needs_no_cached_200_and_no_store_read():
    engine = make_engine()
    reads = []
    get = engine.store.get
    engine.store.get = lambda name: reads.append(name) or get(name)
    request = lambda: conditional("/big.html", conditionals("/big.html")
                                  ["matching"][0])
    for turn in range(3):
        assert fast(engine, request(), 1.0 + turn).response.status == 304
    assert not reads and len(engine.response_cache) == 0
    assert engine.response_cache.stats.lookups == 0
    # A validator that does not match needs the 200, which is not cached.
    assert engine.fast_lookup(conditional(
        "/big.html", conditionals("/big.html")["stale"][0]), 5.0) is None


def scrubbed_engine():
    config = ServerConfig(scrub_interval=1.0, scrub_budget=16)
    engine = DCWSEngine(HOME, config, MemoryStore(dict(HOSTED)),
                        entry_points=["/index.html"], peers=[COOP, COOP_2])
    engine.initialize(0.0)
    return engine


def test_conditionals_on_documents_that_must_still_go_slow():
    by_fast, by_slow = scrubbed_engine(), scrubbed_engine()
    twins = (by_fast, by_slow)

    def revalidate(path, now, status, short=False,
                   names=("matching", "stale", "since-later")):
        version = by_fast.graph.get(path).version
        assert version == by_slow.graph.get(path).version
        for name in names:
            headers = conditionals(path, version)[name][0]
            reply, took_it = twin_step(
                by_fast, by_slow, lambda: conditional(path, headers), now)
            assert reply.response.status == status[name], (path, name)
            assert took_it == short, (path, name)

    everywhere = lambda code: dict.fromkeys(
        ("matching", "stale", "since-later"), code)
    clean = {"matching": 304, "stale": 200, "since-later": 304}
    for engine in twins:
        for path in HOSTED:
            slow(engine, build("GET", None, path), 1.0)
    for path in HOSTED:         # all clean: every one takes the short-circuit
        revalidate(path, 2.0, clean, short=True)
    # Dirty: the referrer of a document that migrated regenerates first.
    for engine in twins:
        migrate_d(engine)
    assert by_fast.graph.get("/index.html").dirty
    revalidate("/index.html", 3.0, clean, names=("matching",))
    assert by_fast.stats.reconstructions == 1
    assert not by_fast.graph.get("/index.html").dirty
    # Clean again: 304s at once, 200s once the new version's is cached.
    revalidate("/index.html", 3.2, clean, short=True,
               names=("matching", "since-later"))
    revalidate("/index.html", 3.4, clean, names=("stale",))
    revalidate("/index.html", 3.6, clean, short=True)
    # Migrated, then replicated: the name answers 301 whatever it carries.
    revalidate("/d.html", 4.0, everywhere(301))
    for engine in twins:
        engine.policy.add_holder("/d.html", COOP_2, 4.5, kind="repair")
    assert by_fast.graph.get("/d.html").replicas
    revalidate("/d.html", 5.0, everywhere(301))
    # Quarantined with nothing to regenerate from: 503 — its cache
    # entry, 304 blocks included, went with the quarantine, and the
    # validators it would match still must not answer.
    for engine in twins:
        assert engine.response_cache.peek("/i.gif").not_modified
        engine.store.put("/i.gif", SITE["/i.gif"].replace(b"x", b"y", 1))
        engine.tick(6.0)
        assert engine.integrity.is_quarantined("/i.gif")
        assert "/i.gif" not in engine.response_cache
    revalidate("/i.gif", 6.5, everywhere(503))


# (what happens first under the host's lock, method, path, headers)
HOST_SCRIPT = [
    # Every cached read three times: the cache fill, the short-circuit
    # rendering its head, the short-circuit copying it.
    *[(None, "GET", "/index.html", {})] * 3,
    *[(None, "HEAD", "/index.html", {})] * 3,
    *[(None, "GET", "/big.html", {"Accept-Encoding": "gzip"})] * 3,
    (None, "GET", "/big.html", {"If-None-Match": etag_for("/big.html", 0)}),
    (None, "GET", "/big.html", {"Range": "bytes=6-25"}),
    (migrate_d, "GET", "/index.html", {}),      # dirtied referrer
    *[(None, "GET", "/index.html", {})] * 2,
    (None, "GET", "/d.html", {}),               # the migrated document
    (update_index, "GET", "/index.html", {}),   # right after an update
    *[(None, "GET", "/index.html", {})] * 2,    # clean and cached again
]


def hosted_engine(location) -> DCWSEngine:
    config = ServerConfig(stats_interval=60.0, pinger_interval=60.0)
    return DCWSEngine(location, config, MemoryStore(dict(HOSTED)),
                      entry_points=["/index.html"], peers=[COOP])


def drive(engine, lock, exchange):
    """The script through one host.  Returns the responses' wire bytes,
    the engine's counters, and how often a request found its document
    dirty and left it clean."""
    wires, cleaned = [], 0
    for prepare, method, path, headers in HOST_SCRIPT:
        request = Request(method=method, target=path, version="HTTP/1.1")
        for name, value in headers.items():
            request.headers.set(name, value)
        with lock:
            if prepare is not None:
                prepare(engine)
            dirty = engine.graph.get(path).dirty
        wires.append(exchange(request))
        with lock:
            cleaned += dirty and not engine.graph.get(path).dirty
    return wires, counters(engine), cleaned


def through_bare_engine(location):
    engine = hosted_engine(location)
    engine.initialize(0.0)
    clock = itertools.count(1)

    def exchange(request):
        reply = engine.handle_request(parse_request(request.serialize()),
                                      float(next(clock)))
        assert isinstance(reply, EngineReply)  # this script pulls nothing
        return reply.response.serialize()

    return drive(engine, contextlib.nullcontext(), exchange)


def through_sockets(server_cls, location):
    engine = hosted_engine(location)
    with server_cls(engine) as server, socket.create_connection(
            ("127.0.0.1", location.port), timeout=5.0) as sock:

        def receive() -> bytes:
            chunk = sock.recv(65536)
            assert chunk, "server closed mid-script"
            return chunk

        def exchange(request):
            sock.sendall(request.serialize())
            wire = receive()
            while b"\r\n\r\n" not in wire:
                wire += receive()
            head_end = wire.index(b"\r\n\r\n") + 4
            length = int(re.search(rb"(?i)\r\ncontent-length: (\d+)",
                                   wire[:head_end]).group(1))
            if request.method == "HEAD" or wire[9:12] == b"304":
                length = 0  # Content-Length describes the omitted body
            while len(wire) < head_end + length:
                wire += receive()
            return wire

        return drive(engine, server._lock, exchange)


def test_three_hosts_one_script():
    location = Location("127.0.0.1", free_port())
    bare = through_bare_engine(location)
    threaded = through_sockets(ThreadedDCWSServer, location)
    aio = through_sockets(AsyncDCWSServer, location)
    for step, expected, by_threaded, by_aio in zip(
            HOST_SCRIPT, bare[0], threaded[0], aio[0]):
        assert by_threaded == expected, step
        assert by_aio == expected, step
    assert {int(wire[9:12]) for wire in bare[0]} == {200, 206, 301, 304}
    assert any(b"Content-Encoding: gzip" in wire for wire in bare[0])
    for __, booked, cleaned in (bare, threaded, aio):
        assert booked == bare[1]
        assert booked["reconstructions"] == cleaned == 2


# -- the connection's last answer ------------------------------------------

def read_answer(sock, method="GET"):
    """One response off *sock*: its head, and its body read to the
    length its head frames."""
    wire = b""
    while b"\r\n\r\n" not in wire:
        chunk = sock.recv(65536)
        assert chunk, "server closed mid-response"
        wire += chunk
    head, __, body = wire.partition(b"\r\n\r\n")
    length = int(re.search(rb"(?i)\r\ncontent-length: (\d+)",
                           head).group(1))
    if method == "HEAD" or head[9:12] == b"304":
        length = 0
    while len(body) < length:
        chunk = sock.recv(65536)
        assert chunk, "server closed mid-body"
        body += chunk
    assert len(body) == length, "more than one response's bytes"
    return head + b"\r\n\r\n", body


@pytest.mark.parametrize("server_cls", [AsyncDCWSServer, ThreadedDCWSServer])
def test_the_capped_answer_says_close_and_the_server_closes(server_cls):
    """Warm answers are sent as they were kept, so the connection's
    ``keep_alive_max_requests``-th — on either front end, a cached 200
    or a 304 — must not be one of them: it says ``Connection: close``,
    no ``Keep-Alive``, and the server closes after it."""
    config = ServerConfig(keep_alive_max_requests=4)
    location = Location("127.0.0.1", free_port())
    etag = etag_for("/big.html", 0)
    asks = [(b"GET /big.html HTTP/1.1\r\nHost: h\r\n"
             b"Accept-Encoding: gzip\r\n\r\n"),
            (b"GET /big.html HTTP/1.1\r\nHost: h\r\n"
             b"If-None-Match: " + etag.encode() + b"\r\n\r\n")]
    for raw in asks:
        engine = DCWSEngine(location, config, MemoryStore(SITE),
                            entry_points=["/index.html"])
        with server_cls(engine), socket.create_connection(
                ("127.0.0.1", location.port), timeout=5.0) as sock:
            heads = []
            for __ in range(config.keep_alive_max_requests):
                sock.sendall(raw)
                heads.append(read_answer(sock)[0])
            assert sock.recv(1) == b""          # closed after the last
        assert engine.stats.fast_hits >= 2      # the warm route answered
        *kept, last = heads
        for head in kept:
            assert b"\r\nConnection: keep-alive\r\n" in head
            assert b"\r\nKeep-Alive: timeout=" in head
        assert b"\r\nConnection: close\r\n" in last
        assert b"Keep-Alive" not in last
        # Otherwise the last head is the one the warm route sent before.
        assert last.replace(b"Connection: close\r\n", b"") == \
            re.sub(rb"Connection: keep-alive\r\nKeep-Alive: [^\r]*\r\n",
                   b"", kept[-1])
        assert len({int(head[9:12]) for head in heads[1:]}) == 1


# -- a copy's home and a co-op, one script --------------------------------

def without(head: bytes, *names: bytes) -> bytes:
    return b"\r\n".join(line for line in head.split(b"\r\n")
                        if not line.startswith(names))


def test_a_coop_serves_a_copy_as_its_home_would():
    """Section 4.2: the co-op pulls once, then serves "as the home
    would".  The same bytes under the same version, asked for in every
    way the matrix knows, get the same answer from both — but for the
    ``ETag`` (the key is part of it) and ``X-DCWS-Version`` (a home's
    to stamp)."""
    home = make_engine()
    coop = DCWSEngine(Location("coop", 8002), ServerConfig(), MemoryStore({}),
                      peers=[HOME])
    coop.initialize(0.0)
    for name, data in SITE.items():
        coop.seed_hosted(HOME, name, data, home.graph.get(name).version, 0.0)
    statuses = set()
    for turn in range(2):       # a fill, then whatever each side memoised
        for name in sorted(SITE):
            key = f"/~migrate/home/8001{name}"
            for case in conditionals(name):
                for (version, connection), method, encoding in \
                        itertools.product(CONNECTIONS, ("GET", "HEAD"),
                                          ("gzip", None)):
                    step = (turn, name, case, version, connection, method,
                            encoding)
                    at_home = serve(home, conditional(
                        name, conditionals(name)[case][0], version,
                        connection, method, encoding), 1.0 + turn).response
                    at_coop = serve(coop, conditional(
                        key, conditionals(key)[case][0], version,
                        connection, method, encoding), 1.0 + turn).response
                    assert at_coop.body == at_home.body, step
                    assert VERSION_HEADER not in at_coop.headers, step
                    assert without(at_coop.serialize_head(), b"ETag:") == \
                        without(at_home.serialize_head(), b"ETag:",
                                VERSION_HEADER.encode()), step
                    assert at_coop.headers.get("ETag") == \
                        etag_for(key, 0), step
                    statuses.add(at_home.status)
    assert statuses == {200, 206, 304}
    shared = ("responses_200", "responses_206", "responses_304",
              "conditional_304s", "gzip_responses", "gzip_bytes_saved",
              "bytes_sent", "requests")
    assert {name: counters(coop)[name] for name in shared} == \
        {name: counters(home)[name] for name in shared}
    assert coop.stats.fast_hits == home.stats.fast_hits > 0


def test_replicas_on_a_home_record_change_no_answer():
    """The LDG never leaves replicas on a record located at home (fsck
    invariant 6), and ``_handle_local`` reads them only for a 301: a
    home copy carrying a replica set is answered byte for byte like one
    without, on either route, so the short-circuit need not ask."""
    unreplicated, replicated, by_fast = [make_engine() for __ in range(3)]
    for engine in (replicated, by_fast):
        for name in SITE:
            engine.graph.get(name).replicas.add(COOP_2)
    for engine in (unreplicated, replicated, by_fast):
        for step in SCRIPT:
            slow(engine, build(*step), 1.0)
    for path in ("/big.html", "/i.gif"):
        for name, (headers, status, short) in conditionals(path).items():
            for (version, connection), method, encoding in \
                    itertools.product(CONNECTIONS, ("GET", "HEAD"),
                                      ("gzip", None)):
                request = lambda: conditional(path, headers, version,
                                              connection, method, encoding)
                reply, took_it = twin_step(by_fast, replicated, request, 2.0)
                plain = slow(unreplicated, request(), 2.0)
                assert reply.response.serialize() == \
                    plain.response.serialize(), (path, name, method)
                assert took_it == short, (path, name, method)
    assert observed(replicated, 2.0) == observed(unreplicated, 2.0)


# -- a co-op's copies on the short-circuit --------------------------------

def key_of(name):
    return f"/~migrate/home/8001{name}"


PULLED, LEGACY = key_of("/p.html"), key_of("/legacy.html")
COOP_KEYS = [key_of(name) for name in sorted(SITE)] + [PULLED, LEGACY]


def coop_engine():
    """A co-op holding seeded copies of the whole site; its pulled
    copies arrive on first request."""
    config = ServerConfig(scrub_interval=1.0, scrub_budget=16,
                          stats_interval=1e6, pinger_interval=1e6,
                          validation_interval=1e9)
    coop = DCWSEngine(Location("coop", 8002), config, MemoryStore({}),
                      peers=[HOME])
    coop.initialize(0.0)
    for name, data in SITE.items():
        coop.seed_hosted(HOME, name, data, 3, 0.0)
    return coop


def home_answer(status, body=b"", version=None):
    """What the home sends back to a pull or a validation."""
    response = Response(status=status, body=body)
    if version is not None:
        response.headers.set(VERSION_HEADER, version)
        response.headers.set(DIGEST_HEADER, body_digest(body))
    if status == 301:
        response.headers.set("Location", "http://127.0.0.1:2/~migrate/x")
    return response


def coop_observed(engine, now):
    return (counters(engine),
            {key: (hosted.hits, hosted.fetched, hosted.version)
             for key, hosted in engine.hosted.items()},
            engine.metrics.cps(now), engine.metrics.bps(now))


def test_a_coops_copies_take_the_short_circuit_byte_for_byte():
    """Twin co-ops take one script, one by the short-circuit where it
    applies and one always by ``handle_request``: seeded, pulled and
    versionless copies, every conditional in every flavour, between a
    validation that refreshes a copy under its old version, one that
    bumps it, a scrub quarantine, a validation answered 301, and the
    re-pulls that follow.  Heads, bodies and books agree, and once a
    copy has changed no response carries one of its old heads."""
    by_fast, by_slow = coop_engine(), coop_engine()
    upstream = {PULLED: (200, b"<html>pulled</html>" * 20, "6"),
                LEGACY: (200, b"<html>legacy</html>" * 20, None)}
    clock = itertools.count(1)
    seen, retired = {}, {}      # key -> heads served / never to be again

    def through(engine, route, request, now):
        reply = route(engine, request, now)
        if isinstance(reply, PullFromHome):
            reply = engine.complete_pull(
                reply, home_answer(*upstream[reply.key]), now)
        return reply

    def step(make_request, key):
        now = float(next(clock))
        before = by_fast.stats.fast_hits
        quick = through(by_fast, serve, make_request(), now)
        full = through(by_slow, slow, make_request(), now)
        head, response = quick.response.serialize_head(), quick.response
        assert head == full.response.serialize_head(), key
        assert response.body == full.response.body, key
        assert quick.doc_name == full.doc_name == key
        assert coop_observed(by_fast, now) == coop_observed(by_slow, now), key
        assert by_slow.stats.fast_hits == 0
        assert head not in retired.get(key, ()), key
        assert VERSION_HEADER.encode() not in head
        if response.status == 200 and make_request().method == "GET":
            body = response.body
            if response.headers.get("Content-Encoding") == "gzip":
                body = gzip.decompress(body)
            assert body == by_fast.store.get(key), key   # the current bytes
        seen.setdefault(key, set()).add((response.status, head))
        return quick, by_fast.stats.fast_hits - before == 1

    def sweep(turn):
        for key in COOP_KEYS:
            for method in ("GET", "HEAD"):      # fill, or pull, what misses
                step(lambda: build(method, None, key), key)
            version = by_fast.hosted[key].version
            for case, (headers, status, short) in conditionals(
                    key, int(version or 0)).items():
                for (http, connection), method, encoding in \
                        itertools.product(CONNECTIONS[2:], ("GET", "HEAD"),
                                          ("gzip", None)):
                    where = (turn, key, case, http, connection, method,
                             encoding)
                    reply, took_it = step(lambda: conditional(
                        key, headers, http, connection, method, encoding),
                        key)
                    assert took_it == (short and version != ""), where
                    if version:
                        assert reply.response.status == (
                            200 if (method, status) == ("HEAD", 206)
                            else status), where
                    else:
                        assert reply.response.status != 304, where

    def retire(key, *, version_kept):
        """A copy changed: its old heads may not come back — but for its
        304s, which name nothing but the version."""
        retired[key] = retired.get(key, set()) | {
            head for status, head in seen.pop(key, ())
            if not (version_kept and status == 304)}

    def validated(key, answer):
        now = float(next(clock))
        for engine in (by_fast, by_slow):
            engine.complete_action(OutboundAction(
                kind="validate", peer=HOME, key=key, request=Request(
                    method="GET", target=engine.hosted[key].original)),
                answer, now)

    big, image = key_of("/big.html"), key_of("/i.gif")
    sweep(0)
    assert by_fast.stats.fast_hits > 0
    revised = SITE["/big.html"].replace(b"lorem", b"LOREM ")
    validated(big, home_answer(200, revised, "3"))      # version kept
    retire(big, version_kept=True)
    sweep(1)
    validated(big, home_answer(200, revised + b"<p>again</p>", "4"))
    retire(big, version_kept=False)
    sweep(2)
    now = float(next(clock))
    for engine in (by_fast, by_slow):                   # bit rot, scrubbed
        engine.store.put(image, SITE["/i.gif"].replace(b"x", b"y", 1))
        engine.tick(now)
        assert engine.integrity.is_quarantined(image)
        assert not engine.hosted[image].fetched
    retire(image, version_kept=False)
    upstream[image] = (200, b"GIF89a" + b"z" * 400, "5")
    sweep(3)                                            # re-pulled
    assert not by_fast.integrity.is_quarantined(image)
    validated(PULLED, home_answer(301))                 # no longer ours
    assert PULLED not in by_fast.hosted and PULLED not in by_slow.hosted
    retire(PULLED, version_kept=False)
    upstream[PULLED] = (200, b"<html>pulled again</html>" * 20, "8")
    sweep(4)                                            # re-pulled
    assert {key: by_fast.hosted[key].version for key in (big, image, PULLED)} \
        == {big: "4", image: "5", PULLED: "8"}
    assert by_fast.stats.pulls_completed == 4 and by_fast.stats.fast_hits > 0


# -- what one warm cached GET asks of its messages --------------------------

def counted(monkeypatch, owner, name, calls):
    """Count calls of ``owner.name`` (the wrapper style of
    ``tests/test_zero_copy.py``), keyed by the name."""
    original = getattr(owner, name)

    def counting(self, *args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def assert_cold_parse_asks_once(monkeypatch, raw):
    """The first parse of *raw* in this process works out its facts
    once; every later parse of the same bytes takes them from the
    head memo."""
    _parsed_head.cache_clear()          # whatever parsed these bytes before
    calls = {}
    with monkeypatch.context() as patch:
        counted(patch, _Facts, "__init__", calls)
        parser = RequestParser()
        parser.feed(raw)
        assert parser.next_request().headers.facts().keep_alive
    assert calls == {"__init__": 1}, calls


def count_messages(monkeypatch, calls):
    """Count what a turn builds: responses, field-list copies, requests."""
    counted(monkeypatch, Response, "__init__", calls)
    counted(monkeypatch, Headers, "copy", calls)
    counted(monkeypatch, Request, "__post_init__", calls)


def test_one_warm_cached_get_asks_its_fields_once(monkeypatch):
    """Parse and ``_engine_dispatch`` for one warm cached GET, the turn
    both front ends run: before the facts record this was 8
    ``Headers.get``, 4 ``get_all`` and ``Connection`` interpreted three
    times.  Now the request's facts are worked out once, when its head
    is first parsed (the head memo keeps them, so a warm head's turn
    works out none), and the response's not at all — its head bytes
    were kept whole.  Nor does a warm turn, a GET's or a 304's, build a
    ``Request``, a ``Response`` or a copy of any field list: the answer
    is the kept head bytes and the cached body object."""
    engine = make_engine()
    host = AsyncDCWSServer(engine)      # never started: no sockets
    raw = (b"GET /big.html HTTP/1.1\r\nHost: h\r\n"
           b"Accept-Encoding: gzip\r\nConnection: keep-alive\r\n\r\n")
    parser = RequestParser()

    def turn(now, raw=raw):
        parser.feed(raw)
        head, body = parser.next_head()
        return host._engine_dispatch(head, now, body=body, served=3)

    assert_cold_parse_asks_once(monkeypatch, raw)
    filled = turn(1.0).response         # the cache fill, by the slow route
    turn(2.0)                           # the flavour's first short-circuit
    calls = {}
    counted(monkeypatch, Headers, "get", calls)
    counted(monkeypatch, Headers, "get_all", calls)
    counted(monkeypatch, _Facts, "__init__", calls)
    count_messages(monkeypatch, calls)
    fast_hits = engine.stats.fast_hits
    head, body, persists = turn(3.0)
    assert engine.stats.fast_hits == fast_hits + 1
    assert calls.get("get", 0) <= 2, calls
    assert calls.get("get_all", 0) <= 1, calls    # Content-Length, strictly
    assert calls.get("__init__", 0) == 0, calls   # nothing built, no facts
    assert "copy" not in calls and "__post_init__" not in calls, calls
    assert persists
    assert b"Content-Encoding: gzip" in head
    assert b"Connection: keep-alive" in head
    # What went out is the kept head itself and the cached variant.
    (cached,) = [entry for entry in cache_entries(engine)
                 if entry.gzip_body is not None and entry.framed]
    assert head is cached.framed[(True, True)] and body is cached.gzip_body
    # The same holds for a 304 off the rendition.
    conditional_raw = raw[:-2] + b"If-None-Match: " + \
        filled.headers.get("ETag").encode() + b"\r\n\r\n"
    turn(4.0, conditional_raw)          # the 304's first, rendered
    calls.clear()
    head, body, persists = turn(5.0, conditional_raw)
    assert head.split()[1] == b"304" and body == b"" and persists
    assert head is cached.not_modified[True]
    assert calls.get("get", 0) <= 1, calls        # If-None-Match
    assert not {"__init__", "copy", "__post_init__"} & set(calls), calls


def test_one_warm_hosted_get_asks_its_fields_once(monkeypatch):
    """A co-op's warm GET of a hosted copy costs what a home's does: it
    never reaches ``handle_request`` or ``_serve_copy``, asks the
    request's fields once (at the head's first parse), builds no
    message, and books its hit on the hosted entry."""
    coop = coop_engine()
    host = AsyncDCWSServer(coop)        # never started: no sockets
    key = key_of("/big.html")
    raw = (f"GET {key} HTTP/1.1\r\nHost: h\r\nAccept-Encoding: gzip\r\n"
           f"Connection: keep-alive\r\n\r\n").encode()
    parser = RequestParser()

    def turn(now):
        parser.feed(raw)
        head, body = parser.next_head()
        return host._engine_dispatch(head, now, body=body, served=3)

    assert_cold_parse_asks_once(monkeypatch, raw)
    turn(1.0)                           # the cache fill, by the slow route
    turn(2.0)                           # the flavour's first short-circuit
    calls = {}
    for owner, name in ((Headers, "get"), (Headers, "get_all"),
                        (_Facts, "__init__"), (DCWSEngine, "handle_request"),
                        (DCWSEngine, "_serve_copy")):
        counted(monkeypatch, owner, name, calls)
    count_messages(monkeypatch, calls)
    fast_hits, hits = coop.stats.fast_hits, coop.hosted[key].hits
    head, body, persists = turn(3.0)
    assert coop.stats.fast_hits == fast_hits + 1
    assert coop.hosted[key].hits == hits + 1 and persists
    assert "handle_request" not in calls and "_serve_copy" not in calls
    assert calls.get("get", 0) <= 2, calls
    assert calls.get("get_all", 0) <= 1, calls    # Content-Length, strictly
    assert calls.get("__init__", 0) == 0, calls   # nothing built, no facts
    assert "copy" not in calls and "__post_init__" not in calls, calls
    assert b"Content-Encoding: gzip" in head
    assert b"Connection: keep-alive" in head
    assert VERSION_HEADER.encode() not in head
    assert body is coop.response_cache.peek(key).gzip_body
