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
import itertools
import re
import socket

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
from repro.http.messages import Request, Response, parse_request
from repro.http.wire import RequestParser
from repro.server.aio import AsyncDCWSServer
from repro.server.engine import (
    DCWSEngine,
    EngineReply,
    PURPOSE_HEADER,
    PullFromHome,
    VERSION_HEADER,
)
from repro.server.filestore import MemoryStore
from repro.server.threaded import ThreadedDCWSServer
from tests.integration.test_real_servers import free_port

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
    return [entry for shard in engine.response_cache._shards
            for entry in shard.entries.values()]


def test_memoised_heads_match_the_slow_route_on_first_use_and_reuse():
    by_fast, by_slow = make_engine(), make_engine()
    warm = {step: slow(by_fast, build(*step), 1.0) for step in SCRIPT}
    for step in SCRIPT:
        slow(by_slow, build(*step), 1.0)
    assert not any(entry.framed for entry in cache_entries(by_fast))
    passes = []
    for turn in range(2):       # first use renders, second use copies
        passes.append([
            (fast(by_fast, flavoured(*step), 2.0 + turn),
             slow(by_slow, flavoured(*step), 2.0 + turn))
            for step in FLAVOURED])
        if turn == 0:
            blocks = {id(entry): dict(entry.framed)
                      for entry in cache_entries(by_fast)}
    for step, (first, full), (again, full_again) in zip(FLAVOURED, *passes):
        head = full.response.serialize_head()
        assert first.response.serialize_head() == head, step
        assert again.response.serialize_head() == head, step
        assert full_again.response.serialize_head() == head, step
        assert DIGEST_HEADER.encode() + b": sha256:" in head, step
        # One body object per variant: the one the cache fill produced.
        assert first.response.body is warm[step[2:]].response.body, step
        assert again.response.body is first.response.body, step
        assert first.response.body == full.response.body, step
        assert first.response.headers is not again.response.headers
    assert counters(by_fast) == counters(by_slow)
    entries = cache_entries(by_fast)
    assert any(entry.framed for entry in entries)
    for entry in entries:
        assert len(entry.framed) <= 4
        # The second pass copied: the kept blocks are the first pass's,
        # and no reply was handed one of them.
        assert entry.framed == blocks[id(entry)]
        assert all(entry.framed[key] is block
                   for key, block in blocks[id(entry)].items())
        handed_out = {id(reply.response.headers)
                      for replies in passes for reply, __ in replies}
        assert not handed_out & {id(block)
                                 for block in entry.framed.values()}
    # The slow route never fills the memo.
    assert not any(entry.framed for entry in cache_entries(by_slow))


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


def validators(reply):
    headers = reply.response.headers
    return {name: headers.get(name)
            for name in ("ETag", DIGEST_HEADER, VERSION_HEADER,
                         "Content-Length", "Last-Modified")}


def fast_twice(engine, request, now):
    """The memo's fill and its first copy; they must read the same."""
    first, again = fast(engine, request(), now), fast(engine, request(),
                                                      now + 0.1)
    assert first.response.serialize_head() == \
        again.response.serialize_head()
    assert first.response.body is again.response.body
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
        assert after.response.serialize_head() == \
            regenerated.response.serialize_head()
        assert after.response.body is regenerated.response.body
        record = engine.graph.get("/index.html")
        assert validators(after) == {
            "ETag": etag_for("/index.html", record.version),
            DIGEST_HEADER: body_digest(after.response.body),
            VERSION_HEADER: str(record.version),
            "Content-Length": str(len(after.response.body)),
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
    assert after.response.serialize_head() == \
        repaired.response.serialize_head()
    body = after.response.body
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
    """A co-op's ``~migrate`` keys never take the fast route, so a pull
    that re-installs a hosted copy has only the cache entry to drop."""
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
    for turn, body in enumerate((b"<html>one</html>", b"<html>two!</html>")):
        install(body, str(turn + 4), 1.0 + turn)
        assert coop.fast_lookup(build("GET", None, key), 1.5 + turn) is None
        served = [slow(coop, build("GET", None, key), 1.5 + turn)
                  for __ in range(2)]
        assert served[0].response.serialize_head() == \
            served[1].response.serialize_head()
        assert served[1].response.body == body
        assert validators(served[1])["ETag"] == etag_for(key, str(turn + 4))
        assert validators(served[1])[DIGEST_HEADER] == body_digest(body)
        assert validators(served[1])["Content-Length"] == str(len(body))
        heads.append(served[1].response.serialize_head())
    assert heads[0] != heads[1]
    assert not any(entry.framed for entry in cache_entries(coop))


# -- conditional requests: the 304 short-circuit ---------------------------

COOP_2 = Location("127.0.0.1", 2)


def dispatch(engine, request, now):
    """``SocketHost._engine_dispatch`` without the lock: the
    short-circuit where it applies, the slow path where it does not."""
    hit = engine.fast_lookup(request, now)
    if hit is not None:
        return engine.fast_commit(hit, request, now)
    return engine.handle_request(request, now)


def observed(engine):
    """Everything a request may move, whichever route served it."""
    return (counters(engine),
            {record.name: record.hits for record in engine.graph.documents()},
            engine.metrics.connections.lifetime_count,
            engine.metrics.bytes.lifetime_total,
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
    quick = dispatch(by_fast, make_request(), now)
    full = slow(by_slow, make_request(), now)
    assert quick.response.serialize() == full.response.serialize()
    assert quick.doc_name == full.doc_name
    assert observed(by_fast) == observed(by_slow)
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
        assert set(by_fast._renditions[path].not_modified) == {True, False}
    # The slow route frames 304s through the same builder and memo.
    assert set(by_slow._renditions["/big.html"].not_modified) == {True, False}


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


def gated_engine():
    config = ServerConfig(entry_gate_secret="s3cret")
    engine = DCWSEngine(HOME, config, MemoryStore(dict(HOSTED)),
                        entry_points=["/index.html"], peers=[COOP])
    engine.initialize(0.0)
    return engine


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
        engine.policy.repair_replica("/d.html", COOP_2, 4.5)
    assert by_fast.graph.get("/d.html").replicas
    revalidate("/d.html", 5.0, everywhere(301))
    # Quarantined with nothing to regenerate from: 503 — its rendition,
    # 304 blocks included, is still there and must not answer.
    for engine in twins:
        engine.store.put("/i.gif", SITE["/i.gif"].replace(b"x", b"y", 1))
        engine.tick(6.0)
        assert engine.integrity.is_quarantined("/i.gif")
        assert engine._renditions["/i.gif"].not_modified
    revalidate("/i.gif", 6.5, everywhere(503))
    # Entry-gated: every request takes the slow path; an entry point
    # revalidates, a deep link without the cookie is sent to the door.
    by_fast, by_slow = gated_engine(), gated_engine()
    revalidate("/index.html", 7.0, clean)
    revalidate("/big.html", 7.5, everywhere(302))
    assert by_fast.stats.fast_hits == 0


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
                    at_home = dispatch(home, conditional(
                        name, conditionals(name)[case][0], version,
                        connection, method, encoding), 1.0 + turn).response
                    at_coop = dispatch(coop, conditional(
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
    assert coop.stats.fast_hits == 0 < home.stats.fast_hits


# -- what one warm cached GET asks of its messages --------------------------

def counted(monkeypatch, owner, name, calls):
    """Count calls of ``owner.name`` (the wrapper style of
    ``tests/test_zero_copy.py``), keyed by the name."""
    original = getattr(owner, name)

    def counting(self, *args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def test_one_warm_cached_get_asks_its_fields_once(monkeypatch):
    """Parse, ``_engine_dispatch``, ``_settle_keep_alive`` and
    ``serialize_head`` for one warm cached GET: before the facts record
    this was 8 ``Headers.get``, 4 ``get_all`` and ``Connection``
    interpreted three times.  Now the request's facts are worked out
    once, and the response's not at all — its block was stored with
    them, and a copy starts with its original's."""
    engine = make_engine()
    host = AsyncDCWSServer(engine)      # never started: no sockets
    raw = (b"GET /big.html HTTP/1.1\r\nHost: h\r\n"
           b"Accept-Encoding: gzip\r\nConnection: keep-alive\r\n\r\n")
    parser = RequestParser()

    def turn(now):
        parser.feed(raw)
        request = parser.next_request()
        reply = host._engine_dispatch(request, now)
        assert host._settle_keep_alive(3, request, reply.response)
        return request, reply, reply.response.serialize_head()

    turn(1.0)                           # the cache fill, by the slow route
    turn(2.0)                           # the flavour's first short-circuit
    calls = {}
    counted(monkeypatch, Headers, "get", calls)
    counted(monkeypatch, Headers, "get_all", calls)
    counted(monkeypatch, _Facts, "__init__", calls)
    fast_hits = engine.stats.fast_hits
    request, reply, head = turn(3.0)
    assert engine.stats.fast_hits == fast_hits + 1
    assert calls.get("get", 0) <= 2, calls
    assert calls.get("get_all", 0) <= 1, calls    # Content-Length, strictly
    assert calls.get("__init__", 0) == 1, calls   # the request's, once
    assert b"Content-Encoding: gzip" in head
    assert b"Connection: keep-alive" in head
    # A copy of a stored block arrives with its facts filled in.
    (cached,) = [entry for entry in cache_entries(engine)
                 if entry.gzip_body is not None and entry.framed]
    for block in cached.framed.values():
        calls.clear()
        copy = block.copy()
        assert copy.facts() is block.facts() and copy.facts().framed
        assert "__init__" not in calls
    # The same holds for a 304 off the rendition.
    conditional_raw = raw[:-2] + b"If-None-Match: " + \
        reply.response.headers.get("ETag").encode() + b"\r\n\r\n"
    for now in (4.0, 5.0):
        parser.feed(conditional_raw)
        request = parser.next_request()
        calls.clear()
        not_modified = host._engine_dispatch(request, now).response
        assert not_modified.status == 304
        host._settle_keep_alive(3, request, not_modified)
        not_modified.serialize_head()
    assert calls.get("__init__", 0) == 1, calls
