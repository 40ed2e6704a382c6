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
from repro.http.content import DIGEST_HEADER, body_digest, etag_for
from repro.http.messages import Request, Response, parse_request
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
    assert dataclasses.asdict(by_fast.stats) == \
        dataclasses.asdict(by_slow.stats)
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
    assert dataclasses.asdict(by_fast.stats) == \
        dataclasses.asdict(by_slow.stats)
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


def test_a_reply_cannot_reach_the_next_one():
    engine = make_engine()
    request = lambda: flavoured("HTTP/1.1", None, "GET", "gzip", "/big.html")
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
    counters = dataclasses.asdict(engine.stats)
    del counters["decisions"]
    return wires, counters, cleaned


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
    for __, counters, cleaned in (bare, threaded, aio):
        assert counters == bare[1]
        assert counters["reconstructions"] == cleaned == 2
