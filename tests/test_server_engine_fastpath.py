"""The cached-read short-circuit is observationally identical to the
slow path, and every host is observationally identical to the engine.

``fast_lookup`` + ``fast_commit`` is a second route through the engine
for plain cached GET/HEADs.  Twin engines take the same request script,
one through each route; heads, bodies and every counter must agree.

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
from repro.http.content import etag_for
from repro.http.messages import Request, parse_request
from repro.server.aio import AsyncDCWSServer
from repro.server.engine import DCWSEngine, EngineReply
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


# (what happens first under the host's lock, method, path, headers)
HOST_SCRIPT = [
    (None, "GET", "/index.html", {}),           # cache fill
    (None, "GET", "/index.html", {}),           # short-circuit hit
    (None, "HEAD", "/index.html", {}),
    (None, "GET", "/big.html", {"Accept-Encoding": "gzip"}),
    (None, "GET", "/big.html", {"If-None-Match": etag_for("/big.html", 0)}),
    (None, "GET", "/big.html", {"Range": "bytes=6-25"}),
    (migrate_d, "GET", "/index.html", {}),      # dirtied referrer
    (None, "GET", "/d.html", {}),               # the migrated document
    (update_index, "GET", "/index.html", {}),   # right after an update
    (None, "GET", "/index.html", {}),           # clean and cached again
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
