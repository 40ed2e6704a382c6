"""The cached-read short-circuit is observationally identical to the
slow path.

``fast_lookup`` + ``fast_commit`` is a second route through the engine
for plain cached GET/HEADs.  Twin engines take the same request script,
one through each route; heads, bodies and every counter must agree.
"""

import dataclasses
import itertools

from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.http.messages import Request
from repro.server.engine import DCWSEngine
from repro.server.filestore import MemoryStore

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
