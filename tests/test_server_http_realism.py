"""Engine-level tests for serve-path HTTP realism: client-validator
conditional GETs (304 off the response cache with zero store reads), gzip
variants, single-range 206/416, and tiered overload shedding."""

import gzip

from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.http.content import etag_for, last_modified_for
from repro.http.messages import Request
from repro.server.engine import DCWSEngine, EngineReply, PullFromHome
from repro.server.filestore import MemoryStore

HOME = Location("home", 8001)
COOP = Location("coop", 8002)

BIG_PAGE = (b'<html><a href="/d.html">D</a>'
            + b"<p>lorem ipsum dolor sit amet</p>" * 64 + b"</html>")

SITE = {
    "/index.html": b'<html><a href="d.html">D</a></html>',
    "/d.html": BIG_PAGE,
    "/i.gif": b"GIF89a" + b"x" * 2048,
}


class CountingStore(MemoryStore):
    """A store that counts document reads, to prove 304s never touch it."""

    def __init__(self, initial=None):
        super().__init__(initial)
        self.reads = 0

    def get(self, name):
        self.reads += 1
        return super().get(name)


def make_engine(site=None, store=None, **config_kwargs):
    config_kwargs.setdefault("stats_interval", 1.0)
    config = ServerConfig(**config_kwargs)
    if store is None:
        store = MemoryStore(site if site is not None else SITE)
    engine = DCWSEngine(HOME, config, store,
                        entry_points=["/index.html"], peers=(COOP,))
    engine.initialize(0.0)
    return engine


def get(engine, path, now=1.0, headers=None, method="GET"):
    request = Request(method=method, target=path)
    if headers:
        for name, value in headers.items():
            request.headers.set(name, value)
    reply = engine.handle_request(request, now)
    assert isinstance(reply, EngineReply)
    return reply.response


class TestValidatorsOn200:
    def test_200_carries_etag_and_last_modified(self):
        response = get(make_engine(), "/d.html")
        assert response.status == 200
        assert response.headers.get("ETag") == etag_for("/d.html", 0)
        assert response.headers.get("Last-Modified") == last_modified_for(0)
        assert response.headers.get("Accept-Ranges") == "bytes"

    def test_head_carries_validators_without_body(self):
        response = get(make_engine(), "/d.html", method="HEAD")
        assert response.status == 200
        assert response.body == b""
        assert response.headers.get("ETag") == etag_for("/d.html", 0)

    def test_update_changes_both_validators(self):
        engine = make_engine()
        before = get(engine, "/d.html")
        engine.update_document("/d.html", b"<html>new</html>")
        engine.regenerate_dirty()
        after = get(engine, "/d.html", now=2.0)
        assert after.headers.get("ETag") != before.headers.get("ETag")
        assert after.headers.get("Last-Modified") != \
            before.headers.get("Last-Modified")


class TestConditionalGet:
    def test_if_none_match_returns_304(self):
        engine = make_engine()
        first = get(engine, "/d.html")
        second = get(engine, "/d.html", now=2.0,
                     headers={"If-None-Match": first.headers.get("ETag")})
        assert second.status == 304
        assert second.body == b""
        assert second.headers.get("ETag") == first.headers.get("ETag")
        assert engine.stats.conditional_304s == 1

    def test_304_reads_nothing_from_the_store(self):
        store = CountingStore(SITE)
        engine = make_engine(store=store)
        etag = get(engine, "/d.html").headers.get("ETag")
        reads_after_fill = store.reads
        for step in range(5):
            response = get(engine, "/d.html", now=2.0 + step,
                           headers={"If-None-Match": etag})
            assert response.status == 304
        assert store.reads == reads_after_fill

    def test_if_modified_since_returns_304(self):
        engine = make_engine()
        first = get(engine, "/d.html")
        second = get(engine, "/d.html", now=2.0, headers={
            "If-Modified-Since": first.headers.get("Last-Modified")})
        assert second.status == 304

    def test_stale_validator_after_update_gets_200(self):
        engine = make_engine()
        etag = get(engine, "/d.html").headers.get("ETag")
        engine.update_document("/d.html", b"<html>edited</html>")
        engine.regenerate_dirty()
        response = get(engine, "/d.html", now=2.0,
                       headers={"If-None-Match": etag})
        assert response.status == 200
        assert response.body == b"<html>edited</html>"

    def test_peer_version_header_still_works(self):
        engine = make_engine()
        response = get(engine, "/d.html", headers={"X-DCWS-Version": "0"})
        assert response.status == 304
        assert engine.stats.conditional_304s == 0  # peer path, not client


class TestGzip:
    def test_negotiated_gzip_round_trips(self):
        engine = make_engine()
        identity = get(engine, "/d.html")
        compressed = get(engine, "/d.html", now=2.0,
                         headers={"Accept-Encoding": "gzip"})
        assert compressed.headers.get("Content-Encoding") == "gzip"
        assert compressed.headers.get("Vary") == "Accept-Encoding"
        assert gzip.decompress(compressed.body) == identity.body
        assert len(compressed.body) < len(identity.body)
        assert int(compressed.headers.get("Content-Length")) == \
            len(compressed.body)
        assert engine.stats.gzip_responses == 1
        assert engine.stats.gzip_bytes_saved == \
            len(identity.body) - len(compressed.body)

    def test_identity_response_still_varies(self):
        # A compressed variant exists, so even the identity answer must
        # carry Vary or a shared cache would poison one encoding with
        # the other.
        response = get(make_engine(), "/d.html")
        assert response.headers.get("Vary") == "Accept-Encoding"
        assert response.headers.get("Content-Encoding") is None

    def test_incompressible_content_not_gzipped(self):
        response = get(make_engine(), "/i.gif",
                       headers={"Accept-Encoding": "gzip"})
        assert response.headers.get("Content-Encoding") is None
        assert response.headers.get("Vary") is None

    def test_small_bodies_not_gzipped(self):
        response = get(make_engine(), "/index.html",
                       headers={"Accept-Encoding": "gzip"})
        assert response.headers.get("Content-Encoding") is None

    def test_q_zero_refuses_gzip(self):
        response = get(make_engine(), "/d.html",
                       headers={"Accept-Encoding": "gzip;q=0"})
        assert response.headers.get("Content-Encoding") is None


class TestRange:
    def test_closed_range_206(self):
        engine = make_engine()
        full = get(engine, "/d.html").body
        response = get(engine, "/d.html", now=2.0,
                       headers={"Range": "bytes=0-9"})
        assert response.status == 206
        assert response.body == full[:10]
        assert response.headers.get("Content-Range") == \
            f"bytes 0-9/{len(full)}"
        assert int(response.headers.get("Content-Length")) == 10
        assert engine.stats.responses_206 == 1

    def test_suffix_range(self):
        engine = make_engine()
        full = get(engine, "/d.html").body
        response = get(engine, "/d.html", now=2.0,
                       headers={"Range": "bytes=-20"})
        assert response.status == 206
        assert response.body == full[-20:]

    def test_range_wins_over_gzip(self):
        # Ranges address the identity representation; mixing them with a
        # compressed transfer would make offsets ambiguous.
        engine = make_engine()
        full = get(engine, "/d.html").body
        response = get(engine, "/d.html", now=2.0, headers={
            "Range": "bytes=0-9", "Accept-Encoding": "gzip"})
        assert response.status == 206
        assert response.headers.get("Content-Encoding") is None
        assert response.body == full[:10]

    def test_unsatisfiable_range_416(self):
        engine = make_engine()
        size = len(get(engine, "/d.html").body)
        response = get(engine, "/d.html", now=2.0,
                       headers={"Range": f"bytes={size + 5}-"})
        assert response.status == 416
        assert response.headers.get("Content-Range") == f"bytes */{size}"
        assert response.body == b""
        assert engine.stats.responses_416 == 1

    def test_malformed_range_ignored(self):
        response = get(make_engine(), "/d.html",
                       headers={"Range": "bytes=5-2"})
        assert response.status == 200

    def test_if_none_match_beats_range(self):
        engine = make_engine()
        etag = get(engine, "/d.html").headers.get("ETag")
        response = get(engine, "/d.html", now=2.0, headers={
            "If-None-Match": etag, "Range": "bytes=0-9"})
        assert response.status == 304


class TestTieredShedding:
    def test_dirty_regeneration_shed_under_overload(self):
        engine = make_engine()
        # /index.html's link target moved: serving it needs a splice.
        engine.policy.force_migrate("/d.html", COOP, now=0.5)
        engine.overloaded = True
        response = get(engine, "/index.html")
        assert response.status == 503
        assert response.headers.get("Retry-After") == "1"
        assert engine.stats.regenerations_shed == 1

    def test_a_save_whose_links_stay_home_is_served_under_overload(self):
        engine = make_engine()
        engine.update_document("/d.html", BIG_PAGE)  # dirty, nothing moved
        engine.overloaded = True
        response = get(engine, "/d.html")
        assert response.status == 200
        assert response.body == BIG_PAGE
        assert engine.stats.regenerations_shed == 0
        assert not engine.graph.get("/d.html").dirty

    def test_clean_document_served_under_overload(self):
        engine = make_engine()
        engine.overloaded = True
        assert get(engine, "/d.html").status == 200

    def test_304_served_under_overload(self):
        engine = make_engine()
        etag = get(engine, "/d.html").headers.get("ETag")
        engine.overloaded = True
        response = get(engine, "/d.html", now=2.0,
                       headers={"If-None-Match": etag})
        assert response.status == 304

    def test_unfetched_pull_shed_under_overload(self):
        coop = make_coop()
        key = f"/~migrate/{HOME.host}/{HOME.port}/d.html"
        coop.overloaded = True
        response = get(coop, key)
        assert response.status == 503
        assert coop.stats.pulls_shed == 1

    def test_fetched_copy_served_under_overload(self):
        coop, key = make_fetched_coop()
        coop.overloaded = True
        assert get(coop, key).status == 200


def make_coop():
    coop = DCWSEngine(COOP, ServerConfig(), MemoryStore({}), peers=(HOME,))
    coop.initialize(0.0)
    return coop


def make_fetched_coop():
    """A co-op whose hosted copy of /d.html has already been pulled."""
    coop = make_coop()
    home = make_engine()
    home.policy.force_migrate("/d.html", COOP, 0.4)
    key = f"/~migrate/{HOME.host}/{HOME.port}/d.html"
    pull = coop.handle_request(Request("GET", key), 0.5)
    assert isinstance(pull, PullFromHome)
    upstream = home.handle_request(pull.request, 0.6)
    coop.complete_pull(pull, upstream.response, 0.7)
    return coop, key


class TestCoopValidators:
    def test_hosted_copy_serves_validators(self):
        coop, key = make_fetched_coop()
        version = coop.hosted[key].version
        response = get(coop, key)
        assert response.status == 200
        assert response.headers.get("ETag") == etag_for(key, version)
        assert response.headers.get("Last-Modified") == \
            last_modified_for(version)

    def test_hosted_copy_conditional_304(self):
        coop, key = make_fetched_coop()
        etag = get(coop, key).headers.get("ETag")
        response = get(coop, key, now=2.0, headers={"If-None-Match": etag})
        assert response.status == 304
        assert coop.stats.conditional_304s == 1

    def test_hosted_copy_gzip(self):
        coop, key = make_fetched_coop()
        identity = get(coop, key)
        response = get(coop, key, now=2.0,
                       headers={"Accept-Encoding": "gzip"})
        assert response.headers.get("Content-Encoding") == "gzip"
        assert gzip.decompress(response.body) == identity.body
