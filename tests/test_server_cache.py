"""Unit tests for the serve path's copy cache.

One :class:`~repro.server.cache.CopyCache` holds every stored copy the
serve path reads — bytes, gzip variant, validators and framed heads —
under one LRU and one byte budget.  The first three classes pin the
cache on its own: its byte bound, its reads through the engine's store,
and its stamp; the last pins it inside the engine.
"""

import pytest

from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.errors import DocumentNotFound
from repro.html.rewriter import rewrite_html
from repro.http.messages import Request
from repro.http.messages import Response
from repro.server.cache import CopyCache, CopyEntry
from repro.server.engine import (
    DCWSEngine,
    EngineReply,
    OutboundAction,
)
from repro.server.filestore import DiskStore, MemoryStore

HOME = Location("home", 8001)
COOP = Location("coop", 8002)

SITE = {
    "/index.html": b'<html><a href="d.html">D</a><a href="e.html">E</a>'
                   b'<img src="i.gif"></html>',
    "/d.html": b'<html><a href="e.html">E</a></html>',
    "/e.html": b"<html>leaf</html>",
    "/i.gif": b"GIF89a" + b"x" * 100,
}


def make_engine(location=HOME, site=None, peers=(COOP,), store=None,
                **config_kwargs):
    config_kwargs.setdefault("stats_interval", 1.0)
    config_kwargs.setdefault("migration_hit_threshold", 1.0)
    config = ServerConfig(**config_kwargs)
    if store is None:
        store = MemoryStore(site if site is not None else SITE)
    engine = DCWSEngine(location, config, store,
                        entry_points=["/index.html"], peers=peers)
    engine.initialize(0.0)
    return engine


def get(engine, path, now=1.0, headers=None, method="GET"):
    request = Request(method=method, target=path)
    if headers:
        for name, value in headers.items():
            request.headers.set(name, value)
    return engine.handle_request(request, now)


def entry(body=b"data", version=1, gzip_body=None, methods=("GET",),
          digest=""):
    return CopyEntry(version, digest, body, "text/html", '"e"', "lm",
                     gzip_body=gzip_body, methods=frozenset(methods))


def counting_reads(engine):
    """Record every read of the engine's store."""
    reads = []
    read = engine.store.get
    engine.store.get = lambda name: reads.append(name) or read(name)
    return reads


class TestLRUByteCache:
    """The one byte budget: identity plus variant bytes, one LRU."""

    def test_get_put_and_counters(self):
        cache = CopyCache(1024)
        assert cache.get("/a", 1, "GET") is None
        cache.put("/a", entry(b"xyz"))
        assert cache.get("/a", 1, "GET").body == b"xyz"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_evicts_least_recently_used(self):
        cache = CopyCache(10)
        cache.put("/a", entry(b"aaaa"))
        cache.put("/b", entry(b"bb", gzip_body=b"BB"))   # 4 bytes too
        cache.get("/a", 1, "GET")       # /b is now the LRU entry
        cache.put("/c", entry(b"cccc"))  # 12 bytes > 10: evict /b
        assert cache.get("/a", 1, "GET").body == b"aaaa"
        assert cache.get("/b", 1, "GET") is None
        assert cache.get("/c", 1, "GET").body == b"cccc"
        assert cache.stats.evictions == 1
        assert cache.used_bytes == 8 <= cache.budget

    def test_oversized_value_not_cached(self):
        cache = CopyCache(4)
        cache.put("/big", entry(b"x" * 10))
        cache.put("/pair", entry(b"xxx", gzip_body=b"yy"))  # 5 > 4
        assert cache.get("/big", 1, "GET") is None
        assert cache.get("/pair", 1, "GET") is None
        assert len(cache) == 0 and cache.used_bytes == 0

    def test_zero_capacity_disables_storage(self):
        cache = CopyCache(0)
        cache.put("/a", entry(b""))
        assert cache.get("/a", 1, "GET") is None
        assert len(cache) == 0

    def test_invalidate_and_counter(self):
        cache = CopyCache(1024)
        cache.put("/a", entry(b"a"))
        cache.invalidate("/a")
        cache.invalidate("/missing")    # no-op, still counted once below
        assert cache.get("/a", 1, "GET") is None
        assert cache.stats.invalidations == 1
        assert cache.used_bytes == 0

    def test_replacing_entry_adjusts_used_bytes(self):
        cache = CopyCache(1024)
        cache.put("/a", entry(b"aaaa", gzip_body=b"zz"))
        cache.put("/a", entry(b"aa", version=2))
        assert cache.used_bytes == 2 and len(cache) == 1
        assert cache.get("/a", 2, "GET").body == b"aa"


class TestCachingStore:
    """The engine reads its own store; the copy cache sits in front of
    every serve-path read, home or hosted."""

    def test_get_fills_and_hits(self):
        engine = make_engine()
        reads = counting_reads(engine)
        for now in (1.0, 2.0):
            assert get(engine, "/e.html", now).response.body == \
                SITE["/e.html"]
        assert reads == ["/e.html"]
        assert engine.response_cache.stats.misses == 1
        assert engine.response_cache.stats.hits == 1
        assert engine.cache_counters()["byte_cache"] == {"hits": 1,
                                                         "misses": 1}

    def test_put_updates_cache_and_inner(self):
        engine = make_engine()
        get(engine, "/i.gif")
        engine.update_document("/i.gif", b"GIF89a new")
        assert "/i.gif" not in engine.response_cache
        assert engine.store.get("/i.gif") == b"GIF89a new"
        reads = counting_reads(engine)
        assert get(engine, "/i.gif", 2.0).response.body == b"GIF89a new"
        assert reads == ["/i.gif"]

    def test_delete_invalidates(self):
        coop = make_engine(location=COOP, site={}, peers=(HOME,))
        coop.seed_hosted(HOME, "/e.html", SITE["/e.html"], 3, 0.0)
        key = "/~migrate/home/8001/e.html"
        assert get(coop, key).response.body == SITE["/e.html"]
        assert key in coop.response_cache
        coop.complete_action(OutboundAction(
            kind="validate", peer=HOME, key=key,
            request=Request(method="GET", target="/e.html")),
            Response(status=404), 5.0)
        assert key not in coop.response_cache
        with pytest.raises(DocumentNotFound):
            coop.store.get(key)

    def test_contains_and_names_delegate(self):
        store = MemoryStore({"/a": b"data"})
        engine = make_engine(site={"/a": b"data"}, store=store)
        assert engine.store is store            # nothing wrapped
        assert "/a" in engine.store and "/b" not in engine.store
        assert engine.store.names() == ["/a"]
        get(engine, "/a")
        # Membership and peeks book nothing.
        before = engine.response_cache.stats.as_dict()
        assert "/a" in engine.response_cache
        assert engine.response_cache.peek("/a").body == b"data"
        assert engine.response_cache.stats.as_dict() == before


class TestStoreContains:
    def test_disk_store_contains_without_listing(self, tmp_path):
        (tmp_path / "a.html").write_bytes(b"<html></html>")
        store = DiskStore(str(tmp_path))
        assert "/a.html" in store
        assert "/missing.html" not in store
        assert "/../escape" not in store

    def test_memory_store_contains(self):
        store = MemoryStore({"/a": b"x"})
        assert "/a" in store
        assert "/b" not in store


class TestResponseCache:
    """The stamp: one entry per key, answering its own stamp and the
    methods it was filled for."""

    def test_keyed_by_name_version_method(self):
        cache = CopyCache(1024)
        cache.put("/a", entry(digest="sha256:1"))
        assert cache.get("/a", 1, "GET") is not None
        assert cache.get("/a", 1, "GET", "sha256:1") is not None
        assert cache.get("/a", 1, "GET", "sha256:2") is None
        assert cache.get("/a", 2, "GET") is None
        assert cache.get("/a", 1, "HEAD") is None   # not filled for HEAD
        assert cache.get("/b", 1, "GET") is None
        assert cache.stats.misses == 4

    def test_entry_bound_eviction(self):
        cache = CopyCache(8)
        cache.put("/a", entry())
        cache.put("/b", entry())
        cache.get("/a", 1, "GET")
        cache.put("/c", entry())
        assert cache.get("/a", 1, "GET") is not None
        assert cache.get("/b", 1, "GET") is None
        assert cache.stats.evictions == 1

    def test_invalidate_drops_every_version_and_method(self):
        cache = CopyCache(1024)
        cache.put("/a", entry(version=1))
        cache.put("/a", entry(version=2, methods=("GET", "HEAD")))
        cache.put("/b", entry())
        assert len(cache) == 2          # a key never holds two versions
        assert cache.invalidate("/a") == 1
        assert cache.get("/a", 2, "GET") is None
        assert cache.get("/a", 2, "HEAD") is None
        assert cache.get("/a", 1, "GET") is None
        assert cache.get("/b", 1, "GET") is not None

    def test_disabled_when_zero_entries(self):
        cache = CopyCache(0)
        cache.put("/a", entry())
        assert cache.get("/a", 1, "GET") is None
        assert cache.stats.misses == 1  # every lookup is a hit or a miss

    def test_name_index_survives_eviction(self):
        # An evicted key leaves nothing behind to invalidate, and the
        # byte accounting follows the entries that remain.
        cache = CopyCache(8)
        cache.put("/a", entry())
        cache.put("/b", entry())
        cache.put("/c", entry())        # evicts /a
        assert cache.invalidate("/a") == 0
        assert cache.invalidate("/b") == 1
        assert len(cache) == 1 and cache.used_bytes == 4

    def test_invalidate_unknown_name_is_noop(self):
        cache = CopyCache(64)
        assert cache.invalidate("/missing") == 0
        assert cache.stats.invalidations == 0

    def test_put_same_key_twice_indexes_once(self):
        cache = CopyCache(64)
        cache.put("/a", entry())
        cache.put("/a", entry(body=b"newer"))
        assert cache.used_bytes == 5
        assert cache.invalidate("/a") == 1
        assert len(cache) == 0 and cache.used_bytes == 0


class TestEngineResponseCache:
    def test_repeat_serve_hits_cache(self):
        engine = make_engine()
        first = get(engine, "/e.html")
        second = get(engine, "/e.html", now=2.0)
        assert first.response.body == second.response.body == SITE["/e.html"]
        assert engine.response_cache.stats.hits == 1
        # Cached replies still count hits for migration policy.
        assert engine.graph.get("/e.html").hits == 2

    def test_head_and_get_cached_separately(self):
        engine = make_engine()
        get(engine, "/e.html")
        head = get(engine, "/e.html", method="HEAD")   # joins the entry
        assert head.response.body == b""
        assert head.response.headers.get_int("content-length") == \
            len(SITE["/e.html"])
        cached_head = get(engine, "/e.html", method="HEAD", now=2.0)
        assert cached_head.response.body == b""
        assert cached_head.response.headers.get_int("content-length") == \
            len(SITE["/e.html"])
        assert len(engine.response_cache) == 1
        assert engine.response_cache.peek("/e.html").methods == \
            {"GET", "HEAD"}
        stats = engine.response_cache.stats
        assert (stats.hits, stats.misses) == (1, 2)

    def test_update_document_invalidates(self):
        engine = make_engine()
        get(engine, "/e.html")
        engine.update_document("/e.html", b"<html>edited</html>")
        assert "/e.html" not in engine.response_cache
        reply = get(engine, "/e.html", now=2.0)
        assert reply.response.body == b"<html>edited</html>"

    def test_fifty_updates_leave_one_entry_and_a_flat_budget(self):
        engine = make_engine()
        held = []
        for turn in range(50):
            body = b"<html>edited %02d</html>" % turn
            engine.update_document("/e.html", body)
            reply = get(engine, "/e.html", now=2.0 + turn)
            assert reply.response.body == body
            assert len(engine.response_cache) == 1
            entry = engine.response_cache.peek("/e.html")
            assert entry.version == engine.graph.get("/e.html").version
            held.append(engine.response_cache.used_bytes)
        assert held == [held[0]] * 50 == [len(body)] * 50

    def test_a_value_larger_than_the_budget_is_served_not_cached(self):
        engine = make_engine(byte_cache_bytes=64)
        get(engine, "/e.html")          # 17 bytes: fits
        for now in (1.0, 2.0):
            reply = get(engine, "/i.gif", now)      # 106 bytes: does not
            assert reply.response.status == 200
            assert reply.response.body == SITE["/i.gif"]
        # Served, not cached, and nothing else was flushed to make room.
        cache = engine.response_cache
        assert list(cache.entries()) == [cache.peek("/e.html")]
        assert cache.used_bytes == len(SITE["/e.html"])
        assert (cache.stats.misses, cache.stats.evictions) == (3, 0)

    def test_conditional_get_not_cached_as_304(self):
        engine = make_engine()
        full = get(engine, "/e.html")
        version = full.response.headers.get("X-DCWS-Version")
        conditional = get(engine, "/e.html", now=2.0,
                          headers={"X-DCWS-Version": version})
        assert conditional.response.status == 304
        # A later unconditional GET still returns the full entity.
        assert get(engine, "/e.html", now=3.0).response.body == SITE["/e.html"]

    def test_migration_regeneration_splices_and_invalidates(self):
        engine = make_engine()
        stale = get(engine, "/index.html")
        assert b"d.html" in stale.response.body
        engine.policy.force_migrate("/d.html", COOP, now=1.5)
        reply = get(engine, "/index.html", now=2.0)
        assert b"http://coop:8002/~migrate/home/8001/d.html" in \
            reply.response.body
        assert reply.reconstructed and reply.spliced
        assert engine.stats.splices == 1
        assert engine.stats.reconstructions == 1

    def test_splice_output_matches_full_parse_output(self):
        engine = make_engine()
        engine.policy.force_migrate("/d.html", COOP, now=0.5)
        stored = engine.store.get("/index.html").decode("latin-1")
        served = get(engine, "/index.html").response.body
        # The reference: parse the stored bytes, rewrite, serialize.
        assert served.decode("latin-1") == rewrite_html(
            stored, lambda raw: engine._rewrite_value("/index.html", raw))
        assert b"http://coop:8002/~migrate/home/8001/d.html" in served

    def test_disk_store_wrapped_in_byte_cache(self, tmp_path):
        (tmp_path / "index.html").write_bytes(SITE["/index.html"])
        store = DiskStore(str(tmp_path))
        engine = make_engine(store=store)
        assert engine.store is store    # the cache is the engine's
        reads = counting_reads(engine)
        get(engine, "/index.html")
        get(engine, "/index.html", now=2.0)
        assert reads == ["/index.html"]
        counters = engine.cache_counters()
        assert counters["byte_cache"] == {"hits": 1, "misses": 1}
        assert counters["response_cache"]["hits"] == 1

    def test_byte_cache_disabled_by_config(self, tmp_path):
        (tmp_path / "index.html").write_bytes(SITE["/index.html"])
        engine = make_engine(store=DiskStore(str(tmp_path)),
                             byte_cache_bytes=0)
        assert isinstance(engine.store, DiskStore)
        reads = counting_reads(engine)
        for now in (1.0, 2.0):
            assert get(engine, "/index.html", now).response.status == 200
        assert reads == ["/index.html"] * 2
        assert len(engine.response_cache) == 0
        assert engine.cache_counters()["byte_cache"] == {"hits": 0,
                                                         "misses": 2}

    def test_memory_store_not_double_cached(self):
        engine = make_engine()
        assert isinstance(engine.store, MemoryStore)
        served = get(engine, "/e.html").response.body
        # The entry holds the store's own bytes object, not a copy.
        assert engine.response_cache.peek("/e.html").body is served \
            is engine.store.get("/e.html")

    def test_cache_counters_shape(self):
        engine = make_engine()
        counters = engine.cache_counters()
        assert set(counters) == {"short_circuit", "templates",
                                 "response_cache", "byte_cache"}
        assert set(counters["response_cache"]) == {
            "entries", "used_bytes", "budget", "variant_bytes", "hits",
            "misses", "evictions", "invalidations", "hit_rate"}
        assert counters["response_cache"]["budget"] == 24 * 1024 * 1024
        assert set(counters["byte_cache"]) == {"hits", "misses"}

    def test_admin_caches_endpoint(self):
        engine = make_engine()
        get(engine, "/e.html")
        get(engine, "/e.html", now=2.0)
        reply = get(engine, "/~dcws/caches", now=3.0)
        assert reply.response.status == 200
        text = reply.response.body.decode()
        assert "response_cache:" in text
        for key in ("hits", "used_bytes", "budget", "variant_bytes"):
            assert key in text

    def test_status_page_reports_splices(self):
        engine = make_engine()
        engine.policy.force_migrate("/d.html", COOP, now=0.5)
        get(engine, "/index.html")
        text = get(engine, "/~dcws/status", now=2.0).response.body.decode()
        assert "via template splice" in text
