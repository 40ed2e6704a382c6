"""Unit tests for the serve-path caches (byte cache + response cache)."""

import pytest

from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.errors import DocumentNotFound
from repro.html.rewriter import rewrite_html
from repro.http.messages import Request
from repro.server.cache import (
    CachedResponse,
    CachingStore,
    LRUByteCache,
    ResponseCache,
)
from repro.server.engine import DCWSEngine, EngineReply
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


class TestLRUByteCache:
    def test_get_put_and_counters(self):
        cache = LRUByteCache(1024)
        assert cache.get("/a") is None
        cache.put("/a", b"xyz")
        assert cache.get("/a") == b"xyz"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_evicts_least_recently_used(self):
        cache = LRUByteCache(10)
        cache.put("/a", b"aaaa")
        cache.put("/b", b"bbbb")
        cache.get("/a")                 # /b is now the LRU entry
        cache.put("/c", b"cccc")        # 12 bytes > 10: evict /b
        assert cache.get("/a") == b"aaaa"
        assert cache.get("/b") is None
        assert cache.get("/c") == b"cccc"
        assert cache.stats.evictions == 1
        assert cache.used_bytes <= 10

    def test_oversized_value_not_cached(self):
        cache = LRUByteCache(4)
        cache.put("/big", b"x" * 10)
        assert cache.get("/big") is None
        assert len(cache) == 0

    def test_zero_capacity_disables_storage(self):
        cache = LRUByteCache(0)
        cache.put("/a", b"")
        assert cache.get("/a") is None
        assert len(cache) == 0

    def test_invalidate_and_counter(self):
        cache = LRUByteCache(1024)
        cache.put("/a", b"a")
        cache.invalidate("/a")
        cache.invalidate("/missing")    # no-op, still counted once below
        assert cache.get("/a") is None
        assert cache.stats.invalidations == 1

    def test_replacing_entry_adjusts_used_bytes(self):
        cache = LRUByteCache(1024)
        cache.put("/a", b"aaaa")
        cache.put("/a", b"aa")
        assert cache.used_bytes == 2
        assert cache.get("/a") == b"aa"


class TestCachingStore:
    def test_get_fills_and_hits(self):
        store = CachingStore(MemoryStore({"/a": b"data"}), 1024)
        assert store.get("/a") == b"data"
        assert store.get("/a") == b"data"
        assert store.cache.stats.misses == 1
        assert store.cache.stats.hits == 1

    def test_put_updates_cache_and_inner(self):
        inner = MemoryStore({"/a": b"old"})
        store = CachingStore(inner, 1024)
        store.get("/a")
        store.put("/a", b"new")
        assert store.get("/a") == b"new"
        assert inner.get("/a") == b"new"

    def test_delete_invalidates(self):
        store = CachingStore(MemoryStore({"/a": b"data"}), 1024)
        store.get("/a")
        store.delete("/a")
        with pytest.raises(DocumentNotFound):
            store.get("/a")

    def test_contains_and_names_delegate(self):
        store = CachingStore(MemoryStore({"/a": b"data"}), 1024)
        assert "/a" in store
        assert "/b" not in store
        assert store.names() == ["/a"]
        assert store.size("/a") == 4


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
    def entry(self, body=b"data"):
        return CachedResponse(body=body, content_length=len(body),
                              content_type="text/html", version="1")

    def test_keyed_by_name_version_method(self):
        cache = ResponseCache(8)
        cache.put("/a", 1, "GET", self.entry())
        assert cache.get("/a", 1, "GET") is not None
        assert cache.get("/a", 2, "GET") is None
        assert cache.get("/a", 1, "HEAD") is None
        assert cache.get("/b", 1, "GET") is None

    def test_entry_bound_eviction(self):
        cache = ResponseCache(2)
        cache.put("/a", 1, "GET", self.entry())
        cache.put("/b", 1, "GET", self.entry())
        cache.get("/a", 1, "GET")
        cache.put("/c", 1, "GET", self.entry())
        assert cache.get("/a", 1, "GET") is not None
        assert cache.get("/b", 1, "GET") is None
        assert cache.stats.evictions == 1

    def test_invalidate_drops_every_version_and_method(self):
        cache = ResponseCache(8)
        cache.put("/a", 1, "GET", self.entry())
        cache.put("/a", 2, "GET", self.entry())
        cache.put("/a", 2, "HEAD", self.entry(body=b""))
        cache.put("/b", 1, "GET", self.entry())
        assert cache.invalidate("/a") == 3
        assert cache.get("/a", 2, "GET") is None
        assert cache.get("/b", 1, "GET") is not None

    def test_disabled_when_zero_entries(self):
        cache = ResponseCache(0)
        assert not cache.enabled
        cache.put("/a", 1, "GET", self.entry())
        assert cache.get("/a", 1, "GET") is None

    def test_name_index_survives_eviction(self):
        # The per-name invalidation index must not retain keys the LRU
        # already evicted (or re-invalidation would KeyError) and must
        # keep covering the entries that remain.
        cache = ResponseCache(2)
        cache.put("/a", 1, "GET", self.entry())
        cache.put("/a", 2, "GET", self.entry())
        cache.put("/a", 3, "GET", self.entry())  # evicts ("/a", 1)
        assert cache.invalidate("/a") == 2
        assert cache.invalidate("/a") == 0
        assert len(cache) == 0

    def test_invalidate_unknown_name_is_noop(self):
        cache = ResponseCache(4)
        assert cache.invalidate("/missing") == 0
        assert cache.stats.invalidations == 0

    def test_put_same_key_twice_indexes_once(self):
        cache = ResponseCache(4)
        cache.put("/a", 1, "GET", self.entry())
        cache.put("/a", 1, "GET", self.entry(body=b"newer"))
        assert cache.invalidate("/a") == 1
        assert len(cache) == 0


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
        head = get(engine, "/e.html", method="HEAD")
        assert head.response.body == b""
        assert head.response.headers.get_int("content-length") == \
            len(SITE["/e.html"])
        cached_head = get(engine, "/e.html", method="HEAD", now=2.0)
        assert cached_head.response.body == b""
        assert cached_head.response.headers.get_int("content-length") == \
            len(SITE["/e.html"])

    def test_update_document_invalidates(self):
        engine = make_engine()
        get(engine, "/e.html")
        engine.update_document("/e.html", b"<html>edited</html>")
        reply = get(engine, "/e.html", now=2.0)
        assert reply.response.body == b"<html>edited</html>"

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
        engine = make_engine(store=DiskStore(str(tmp_path)))
        assert isinstance(engine.store, CachingStore)
        get(engine, "/index.html")
        get(engine, "/index.html", now=2.0)
        counters = engine.cache_counters()
        assert "byte_cache" in counters
        assert counters["response_cache"]["hits"] == 1

    def test_byte_cache_disabled_by_config(self, tmp_path):
        (tmp_path / "index.html").write_bytes(SITE["/index.html"])
        engine = make_engine(store=DiskStore(str(tmp_path)),
                             byte_cache_bytes=0)
        assert isinstance(engine.store, DiskStore)

    def test_memory_store_not_double_cached(self):
        engine = make_engine()
        assert isinstance(engine.store, MemoryStore)

    def test_cache_counters_shape(self):
        engine = make_engine()
        counters = engine.cache_counters()
        assert set(counters) >= {"templates", "response_cache"}
        assert "hits" in counters["response_cache"]
        assert "hit_rate" in counters["response_cache"]

    def test_admin_caches_endpoint(self):
        engine = make_engine()
        get(engine, "/e.html")
        get(engine, "/e.html", now=2.0)
        reply = get(engine, "/~dcws/caches", now=3.0)
        assert reply.response.status == 200
        text = reply.response.body.decode()
        assert "response_cache:" in text
        assert "hits" in text

    def test_status_page_reports_splices(self):
        engine = make_engine()
        engine.policy.force_migrate("/d.html", COOP, now=0.5)
        get(engine, "/index.html")
        text = get(engine, "/~dcws/status", now=2.0).response.body.decode()
        assert "via template splice" in text
