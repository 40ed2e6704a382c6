"""Unit tests for the per-sequence client cache."""

from repro.client.cache import ClientCache


class TestClientCache:
    def test_miss_then_hit(self):
        cache = ClientCache()
        assert cache.lookup("http://h/a.html") is None
        cache.store("http://h/a.html", 1200, ["b.html"])
        assert cache.lookup("http://h/a.html") == (1200, ["b.html"])

    def test_reset_clears_entries(self):
        cache = ClientCache()
        cache.store("u", 1, [])
        cache.reset()
        assert cache.lookup("u") is None
        assert len(cache) == 0

    def test_location_sensitive_keys(self):
        # The same document at home and at a co-op are distinct entries,
        # exactly as a browser sees distinct URLs.
        cache = ClientCache()
        cache.store("http://home/d.html", 10, [])
        assert cache.lookup("http://coop/~migrate/home/80/d.html") is None

    def test_contains_and_len(self):
        cache = ClientCache()
        cache.store("u", 1, [])
        assert "u" in cache
        assert "v" not in cache
        assert len(cache) == 1

    def test_links_copied(self):
        cache = ClientCache()
        links = ["a"]
        cache.store("u", 1, links)
        links.append("b")
        __, stored = cache.lookup("u")
        assert stored == ["a"]
