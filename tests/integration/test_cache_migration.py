"""Cache invalidation across migration events.

The serve-path caches (link templates, byte cache, rendered-response
cache) must never outlive the state they were rendered from: a
migrate -> revoke -> re-migrate cycle has to produce fresh hyperlinks and
fresh bytes at every step, both on a bare engine and through the threaded
server over real sockets.
"""

import socket
import time

import pytest

from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.html.rewriter import rewrite_html
from repro.http.messages import Request
from repro.server.engine import DCWSEngine
from repro.server.filestore import MemoryStore
from repro.server.threaded import ThreadedDCWSServer
from repro.client.realclient import fetch_url, http_fetch
from repro.http.urls import URL

HOME = Location("home", 8001)
COOP = Location("coop", 8002)

SITE = {
    "/index.html": b'<html><a href="d.html">D</a><img src="i.gif"></html>',
    "/d.html": b'<html><a href="e.html">E</a></html>',
    "/e.html": b"<html>leaf</html>",
    "/i.gif": b"GIF89a" + b"x" * 100,
}

MIGRATED_LINK = b"http://coop:8002/~migrate/home/8001/d.html"


def make_engine(**config_kwargs):
    config_kwargs.setdefault("stats_interval", 1.0)
    config_kwargs.setdefault("migration_hit_threshold", 1.0)
    engine = DCWSEngine(HOME, ServerConfig(**config_kwargs),
                        MemoryStore(SITE), entry_points=["/index.html"],
                        peers=[COOP])
    engine.initialize(0.0)
    return engine


def body_of(engine, path, now):
    reply = engine.handle_request(Request(method="GET", target=path), now)
    return reply.response.status, reply.response.body


class TestEngineMigrationCycle:
    """Unit level: one engine, the full migrate/revoke/re-migrate cycle."""

    def test_index_links_track_every_transition(self):
        engine = make_engine()
        # Warm every cache layer with the clean rendering.
        for now in (1.0, 1.1):
            status, body = body_of(engine, "/index.html", now)
            assert status == 200 and b'"d.html"' in body

        def regenerated(now):
            """The page after a transition: served twice (the second
            fetch rides the cache), and equal to the reference — parse
            the stored bytes, rewrite every link, serialize."""
            stored = engine.store.get("/index.html").decode("latin-1")
            status, body = body_of(engine, "/index.html", now)
            assert status == 200
            assert body.decode("latin-1") == rewrite_html(
                stored, lambda raw: engine._rewrite_value("/index.html", raw))
            assert body_of(engine, "/index.html", now + 0.1) == (200, body)
            return body

        engine.policy.force_migrate("/d.html", COOP, now=2.0)
        body = regenerated(2.1)
        assert MIGRATED_LINK in body
        assert b'"d.html"' not in body

        engine.policy.revoke("/d.html")
        body = regenerated(3.0)
        # Revocation rewrites the migrate URL back to home's absolute
        # URL (not the original relative form).
        assert b"http://home:8001/d.html" in body
        assert b"~migrate" not in body

        engine.policy.force_migrate("/d.html", COOP, now=4.0)
        assert MIGRATED_LINK in regenerated(4.1)

    def test_document_itself_tracks_every_transition(self):
        engine = make_engine()
        assert body_of(engine, "/d.html", 1.0)[0] == 200
        engine.policy.force_migrate("/d.html", COOP, now=2.0)
        assert body_of(engine, "/d.html", 2.1)[0] == 301
        engine.policy.revoke("/d.html")
        status, body = body_of(engine, "/d.html", 3.0)
        assert status == 200
        assert b"e.html" in body
        engine.policy.force_migrate("/d.html", COOP, now=4.0)
        assert body_of(engine, "/d.html", 4.1)[0] == 301

    def test_content_update_during_cycle_never_serves_old_bytes(self):
        engine = make_engine()
        body_of(engine, "/d.html", 1.0)
        engine.policy.force_migrate("/d.html", COOP, now=2.0)
        engine.policy.revoke("/d.html")
        engine.update_document("/d.html", b'<html><a href="e.html">E2</a></html>')
        status, body = body_of(engine, "/d.html", 3.0)
        assert status == 200
        assert b"E2" in body

    def test_template_survives_cycle_without_reparse(self):
        engine = make_engine()
        body_of(engine, "/index.html", 1.0)
        builds_before = engine.stats.template_builds
        engine.policy.force_migrate("/d.html", COOP, now=2.0)
        body_of(engine, "/index.html", 2.1)
        engine.policy.revoke("/d.html")
        body_of(engine, "/index.html", 3.0)
        engine.policy.force_migrate("/d.html", COOP, now=4.0)
        body_of(engine, "/index.html", 4.1)
        # Three regenerations, all spliced from the standing template.
        assert engine.stats.reconstructions == 3
        assert engine.stats.splices == 3
        assert engine.stats.template_builds == builds_before


# ---------------------------------------------------------------------------
# Threaded-server integration: the same cycle over real sockets.
# ---------------------------------------------------------------------------


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@pytest.fixture()
def pair():
    """A running (home, coop) ThreadedDCWSServer pair on loopback."""
    home_loc = Location("127.0.0.1", free_port())
    coop_loc = Location("127.0.0.1", free_port())
    config = ServerConfig(stats_interval=0.5, pinger_interval=0.5,
                          validation_interval=1.0,
                          migration_hit_threshold=1.0)
    home_engine = DCWSEngine(home_loc, config, MemoryStore(SITE),
                             entry_points=["/index.html"], peers=[coop_loc])
    coop_engine = DCWSEngine(coop_loc, config, MemoryStore(),
                             peers=[home_loc])
    home = ThreadedDCWSServer(home_engine, tick_period=0.1)
    coop = ThreadedDCWSServer(coop_engine, tick_period=0.1)
    home.start()
    coop.start()
    try:
        yield home, coop
    finally:
        home.stop()
        coop.stop()


def sock_get(server: ThreadedDCWSServer, path: str):
    response = http_fetch(Location("127.0.0.1", server.port),
                          Request(method="GET", target=path))
    return response.status, response.body


def migrated_link(home, coop) -> bytes:
    return (f"http://127.0.0.1:{coop.port}/~migrate/127.0.0.1/"
            f"{home.port}/d.html").encode()


class TestMigrationCycleOverSockets:
    def test_migrate_revoke_remigrate_cycle(self, pair):
        home, coop = pair
        link = migrated_link(home, coop)

        status, body = sock_get(home, "/index.html")
        assert status == 200 and b'"d.html"' in body
        sock_get(home, "/index.html")   # warm the response cache

        with home._lock:
            home.engine.policy.force_migrate(
                "/d.html", coop.engine.location, time.monotonic())
        for __ in range(2):             # fresh render, then cached render
            status, body = sock_get(home, "/index.html")
            assert status == 200
            assert link in body
            assert b'"d.html"' not in body
        # The old URL redirects, and following it works end to end.
        assert sock_get(home, "/d.html")[0] == 301
        assert fetch_url(URL("127.0.0.1", home.port, "/d.html")).status == 200

        with home._lock:
            home.engine.policy.revoke("/d.html")
        home_link = f"http://127.0.0.1:{home.port}/d.html".encode()
        for __ in range(2):
            status, body = sock_get(home, "/index.html")
            assert status == 200
            assert home_link in body
            assert b"~migrate" not in body
        status, body = sock_get(home, "/d.html")
        assert status == 200
        assert b"e.html" in body

        with home._lock:
            home.engine.policy.force_migrate(
                "/d.html", coop.engine.location, time.monotonic())
        for __ in range(2):
            status, body = sock_get(home, "/index.html")
            assert status == 200
            assert link in body
        assert sock_get(home, "/d.html")[0] == 301

    def test_remigrated_content_refreshes_on_coop(self, pair):
        """The co-op's hosted/response caches must not pin the first pull's
        bytes across revoke -> edit -> re-migrate."""
        home, coop = pair
        now = time.monotonic()
        with home._lock:
            home.engine.policy.force_migrate(
                "/d.html", coop.engine.location, now)
        assert fetch_url(URL("127.0.0.1", home.port, "/d.html")).status == 200

        with home._lock:
            home.engine.policy.revoke("/d.html")
        home.engine.update_document(
            "/d.html", b'<html><a href="e.html">EDITED</a></html>')
        with home._lock:
            home.engine.policy.force_migrate(
                "/d.html", coop.engine.location, time.monotonic())

        key = f"/~migrate/127.0.0.1/{home.port}/d.html"
        deadline = time.time() + 10.0
        body = b""
        while time.time() < deadline:
            status, body = sock_get(coop, key)
            if status == 200 and b"EDITED" in body:
                break
            time.sleep(0.2)
        assert b"EDITED" in body

    def test_deferred_regeneration_serves_spliced_content(self, pair):
        """Dirty documents regenerate by splice inside the socket host's
        dispatch and still serve the rewritten hyperlinks."""
        home, coop = pair
        with home._lock:
            home.engine.policy.force_migrate(
                "/d.html", coop.engine.location, time.monotonic())
        status, body = sock_get(home, "/index.html")
        assert status == 200
        assert migrated_link(home, coop) in body
        assert home.engine.stats.splices >= 1
        assert home.engine.stats.reconstructions >= 1
