"""Unit tests for the /~dcws/ administrative endpoints."""

import pytest

from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.http.messages import Request
from repro.server.engine import DCWSEngine
from repro.server.filestore import MemoryStore

HOME = Location("home", 8001)
COOP = Location("coop", 8002)

SITE = {
    "/index.html": b'<html><a href="d.html">D</a></html>',
    "/d.html": b"<html>doc</html>",
}


@pytest.fixture()
def engine():
    engine = DCWSEngine(HOME, ServerConfig(), MemoryStore(SITE),
                        entry_points=["/index.html"], peers=[COOP])
    engine.initialize(0.0)
    return engine


def fetch(engine, path, method="GET"):
    return engine.handle_request(Request(method, path), 1.0).response


class TestStatus:
    def test_status_endpoint(self, engine):
        response = fetch(engine, "/~dcws/status")
        assert response.status == 200
        assert response.headers.get("Content-Type") == "text/plain"
        body = response.body.decode()
        assert "home:8001" in body
        assert "documents (home)" in body

    def test_status_reflects_counters(self, engine):
        fetch(engine, "/d.html")
        body = fetch(engine, "/~dcws/status").body.decode()
        assert "200 OK                1" in body

    def test_head_has_no_body(self, engine):
        response = fetch(engine, "/~dcws/status", method="HEAD")
        assert response.status == 200
        assert response.body == b""


class TestGraph:
    def test_graph_lists_every_tuple(self, engine):
        body = fetch(engine, "/~dcws/graph").body.decode()
        assert "/index.html" in body
        assert "/d.html" in body
        assert "LinkFrom" in body

    def test_graph_shows_migration(self, engine):
        engine.policy.force_migrate("/d.html", COOP, 0.5)
        body = fetch(engine, "/~dcws/graph").body.decode()
        assert "coop:8002" in body


class TestLoadTable:
    def test_load_endpoint(self, engine):
        engine.glt.update_own(12.5, 1.0)
        body = fetch(engine, "/~dcws/load").body.decode()
        assert "home:8001" in body
        assert "12.5" in body
        assert "coop:8002" in body
        assert "never" in body  # registered peer without a report yet


class TestEvents:
    def test_events_endpoint(self, engine):
        engine.policy.force_migrate("/d.html", COOP, 0.5)
        engine.log.record(0.5, "migrate", name="/d.html", target=str(COOP))
        body = fetch(engine, "/~dcws/events").body.decode()
        assert "migrate" in body
        assert "/d.html" in body

    def test_empty_log(self, engine):
        body = fetch(engine, "/~dcws/events").body.decode()
        assert "(none)" in body


class TestPeers:
    def test_peers_endpoint_without_breaker(self, engine):
        response = fetch(engine, "/~dcws/peers")
        assert response.status == 200
        body = response.body.decode()
        assert "coop:8002" in body
        assert "breaker trips (lifetime) 0" in body
        assert "no-row" in body  # peer registered, no load report yet

    def test_peers_endpoint_shows_breaker_and_health_state(self, engine):
        key = str(COOP)
        for __ in range(engine.config.ping_failure_limit):
            engine.membership.failure(key, 0.5)
        body = fetch(engine, "/~dcws/peers").body.decode()
        assert "open" in body
        assert "breaker trips (lifetime) 1" in body

    def test_peers_endpoint_shows_last_success_age(self, engine):
        engine.membership.heartbeat(str(COOP), 0.5)
        body = fetch(engine, "/~dcws/peers").body.decode()
        assert "0.5s" in body  # handled at t=1.0, success at t=0.5


class TestDispatch:
    def test_unknown_endpoint_404(self, engine):
        response = fetch(engine, "/~dcws/nonsense")
        assert response.status == 404
        assert b"status" in response.body  # hints at valid endpoints

    def test_admin_requests_counted_as_requests(self, engine):
        before = engine.stats.requests
        fetch(engine, "/~dcws/status")
        assert engine.stats.requests == before + 1
