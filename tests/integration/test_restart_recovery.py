"""A real server restart keeps its migration state (persistence)."""

import time

import pytest

from repro.client.realclient import fetch_url
from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.http.urls import URL
from repro.server.aio import AsyncDCWSServer
from repro.server.engine import DCWSEngine
from repro.server.filestore import MemoryStore
from repro.server.threaded import ThreadedDCWSServer
from tests.support import free_port

SITE = {
    "/index.html": b'<html><a href="d.html">D</a></html>',
    "/d.html": b"<html>doc</html>",
}

#: Both socket front ends host the same engine and the same persistence
#: hooks; restart recovery must hold for each.
FRONT_ENDS = [
    pytest.param(ThreadedDCWSServer, id="threaded"),
    pytest.param(AsyncDCWSServer, id="aio"),
]


@pytest.mark.parametrize("server_class", FRONT_ENDS)
def test_restart_preserves_redirects(tmp_path, server_class):
    port = free_port()
    coop = Location("127.0.0.1", free_port())
    snapshot = str(tmp_path / "home.snapshot")
    store = MemoryStore(SITE)  # shared between incarnations (same "disk")
    config = ServerConfig(stats_interval=60.0, pinger_interval=60.0)

    def make_server():
        engine = DCWSEngine(Location("127.0.0.1", port), config, store,
                            entry_points=["/index.html"], peers=[coop])
        return server_class(engine, snapshot_path=snapshot,
                            tick_period=0.1)

    first = make_server()
    first.start()
    try:
        with first._lock:
            first.engine.policy.force_migrate("/d.html", coop,
                                              time.monotonic())
        response = fetch_url(URL("127.0.0.1", port, "/d.html"),
                             max_redirects=0)
        assert response.status == 301
    finally:
        first.stop()  # writes the snapshot

    second = make_server()
    second.start()
    try:
        # The restarted server still knows /d.html lives on the co-op.
        response = fetch_url(URL("127.0.0.1", port, "/d.html"),
                             max_redirects=0)
        assert response.status == 301
        with second._lock:
            assert [r.name for r in
                    second.engine.graph.migrated_documents()] == ["/d.html"]
    finally:
        second.stop()


def test_restart_without_snapshot_forgets(tmp_path):
    port = free_port()
    coop = Location("127.0.0.1", free_port())
    store = MemoryStore(SITE)
    config = ServerConfig(stats_interval=60.0, pinger_interval=60.0)
    engine = DCWSEngine(Location("127.0.0.1", port), config, store,
                        entry_points=["/index.html"], peers=[coop])
    first = ThreadedDCWSServer(engine, tick_period=0.1)  # no snapshot_path
    first.start()
    try:
        with first._lock:
            first.engine.policy.force_migrate("/d.html", coop,
                                              time.monotonic())
    finally:
        first.stop()

    engine2 = DCWSEngine(Location("127.0.0.1", port), config, store,
                         entry_points=["/index.html"], peers=[coop])
    second = ThreadedDCWSServer(engine2, tick_period=0.1)
    second.start()
    try:
        response = fetch_url(URL("127.0.0.1", port, "/d.html"),
                             max_redirects=0)
        # Amnesia: the fresh graph thinks the document is local again.
        assert response.status == 200
    finally:
        second.stop()
