"""ConnectionPool: persistent per-peer channels for server-to-server HTTP."""

import socket
from types import SimpleNamespace

import pytest

from repro.client import pool as pool_module
from repro.client.pool import ConnectionPool, _Channel
from repro.client.realclient import _choose_replica, fetch_url
from repro.errors import HTTPError
from repro.faults import FaultPlan, FaultRule
from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.core.naming import encode_migrated_path
from repro.http.messages import Request
from repro.http.urls import URL, parse_url
from repro.server.engine import DCWSEngine
from repro.server.filestore import MemoryStore
from repro.server.threaded import ThreadedDCWSServer
from tests.support import free_port

SITE = {"/a.html": b"<html>pooled</html>"}


def make_server(**config_kwargs) -> ThreadedDCWSServer:
    loc = Location("127.0.0.1", free_port())
    config = ServerConfig(stats_interval=60.0, pinger_interval=60.0,
                          **config_kwargs)
    engine = DCWSEngine(loc, config, MemoryStore(dict(SITE)))
    return ThreadedDCWSServer(engine)


@pytest.fixture()
def server():
    srv = make_server()
    srv.start()
    try:
        yield srv
    finally:
        srv.stop()


def get(pool: ConnectionPool, server: ThreadedDCWSServer, target="/a.html"):
    peer = Location("127.0.0.1", server.port)
    return pool.fetch(peer, Request(method="GET", target=target))


def test_channel_reused_across_fetches(server):
    with ConnectionPool() as pool:
        for __ in range(5):
            assert get(pool, server).status == 200
        assert pool.requests == 5
        assert pool.opens == 1
        assert pool.reuses == 4
        assert pool.idle_count() == 1


def test_head_request_over_pooled_channel(server):
    """HEAD's Content-Length describes the omitted body; the channel must
    not be poisoned by reading body bytes that never come."""
    peer = Location("127.0.0.1", server.port)
    with ConnectionPool() as pool:
        for __ in range(3):
            response = pool.fetch(peer, Request(method="HEAD",
                                                target="/a.html"))
            assert response.status == 200
            assert response.body == b""
        assert pool.opens == 1
        assert pool.reuses == 2


def test_head_error_response_keeps_channel_clean(server):
    """Regression: error paths used to leave the body in HEAD responses,
    so the pinger's ``HEAD /`` (a 404 on most servers) dirtied the channel
    and ping exchanges were never pooled."""
    peer = Location("127.0.0.1", server.port)
    with ConnectionPool() as pool:
        for __ in range(3):
            response = pool.fetch(peer, Request(method="HEAD", target="/"))
            assert response.status == 404
            assert response.body == b""
        assert pool.opens == 1
        assert pool.reuses == 2


def test_stale_idle_channel_evicted_and_retried(server):
    with ConnectionPool() as pool:
        assert get(pool, server).status == 200
        # Simulate the peer silently dropping the idle channel.
        for idle in pool._idle.values():
            for channel in idle:
                channel.sock.close()
        assert get(pool, server).status == 200
        assert pool.evictions >= 1
        assert pool.opens == 2


def test_peer_closing_connection_prevents_pooling():
    # One request per connection: every answer says Connection: close.
    srv = make_server(keep_alive_max_requests=1)
    srv.start()
    try:
        with ConnectionPool() as pool:
            for __ in range(3):
                assert get(pool, srv).status == 200
            # Every response said Connection: close, so nothing is pooled.
            assert pool.idle_count() == 0
            assert pool.opens == 3
            assert pool.reuses == 0
    finally:
        srv.stop()


def test_idle_channels_bounded_per_peer():
    pool = ConnectionPool(max_per_peer=1)
    a, b = socket.socketpair()
    c, d = socket.socketpair()
    try:
        pool._give_back("h:80", _Channel(a))
        pool._give_back("h:80", _Channel(c))
        assert pool.idle_count() == 1
    finally:
        pool.close()
        for sock in (a, b, c, d):
            try:
                sock.close()
            except OSError:
                pass


def test_close_drains_idle_channels(server):
    pool = ConnectionPool()
    assert get(pool, server).status == 200
    assert pool.idle_count() == 1
    pool.close()
    assert pool.idle_count() == 0
    # A closed pool still serves fetches; it just stops retaining channels.
    assert get(pool, server).status == 200
    assert pool.idle_count() == 0


def test_unreachable_peer_raises():
    dead = Location("127.0.0.1", free_port())
    with ConnectionPool(timeout=0.5) as pool:
        with pytest.raises(OSError):
            pool.fetch(dead, Request(method="GET", target="/a.html"))


def test_non_idempotent_request_not_replayed_on_stale_channel(server):
    """A POST whose exchange dies on a previously-idle channel must raise,
    not silently replay: the peer may already have executed it."""
    peer = Location("127.0.0.1", server.port)
    with ConnectionPool() as pool:
        assert get(pool, server).status == 200
        for idle in pool._idle.values():
            for channel in idle:
                channel.sock.close()
        with pytest.raises((OSError, HTTPError)):
            pool.fetch(peer, Request(method="POST", target="/a.html"))
        assert pool.evictions == 1
        assert pool.opens == 1  # no second connection was attempted


def test_injected_connect_refused_surfaces_then_clears(server):
    plan = FaultPlan([FaultRule(kind="connect_refused", max_injections=1)])
    with ConnectionPool(faults=plan) as pool:
        with pytest.raises(ConnectionRefusedError):
            get(pool, server)
        assert get(pool, server).status == 200
        assert [event.kind for event in plan.injected] == ["connect_refused"]


def test_injected_reset_on_reused_channel_replayed_for_get(server):
    plan = FaultPlan([FaultRule(kind="reset", skip_first=1,
                                max_injections=1)])
    with ConnectionPool(faults=plan) as pool:
        assert get(pool, server).status == 200
        # The reused channel takes the reset; GET is replayed on a fresh
        # connection and the caller never sees the fault.
        assert get(pool, server).status == 200
        assert pool.evictions == 1
        assert pool.opens == 2


def test_injected_corruption_rejected_and_replayed_for_get(server):
    """A seeded in-transit byte flip fails the X-DCWS-Digest check; the
    pool rejects the body and replays the GET on a fresh channel, so the
    caller only ever sees verified bytes."""
    plan = FaultPlan([FaultRule(kind="corrupt", max_injections=1)], seed=11)
    with ConnectionPool(faults=plan) as pool:
        response = get(pool, server)
        assert response.status == 200
        assert response.body == SITE["/a.html"]
        assert pool.digest_rejects == 1
        assert pool.opens == 2  # corrupt exchange evicted its channel
        assert [event.kind for event in plan.injected] == ["corrupt"]


def test_injected_corruption_exhausts_retry_and_raises(server):
    """Persistent corruption (every exchange flipped) must surface as an
    error, not an infinite retry loop or a silently corrupt body."""
    from repro.errors import DigestMismatch

    plan = FaultPlan([FaultRule(kind="corrupt")], seed=11)
    with ConnectionPool(faults=plan) as pool:
        with pytest.raises(DigestMismatch):
            get(pool, server)
        assert pool.digest_rejects == 2  # first try + one replay


def test_injected_reset_on_reused_channel_raises_for_post(server):
    plan = FaultPlan([FaultRule(kind="reset", skip_first=1)])
    peer = Location("127.0.0.1", server.port)
    with ConnectionPool(faults=plan) as pool:
        assert get(pool, server).status == 200
        with pytest.raises(ConnectionResetError):
            pool.fetch(peer, Request(method="POST", target="/a.html"))
        assert pool.opens == 1


class TestFailureMemory:
    """A requester remembers, on its own pool, which replica authorities
    just failed it; no other requester's choice is steered by that."""

    def dead_replica(self):
        port = free_port()  # bound and closed: connecting is refused
        url = URL("127.0.0.1", port,
                  encode_migrated_path(Location("home", 8001), "/d.html"))
        sibling = "127.0.0.1:1"
        return url, f"127.0.0.1:{port}, {sibling}", sibling

    def test_a_failure_noted_by_one_client_does_not_steer_another(self):
        url, replicas, sibling = self.dead_replica()
        with ConnectionPool() as mine, ConnectionPool() as theirs:
            assert fetch_url(url, pool=mine, max_redirects=0).status == 599
            assert _choose_replica(url, replicas) is url
            assert _choose_replica(url, replicas, theirs) is url
            assert _choose_replica(url, replicas, mine).authority == sibling

    def test_a_client_without_a_pool_remembers_nothing(self):
        url, replicas, __ = self.dead_replica()
        assert fetch_url(url, max_redirects=0).status == 599
        assert _choose_replica(url, replicas) is url

    def test_the_memory_fades(self, monkeypatch):
        clock = [100.0]
        monkeypatch.setattr(pool_module, "time",
                            SimpleNamespace(monotonic=lambda: clock[0]))
        pool = ConnectionPool()
        pool.note_failure("peer:1")
        clock[0] += 4.0
        assert pool.recently_failed("peer:1")
        clock[0] += 2.0
        assert not pool.recently_failed("peer:1")
        assert not pool.recently_failed("other:2")


def test_fetch_fails_over_from_a_closed_coop_to_a_live_home(server):
    home = Location("127.0.0.1", server.port)
    closed = URL("127.0.0.1", free_port(),
                 encode_migrated_path(home, "/a.html"))
    outcome = fetch_url(closed, timeout=2.0)
    assert outcome.status == 200
    assert outcome.replica_fallback
    assert not outcome.redirected  # a failover is not a redirect
    assert outcome.url == URL("127.0.0.1", server.port, "/a.html")


class _RefusingPool:
    """A pool that refuses every fetch and records the peers asked."""

    def __init__(self):
        self.asked = []

    def fetch(self, peer, request, *, timeout=None):
        self.asked.append(peer)
        raise ConnectionRefusedError("refused")

    def note_failure(self, authority):
        pass


def test_a_coop_on_port_80_is_not_its_own_home():
    # ``http://h/`` leaves port 80 implied while the migrated path spells
    # it out: the home it encodes is the dead server itself.
    pool = _RefusingPool()
    outcome = fetch_url(parse_url("http://h/~migrate/h/80/a.html"),
                        pool=pool)
    assert outcome.transport_failed
    assert not outcome.replica_fallback
    assert pool.asked == [Location("h", 80)]
