"""Persistent-connection socket path, end to end over real sockets.

Covers the keep-alive front-end (multiple and pipelined requests per
connection, idle timeout, per-connection cap, Connection semantics), the
request-read hardening, the lock-free drop counter, and pooled
server-to-server channels.
"""

import http.client
import socket
import time

import pytest

from repro.client.realclient import fetch_url, read_framed_response
from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.http.urls import URL
from repro.server.engine import DCWSEngine
from repro.server.filestore import MemoryStore
from repro.server.threaded import ThreadedDCWSServer
from tests.integration.test_real_servers import FRONT_ENDS
from tests.support import free_port

SITE = {
    "/index.html": b'<html><a href="d.html">D</a></html>',
    "/d.html": b'<html><a href="e.html">E</a></html>',
    "/e.html": b"<html>leaf</html>",
}


def start_server(server_cls=ThreadedDCWSServer, **config_kwargs):
    loc = Location("127.0.0.1", free_port())
    config = ServerConfig(stats_interval=60.0, pinger_interval=60.0,
                          **config_kwargs)
    engine = DCWSEngine(loc, config, MemoryStore(dict(SITE)),
                        entry_points=["/index.html"])
    server = server_cls(engine)
    server.start()
    return server


@pytest.fixture()
def server():
    srv = start_server()
    try:
        yield srv
    finally:
        srv.stop()


def request_bytes(target: str, *, keep_alive=True, version="HTTP/1.0"):
    connection = "keep-alive" if keep_alive else "close"
    return (f"GET {target} {version}\r\n"
            f"Connection: {connection}\r\n\r\n").encode("latin-1")


def roundtrip(sock: socket.socket, buffer: bytearray, target: str, **kwargs):
    sock.sendall(request_bytes(target, **kwargs))
    response, __ = read_framed_response(sock, buffer)
    return response


class TestKeepAliveFrontEnd:
    def test_many_requests_one_connection(self, server):
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=5.0) as sock:
            buffer = bytearray()
            for __ in range(6):
                response = roundtrip(sock, buffer, "/d.html")
                assert response.status == 200
                assert response.headers.facts().keep_alive
                assert b"e.html" in response.body
        assert server.connections_accepted == 1
        assert server.engine.stats.requests == 6

    def test_pipelined_requests_each_answered(self, server):
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=5.0) as sock:
            sock.sendall(request_bytes("/d.html") + request_bytes("/e.html")
                         + request_bytes("/index.html"))
            buffer = bytearray()
            bodies = []
            for __ in range(3):
                response, __framed = read_framed_response(sock, buffer)
                assert response.status == 200
                bodies.append(response.body)
        assert bodies == [SITE["/d.html"], SITE["/e.html"],
                          SITE["/index.html"]]
        assert server.connections_accepted == 1

    def test_connection_close_honored(self, server):
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=5.0) as sock:
            response = roundtrip(sock, bytearray(), "/e.html",
                                 keep_alive=False)
            assert response.status == 200
            assert response.headers.facts().close
            assert sock.recv(1) == b""  # server closed

    def test_http11_defaults_to_keep_alive(self, server):
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=5.0) as sock:
            sock.sendall(b"GET /e.html HTTP/1.1\r\nHost: h\r\n\r\n")
            buffer = bytearray()
            first, __ = read_framed_response(sock, buffer)
            assert first.headers.facts().keep_alive
            sock.sendall(b"GET /e.html HTTP/1.1\r\nHost: h\r\n\r\n")
            second, __ = read_framed_response(sock, buffer)
            assert second.status == 200
        assert server.connections_accepted == 1

    def test_idle_timeout_closes_connection(self):
        srv = start_server(keep_alive_timeout=0.3)
        try:
            with socket.create_connection(("127.0.0.1", srv.port),
                                          timeout=5.0) as sock:
                assert roundtrip(sock, bytearray(), "/e.html").status == 200
                sock.settimeout(3.0)
                assert sock.recv(1) == b""  # closed after the idle window
        finally:
            srv.stop()

    def test_per_connection_request_cap(self):
        srv = start_server(keep_alive_max_requests=2)
        try:
            with socket.create_connection(("127.0.0.1", srv.port),
                                          timeout=5.0) as sock:
                buffer = bytearray()
                first = roundtrip(sock, buffer, "/e.html")
                assert first.headers.facts().keep_alive
                second = roundtrip(sock, buffer, "/e.html")
                assert second.headers.facts().close
                assert sock.recv(1) == b""
        finally:
            srv.stop()

    @pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
    def test_capped_response_carries_no_keep_alive_header(self, front_end):
        # ``Keep-Alive: timeout=..`` beside ``Connection: close`` makes
        # http.client hold on to an HTTP/1.0 channel the server closed.
        srv = start_server(FRONT_ENDS[front_end], keep_alive_max_requests=2)
        client = http.client.HTTPConnection("127.0.0.1", srv.port,
                                            timeout=5.0)
        try:
            heads = []
            for __ in range(5):
                client.request("GET", "/e.html")
                response = client.getresponse()
                assert response.read() == SITE["/e.html"]
                heads.append((response.getheader("Connection"),
                              response.getheader("Keep-Alive")))
            assert heads[0] == ("keep-alive", "timeout=5, max=2")
            assert heads[1] == ("close", None)
            # The client reconnected unasked — and the capped reply's
            # edits stayed on that reply: the engine frames the head of
            # a cached document once (here for request 2) and every
            # later reply is a copy of the block it kept.
            assert heads[2] == heads[0]
            assert heads[3] == ("close", None)
            assert heads[4] == heads[0]
            assert srv.connections_accepted == 3
        finally:
            client.close()
            srv.stop()

    def test_stop_does_not_wait_out_an_idle_peer(self):
        srv = start_server()
        try:
            with socket.create_connection(("127.0.0.1", srv.port),
                                          timeout=5.0) as sock:
                assert roundtrip(sock, bytearray(), "/e.html").status == 200
                began = time.monotonic()
                srv.stop()  # a worker is parked in recv on this socket
                assert time.monotonic() - began < 1.0
                assert sock.recv(1) == b""
        finally:
            srv.stop()


class TestRequestReadHardening:
    def test_truncated_body_rejected_with_400(self, server):
        """Regression: a peer closing mid-body used to yield a silently
        truncated request that was then dispatched."""
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=5.0) as sock:
            sock.sendall(b"POST /e.html HTTP/1.0\r\n"
                         b"Content-Length: 50\r\n\r\npartial")
            sock.shutdown(socket.SHUT_WR)
            response, __ = read_framed_response(sock, bytearray())
        assert response.status == 400

    def test_garbage_still_answered_400(self, server):
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=5.0) as sock:
            sock.sendall(b"NOT-HTTP\r\n\r\n")
            data = sock.recv(65536)
        assert b"400" in data.split(b"\r\n")[0]


class TestLockFreeDropCounter:
    def test_503_sent_while_engine_lock_is_held(self):
        """Regression: recording a drop used to grab the engine lock on the
        front-end thread, stalling the accept loop under exactly the
        overload that causes drops."""
        loc = Location("127.0.0.1", free_port())
        config = ServerConfig(worker_threads=1, socket_queue_length=1,
                              stats_interval=60.0, pinger_interval=60.0)
        engine = DCWSEngine(loc, config, MemoryStore(dict(SITE)))
        srv = ThreadedDCWSServer(engine, request_timeout=5.0,
                                 tick_period=0.1)
        srv.start()
        held = []
        try:
            srv._lock.acquire()
            try:
                # Stall the only worker and fill the one-slot queue.
                for __ in range(2):
                    held.append(socket.create_connection(
                        ("127.0.0.1", srv.port), timeout=5.0))
                    time.sleep(0.2)
                # The next connection must be 503-dropped by the front-end
                # even though the engine lock is held.
                extra = socket.create_connection(("127.0.0.1", srv.port),
                                                 timeout=5.0)
                held.append(extra)
                extra.settimeout(2.0)
                data = extra.recv(65536)
                assert b"503" in data.split(b"\r\n")[0]
                assert srv._drops_recorded >= 1
            finally:
                srv._lock.release()
            # Once the lock is free, the periodic thread drains the counter
            # into the engine metrics.
            deadline = time.time() + 5.0
            while time.time() < deadline:
                with srv._lock:
                    if srv._drops_drained >= 1:
                        break
                time.sleep(0.05)
            else:
                pytest.fail("drop counter never drained into metrics")
        finally:
            for connection in held:
                try:
                    connection.close()
                except OSError:
                    pass
            srv.stop()


class TestServerToServerPooling:
    def test_pool_reuses_channels_across_transfers(self):
        """Channel-reuse proof: server-to-server connection opens stay
        below the number of transfers (pulls + validations + pings)."""
        home_loc = Location("127.0.0.1", free_port())
        coop_loc = Location("127.0.0.1", free_port())
        config = ServerConfig(stats_interval=0.5, pinger_interval=0.5,
                              validation_interval=1.0,
                              migration_hit_threshold=1.0)
        home_engine = DCWSEngine(home_loc, config, MemoryStore(dict(SITE)),
                                 entry_points=["/index.html"],
                                 peers=[coop_loc])
        coop_engine = DCWSEngine(coop_loc, config, MemoryStore(),
                                 peers=[home_loc])
        home = ThreadedDCWSServer(home_engine, tick_period=0.1)
        coop = ThreadedDCWSServer(coop_engine, tick_period=0.1)
        home.start()
        coop.start()
        try:
            with home._lock:
                home.engine.policy.force_migrate("/d.html", coop_loc,
                                                 time.monotonic())
                home.engine.policy.force_migrate("/e.html", coop_loc,
                                                 time.monotonic())
            # Follow the redirects: each first hit makes the co-op pull
            # the bytes from home over a pooled channel.
            for path in ("/d.html", "/e.html"):
                outcome = fetch_url(URL("127.0.0.1", home.port, path))
                assert outcome.status == 200
            # Let validations and pings accumulate on the same channels.
            deadline = time.time() + 8.0
            while time.time() < deadline and coop.pool.requests < 5:
                time.sleep(0.1)
            assert coop.pool.requests >= 5
            assert coop.pool.opens < coop.pool.requests
            assert coop.pool.reuses >= 1
        finally:
            home.stop()
            coop.stop()
