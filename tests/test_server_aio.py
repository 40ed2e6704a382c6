"""The event-loop front end over real sockets.

Exercises the nonblocking paths the thread-per-connection server never
hits: dribbled request bytes interleaved with other connections, idle
and slowloris read-deadline reaping, pipelining through the loop,
mid-response client disconnect, and admission control (connection cap
shed with 503 + Retry-After).
"""

import re
import socket
import time

import pytest

from repro.client.realclient import fetch_url
from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.server.aio import AsyncDCWSServer
from repro.server.engine import DCWSEngine
from repro.server.filestore import MemoryStore
from repro.http.urls import URL

SITE = {
    "/index.html": b'<html><a href="d.html">D</a></html>',
    "/d.html": b"<html>doc</html>",
    "/big.html": b"<html>" + b"x" * 200_000 + b"</html>",
}


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def make_server(config: ServerConfig, **kwargs) -> AsyncDCWSServer:
    loc = Location("127.0.0.1", free_port())
    engine = DCWSEngine(loc, config, MemoryStore(SITE))
    return AsyncDCWSServer(engine, tick_period=0.05, **kwargs)


@pytest.fixture()
def server():
    config = ServerConfig(stats_interval=60.0, pinger_interval=60.0,
                          keep_alive_timeout=0.4)
    with make_server(config, request_timeout=0.8) as server:
        assert server.wait_ready()
        yield server


def connect(server: AsyncDCWSServer) -> socket.socket:
    return socket.create_connection(("127.0.0.1", server.port), timeout=5.0)


def recv_until_close(sock: socket.socket) -> bytes:
    data = bytearray()
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return bytes(data)
        data.extend(chunk)


class TestServing:
    def test_serves_document(self, server):
        outcome = fetch_url(URL("127.0.0.1", server.port, "/d.html"))
        assert outcome.status == 200
        assert outcome.size == len(SITE["/d.html"])

    def test_keep_alive_many_requests_one_connection(self, server):
        with connect(server) as sock:
            for __ in range(5):
                sock.sendall(b"GET /d.html HTTP/1.1\r\nHost: h\r\n\r\n")
                head = sock.recv(65536)
                assert head.split(b"\r\n")[0].endswith(b"200 OK")
        assert server.connections_accepted == 1

    def test_pipelined_requests_answered_in_order(self, server):
        with connect(server) as sock:
            sock.sendall(b"GET /d.html HTTP/1.1\r\nHost: h\r\n\r\n"
                         b"GET /ghost.html HTTP/1.1\r\nHost: h\r\n\r\n"
                         b"GET /index.html HTTP/1.1\r\nHost: h\r\n"
                         b"Connection: close\r\n\r\n")
            data = recv_until_close(sock)
        # Responses are back-to-back (no separator after a body), so pull
        # status lines by pattern rather than splitting on CRLF.
        statuses = re.findall(rb"HTTP/1\.0 (\d+) ", data)
        assert statuses == [b"200", b"404", b"200"]

    def test_dribbled_request_bytes(self, server):
        with connect(server) as sock:
            wire = b"GET /d.html HTTP/1.0\r\nHost: h\r\n\r\n"
            for index in range(len(wire)):
                sock.sendall(wire[index:index + 1])
            data = recv_until_close(sock)
        assert data.split(b"\r\n")[0].endswith(b"200 OK")

    def test_bad_request_answered_400(self, server):
        with connect(server) as sock:
            sock.sendall(b"NOT-HTTP\r\n\r\n")
            data = recv_until_close(sock)
        assert b"400" in data.split(b"\r\n")[0]

    def test_post_body_roundtrip(self, server):
        with connect(server) as sock:
            sock.sendall(b"POST /d.html HTTP/1.0\r\nContent-Length: 5\r\n"
                         b"\r\nhello")
            data = recv_until_close(sock)
        assert data.split(b"\r\n")[0].endswith(b"200 OK")

    def test_concurrent_connections_interleave(self, server):
        """Dribbling one connection never stalls another (no worker to pin)."""
        with connect(server) as slow, connect(server) as fast:
            slow.sendall(b"GET /d.h")  # parked mid-head
            start = time.monotonic()
            fast.sendall(b"GET /d.html HTTP/1.0\r\n\r\n")
            data = recv_until_close(fast)
            elapsed = time.monotonic() - start
        assert data.split(b"\r\n")[0].endswith(b"200 OK")
        assert elapsed < 0.5


class TestDeadlines:
    def test_idle_keep_alive_connection_reaped(self, server):
        with connect(server) as sock:
            sock.sendall(b"GET /d.html HTTP/1.1\r\nHost: h\r\n\r\n")
            assert sock.recv(65536)
            # Past keep_alive_timeout (0.4 s) the loop closes the socket.
            sock.settimeout(3.0)
            assert recv_until_close(sock) == b""

    def test_slowloris_dribble_is_killed(self, server):
        """Bytes trickling in must NOT extend the read deadline."""
        with connect(server) as sock:
            sock.settimeout(5.0)
            start = time.monotonic()
            # One byte every 0.2 s would keep a per-byte timer alive
            # forever; the per-request deadline (0.8 s) must still fire.
            for byte in b"GET /never-finishes.html HTTP/1.0":
                try:
                    sock.sendall(bytes([byte]))
                    if _readable(sock) and sock.recv(65536) == b"":
                        break  # FIN from the reaper
                except OSError:
                    break  # RST from the reaper
                time.sleep(0.2)
            else:
                pytest.fail("server kept reading the dribble")
            assert time.monotonic() - start < 4.0

    def test_mid_response_disconnect_survived(self, server):
        with connect(server) as sock:
            sock.sendall(b"GET /big.html HTTP/1.1\r\nHost: h\r\n\r\n")
            sock.recv(256)  # take a slice of the response, then vanish
        # The loop must shrug it off and keep serving others.
        outcome = fetch_url(URL("127.0.0.1", server.port, "/d.html"))
        assert outcome.status == 200


class TestServePathRealism:
    def test_conditional_304_through_loop(self, server):
        with connect(server) as sock:
            sock.sendall(b"GET /d.html HTTP/1.1\r\nHost: h\r\n\r\n")
            head = sock.recv(65536)
            etag = re.search(rb'ETag: ("[^"]+")', head).group(1)
            sock.sendall(b"GET /d.html HTTP/1.1\r\nHost: h\r\n"
                         b"If-None-Match: " + etag + b"\r\n\r\n")
            data = sock.recv(65536)
        assert re.match(rb"HTTP/1\.\d 304 ", data)
        # A 304 ends at its blank line — no body follows.
        assert data.endswith(b"\r\n\r\n")

    def test_hosted_hits_from_a_plain_client_is_just_a_header(self, server):
        """Neither a number nor garbage in ``X-DCWS-Hosted-Hits`` moves
        the document's heat or costs the client its connection."""
        with connect(server) as sock:
            for value in (b"100000", b"abc"):
                sock.sendall(b"GET /d.html HTTP/1.1\r\nHost: h\r\n"
                             b"X-DCWS-Hosted-Hits: " + value + b"\r\n\r\n")
                data = sock.recv(65536)
                assert re.match(rb"HTTP/1\.\d 200 ", data)
                assert data.endswith(SITE["/d.html"])
        with server._lock:
            assert server.engine.graph.get("/d.html").hits == 2

    def test_gzip_negotiated_through_loop(self, server):
        import gzip

        with connect(server) as sock:
            sock.sendall(b"GET /big.html HTTP/1.1\r\nHost: h\r\n"
                         b"Accept-Encoding: gzip\r\n"
                         b"Connection: close\r\n\r\n")
            data = recv_until_close(sock)
        head, __, body = data.partition(b"\r\n\r\n")
        assert b"Content-Encoding: gzip" in head
        assert b"Vary: Accept-Encoding" in head
        assert gzip.decompress(body) == SITE["/big.html"]

    def test_range_206_through_loop(self, server):
        with connect(server) as sock:
            sock.sendall(b"GET /big.html HTTP/1.1\r\nHost: h\r\n"
                         b"Range: bytes=0-5\r\nConnection: close\r\n\r\n")
            data = recv_until_close(sock)
        head, __, body = data.partition(b"\r\n\r\n")
        assert re.match(rb"HTTP/1\.\d 206 ", head)
        assert body == SITE["/big.html"][:6]

    def test_recoverable_400_keeps_pipeline_framed(self, server):
        with connect(server) as sock:
            sock.sendall(b"POST /x HTTP/1.1\r\nHost: h\r\n"
                         b"Content-Length: -20\r\n\r\n"
                         b"GET /d.html HTTP/1.1\r\nHost: h\r\n"
                         b"Connection: close\r\n\r\n")
            data = recv_until_close(sock)
        statuses = re.findall(rb"HTTP/1\.\d (\d+) ", data)
        assert statuses == [b"400", b"200"]

    def test_conflicting_content_length_closes(self, server):
        with connect(server) as sock:
            sock.sendall(b"POST /x HTTP/1.1\r\nHost: h\r\n"
                         b"Content-Length: 5\r\nContent-Length: 30\r\n\r\n"
                         b"hello"
                         b"GET /d.html HTTP/1.1\r\nHost: h\r\n\r\n")
            data = recv_until_close(sock)  # server closes: fatal framing
        statuses = re.findall(rb"HTTP/1\.\d (\d+) ", data)
        assert statuses == [b"400"]

    def test_connection_pressure_sheds_regeneration_only(self):
        # One live connection out of max_connections=2 crosses the 0.5
        # pressure threshold: dirty documents 503, clean ones still serve.
        config = ServerConfig(stats_interval=60.0, pinger_interval=60.0,
                              max_connections=2, shed_pressure=0.5)
        with make_server(config) as server:
            assert server.wait_ready()
            with server._lock:
                server.engine.update_document("/index.html",
                                              SITE["/index.html"])
            with connect(server) as sock:
                sock.sendall(b"GET /index.html HTTP/1.1\r\nHost: h\r\n\r\n")
                dirty = sock.recv(65536)
                sock.sendall(b"GET /d.html HTTP/1.1\r\nHost: h\r\n\r\n")
                clean = sock.recv(65536)
            assert re.match(rb"HTTP/1\.\d 503 ", dirty)
            assert b"Retry-After: 1" in dirty
            assert re.match(rb"HTTP/1\.\d 200 ", clean)
            with server._lock:
                assert server.engine.stats.regenerations_shed == 1


def _readable(sock: socket.socket) -> bool:
    import select

    ready, __, __ = select.select([sock], [], [], 0)
    return bool(ready)


class TestAdmissionControl:
    def test_over_cap_connection_shed_with_503(self):
        config = ServerConfig(stats_interval=60.0, pinger_interval=60.0,
                              max_connections=2)
        with make_server(config) as server:
            assert server.wait_ready()
            held = [connect(server), connect(server)]
            try:
                # Make sure both are registered in the loop first.
                for sock in held:
                    sock.sendall(b"GET /d.html HTTP/1.1\r\nHost: h\r\n\r\n")
                    assert sock.recv(65536)
                extra = connect(server)
                data = recv_until_close(extra)
                extra.close()
            finally:
                for sock in held:
                    sock.close()
            head = data.split(b"\r\n")[0]
            assert b"503" in head
            assert b"Retry-After: 1" in data
            assert server.connections_shed == 1

    def test_shed_recorded_as_drop_metric(self):
        config = ServerConfig(stats_interval=60.0, pinger_interval=60.0,
                              max_connections=1)
        with make_server(config) as server:
            assert server.wait_ready()
            with connect(server) as held:
                held.sendall(b"GET /d.html HTTP/1.1\r\nHost: h\r\n\r\n")
                assert held.recv(65536)
                extra = connect(server)
                recv_until_close(extra)
                extra.close()
                deadline = time.time() + 5.0
                while time.time() < deadline:
                    with server._lock:
                        if server.engine.metrics.drops.lifetime_count >= 1:
                            return
                    time.sleep(0.05)
            pytest.fail("shed connection never reached the drop metric")


class TestBackpressure:
    def test_large_response_to_slow_reader_completes(self):
        """A response bigger than the write buffer limit drains through
        EVENT_WRITE as the client reads, with reads paused meanwhile."""
        config = ServerConfig(stats_interval=60.0, pinger_interval=60.0,
                              write_buffer_limit=16 * 1024)
        with make_server(config) as server:
            assert server.wait_ready()
            with connect(server) as sock:
                sock.sendall(b"GET /big.html HTTP/1.0\r\n\r\n")
                time.sleep(0.3)  # let the server hit the high-water mark
                data = recv_until_close(sock)
        head, __, body = data.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].endswith(b"200 OK")
        assert body == SITE["/big.html"]


class TestHealthAndLifecycle:
    def test_health_endpoint_bypasses_accounting(self, server):
        engine = server.engine
        before = (engine.stats.requests,
                  engine.metrics.connections.lifetime_count)
        outcome = fetch_url(URL("127.0.0.1", server.port, "/~dcws/health"))
        assert outcome.status == 200
        with server._lock:
            after = (engine.stats.requests,
                     engine.metrics.connections.lifetime_count)
        assert before == after

    def test_double_start_rejected(self, server):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            server.start()

    def test_stop_is_idempotent(self):
        config = ServerConfig(stats_interval=60.0, pinger_interval=60.0)
        server = make_server(config)
        server.start()
        assert server.wait_ready()
        server.stop()
        server.stop()  # second stop is a no-op
