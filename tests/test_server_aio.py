"""The event-loop front end over real sockets.

Exercises the nonblocking paths the thread-per-connection server never
hits: dribbled request bytes interleaved with other connections, idle
and slowloris read-deadline reaping, pipelining through the loop,
mid-response client disconnect, and admission control (connection cap
shed with 503 + Retry-After).
"""

import re
import socket
import struct
import time

import pytest

from repro.client.realclient import fetch_url
from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.server.aio import _REAP_PERIOD, AsyncDCWSServer
from repro.server.engine import DCWSEngine
from repro.server.filestore import MemoryStore
from repro.http.urls import URL
from tests.support import free_port

SITE = {
    "/index.html": b'<html><a href="d.html">D</a></html>',
    "/d.html": b"<html>doc</html>",
    "/big.html": b"<html>" + b"x" * 200_000 + b"</html>",
}


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


def start_small_buffered(server: AsyncDCWSServer) -> None:
    """Start *server* on a listener whose accepted sockets inherit a
    send buffer far smaller than ``/big.html`` (loopback autotunes the
    default one to megabytes, and nothing would ever be queued)."""
    listener = socket.socket()
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
    listener.bind(("127.0.0.1", server.port))
    listener.listen(16)
    server.start(listener)
    assert server.wait_ready()


def small_window_connect(server: AsyncDCWSServer) -> socket.socket:
    """A client whose receive buffer (set before the handshake, so the
    window is small from the start) cannot hold ``/big.html`` either."""
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.settimeout(5.0)
    sock.connect(("127.0.0.1", server.port))
    return sock


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


    def test_request_split_across_two_recvs(self, server):
        with connect(server) as sock:
            sock.sendall(b"GET /d.html HTTP/1.1\r\nHo")
            time.sleep(0.1)
            sock.sendall(b"st: h\r\n\r\n")
            data = sock.recv(65536)
        assert data.split(b"\r\n")[0].endswith(b"200 OK")
        assert data.endswith(SITE["/d.html"])

    def test_request_followed_by_half_of_the_next(self, server):
        """The parser's exact-consume branch must not eat the tail."""
        with connect(server) as sock:
            sock.sendall(b"GET /d.html HTTP/1.1\r\nHost: h\r\n\r\n"
                         b"GET /index.html HTTP/1.1\r\nHo")
            first = sock.recv(65536)
            assert first.endswith(SITE["/d.html"])
            time.sleep(0.1)
            sock.sendall(b"st: h\r\nConnection: close\r\n\r\n")
            second = recv_until_close(sock)
        assert second.split(b"\r\n")[0].endswith(b"200 OK")
        assert second.endswith(SITE["/index.html"])


def wait_for(condition, timeout=3.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(0.01)
    return condition()


def open_connections(server):
    return len(list(server._connections))


class TestDeadlines:
    def test_idle_connection_reaped_on_schedule_among_64_others(self):
        """Deadlines are checked every ``_REAP_PERIOD``, not every loop
        pass: an idle connection still goes within its timeout plus one
        period, and nobody else goes with it."""
        config = ServerConfig(stats_interval=60.0, pinger_interval=60.0,
                              keep_alive_timeout=0.4)
        with make_server(config, request_timeout=5.0) as server:
            assert server.wait_ready()
            others = [connect(server) for __ in range(64)]
            try:
                assert wait_for(lambda: open_connections(server) == 64)
                with connect(server) as sock:
                    sock.sendall(b"GET /d.html HTTP/1.1\r\nHost: h\r\n\r\n")
                    assert sock.recv(65536)
                    served = time.monotonic()
                    sock.settimeout(3.0)
                    assert recv_until_close(sock) == b""
                    waited = time.monotonic() - served
                assert 0.3 < waited < 0.4 + _REAP_PERIOD + 0.3
                assert wait_for(lambda: open_connections(server) == 64)
            finally:
                for other in others:
                    other.close()

    def test_slowloris_reaped_on_schedule_among_64_others(self):
        config = ServerConfig(stats_interval=60.0, pinger_interval=60.0,
                              keep_alive_timeout=5.0)
        with make_server(config, request_timeout=0.6) as server:
            assert server.wait_ready()
            others = [connect(server) for __ in range(64)]
            try:
                for other in others:   # idle keep-alive peers, 5 s each
                    other.sendall(b"GET /d.html HTTP/1.1\r\nHost: h\r\n\r\n")
                    assert other.recv(65536)
                with connect(server) as sock:
                    sock.settimeout(5.0)
                    started = time.monotonic()
                    closed_after = None
                    for byte in b"GET /never-finishes.html HTTP/1.0" * 4:
                        try:
                            sock.sendall(bytes([byte]))
                            if _readable(sock) and sock.recv(65536) == b"":
                                closed_after = time.monotonic() - started
                                break
                        except OSError:
                            closed_after = time.monotonic() - started
                            break
                        time.sleep(0.05)
                assert closed_after is not None, "the dribble was kept"
                assert closed_after < 0.6 + _REAP_PERIOD + 0.3
                assert open_connections(server) == 64
            finally:
                for other in others:
                    other.close()

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


    def test_reset_mid_write_survived(self):
        """A peer that resets while its reply is only partly written
        loses its connection; the loop and its other clients do not."""
        config = ServerConfig(stats_interval=60.0, pinger_interval=60.0)
        server = make_server(config)
        start_small_buffered(server)
        try:
            sock = small_window_connect(server)
            sock.sendall(b"GET /big.html HTTP/1.1\r\nHost: h\r\n\r\n")
            assert wait_for(lambda: any(
                conn.out for conn in list(server._connections.values())))
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            sock.close()    # RST: the queued remainder has nowhere to go
            assert wait_for(lambda: open_connections(server) == 0)
            outcome = fetch_url(URL("127.0.0.1", server.port, "/d.html"))
            assert outcome.status == 200
        finally:
            server.stop()


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
        # pressure threshold: a document whose link target moved (it
        # needs a splice) 503s, clean ones still serve.
        config = ServerConfig(stats_interval=60.0, pinger_interval=60.0,
                              max_connections=2, shed_pressure=0.5)
        with make_server(config) as server:
            assert server.wait_ready()
            with server._lock:
                server.engine.policy.force_migrate(
                    "/d.html", Location("127.0.0.1", 1), now=0.0)
            with connect(server) as sock:
                sock.sendall(b"GET /index.html HTTP/1.1\r\nHost: h\r\n\r\n")
                dirty = sock.recv(65536)
                sock.sendall(b"GET /big.html HTTP/1.1\r\nHost: h\r\n\r\n")
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
                        if server._drops_drained >= 1:
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


    def test_stalled_reader_gets_every_byte_in_order(self):
        """A body larger than the socket buffers against a reader that
        stalls: the direct write takes a part, the queue the rest, reads
        pause at ``write_buffer_limit`` — and three pipelined requests
        behind the remainder are answered in order once it drains."""
        config = ServerConfig(stats_interval=60.0, pinger_interval=60.0,
                              write_buffer_limit=16 * 1024)
        server = make_server(config)
        start_small_buffered(server)
        try:
            with small_window_connect(server) as sock:
                sock.sendall(b"GET /big.html HTTP/1.1\r\nHost: h\r\n\r\n")

                def stalled():
                    conns = list(server._connections.values())
                    return bool(conns) and bool(conns[0].out) \
                        and conns[0].reads_paused
                assert wait_for(stalled)
                (conn,) = server._connections.values()
                queued = len(conn.out)
                # The kernel took the front of the reply directly; only
                # the rest was queued.
                assert 16 * 1024 <= queued < len(SITE["/big.html"])
                sock.sendall(b"GET /d.html HTTP/1.1\r\nHost: h\r\n\r\n"
                             b"GET /big.html HTTP/1.1\r\nHost: h\r\n\r\n"
                             b"GET /index.html HTTP/1.1\r\nHost: h\r\n"
                             b"Connection: close\r\n\r\n")
                data = recv_until_close(sock)
        finally:
            server.stop()
        expected = [SITE["/big.html"], SITE["/d.html"], SITE["/big.html"],
                    SITE["/index.html"]]
        for body in expected:
            head, __, data = data.partition(b"\r\n\r\n")
            assert head.split(b"\r\n")[0].endswith(b"200 OK")
            assert f"Content-Length: {len(body)}".encode() in head
            assert data[:len(body)] == body
            data = data[len(body):]
        assert data == b""


    def test_whole_chunk_gets_to_a_reader_that_never_reads_pause(self):
        """Warm GETs that each arrive as one whole chunk take the
        whole-chunk turn, answered within the ``recv`` that brought
        them; against a client that never reads, the loop must still
        stop reading at ``write_buffer_limit``, holding no more than the
        limit plus one response, and every answer must arrive in order
        once the client drains."""
        limit = 16 * 1024
        config = ServerConfig(stats_interval=60.0, pinger_interval=60.0,
                              write_buffer_limit=limit,
                              keep_alive_max_requests=1000)
        server = make_server(config)
        start_small_buffered(server)
        raw = b"GET /d.html HTTP/1.1\r\nHost: h\r\n\r\n"
        try:
            with small_window_connect(server) as sock:
                sock.sendall(raw)       # warm the copy cache, then read
                first = sock.recv(65536)
                assert first.endswith(SITE["/d.html"])
                (conn,) = server._connections.values()
                sent = 1
                while sent < 400 and not conn.reads_paused:
                    sock.sendall(raw)   # one whole request per send,
                    sent += 1           # answered before the next one
                    assert wait_for(lambda: conn.served == sent
                                    or conn.reads_paused)
                assert conn.reads_paused
                queued = len(conn.out)
                assert limit <= queued < limit + len(first)
                time.sleep(0.2)         # paused: nothing more is read
                assert len(conn.out) == queued and conn.reads_paused
                sock.sendall(raw[:-2] + b"Connection: close\r\n\r\n")
                data = recv_until_close(sock)
        finally:
            server.stop()
        statuses = re.findall(rb"HTTP/1\.\d (\d+) ", data)
        assert statuses == [b"200"] * sent
        assert data.count(SITE["/d.html"]) == sent


class TestHealthAndLifecycle:
    def test_health_endpoint_bypasses_accounting(self, server):
        engine = server.engine
        before = (engine.stats.requests, engine.stats.bytes_sent)
        outcome = fetch_url(URL("127.0.0.1", server.port, "/~dcws/health"))
        assert outcome.status == 200
        with server._lock:
            after = (engine.stats.requests, engine.stats.bytes_sent)
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
