"""Zero-copy serve path: cached bodies travel to the socket unduplicated.

Three layers are covered:

- the engine fast path hands out the *same* bytes object the byte cache
  holds (no per-request serialize-and-copy);
- the threaded front end's gather write (``socket.sendmsg``) puts
  memoryviews over the head and the cached body on the wire without
  ever calling the monolithic ``Response.serialize()``;
- the event-loop out-queue advances through partial writes by slicing
  memoryviews, never rebuilding byte strings;
- the event loop's direct write hands ``sendmsg`` the head and the cached
  body object itself, and queues only what the kernel did not take;
- disk-backed bodies above ``sendfile_min_bytes`` ride ``os.sendfile``
  (``socket.sendfile``) instead of being read into Python at all.
"""

import os
import socket
import time

import pytest

from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.http.messages import Request, Response
from repro.server.aio import AsyncDCWSServer, _Connection, _OutQueue
from repro.server.engine import DCWSEngine, EngineReply
from repro.server.filestore import DiskStore, MemoryStore
from repro.server.threaded import ThreadedDCWSServer, send_response
from tests.support import free_port

HOME = Location("127.0.0.1", 8001)

SITE = {
    "/index.html": b"<html>index</html>",
    "/big.html": b"<html>" + b"z" * 4000 + b"</html>",
}


def make_engine(**config_kwargs):
    config_kwargs.setdefault("stats_interval", 1000.0)
    engine = DCWSEngine(HOME, ServerConfig(**config_kwargs),
                        MemoryStore(SITE), entry_points=[], peers=())
    engine.initialize(0.0)
    return engine


def get(engine, path, now=1.0, headers=None):
    request = Request(method="GET", target=path)
    for name, value in (headers or {}).items():
        request.headers.set(name, value)
    return engine.handle_request(request, now)


class TestEngineBodyIdentity:
    def test_repeat_get_serves_the_cached_bytes_object(self):
        engine = make_engine()
        first = get(engine, "/big.html", now=1.0)
        assert isinstance(first, EngineReply)
        cached_body = first.response.body
        second = get(engine, "/big.html", now=2.0)
        # Identity, not equality: the hot path must not copy the body.
        assert second.response.body is cached_body

    def test_fast_path_reuses_cached_body(self):
        engine = make_engine()
        first = get(engine, "/big.html", now=1.0)
        request = Request(method="GET", target="/big.html")
        hit = engine.fast_lookup(request, 2.0)
        assert hit is not None
        reply = engine.fast_commit(hit, request, 2.0)
        assert reply.response.body is first.response.body


class _RecordingConnection:
    """A fake socket capturing exactly what the gather write was given.

    ``wire`` is what a peer would have received: of every ``sendmsg``,
    the bytes the call reported as taken.  ``fail_with`` makes the next
    ``sendmsg`` raise instead (a reset peer, a full socket buffer).
    """

    def __init__(self, sendmsg_limit=None):
        self.sendmsg_calls = []
        self.sendall_data = b""
        self.sendmsg_limit = sendmsg_limit
        self.wire = b""
        self.fail_with = None
        self.closed = False

    def sendmsg(self, buffers):
        if self.fail_with is not None:
            error, self.fail_with = self.fail_with, None
            raise error
        buffers = list(buffers)
        self.sendmsg_calls.append(buffers)
        total = sum(len(b) for b in buffers)
        if self.sendmsg_limit is not None:
            total = min(total, self.sendmsg_limit)
        self.wire += b"".join(bytes(b) for b in buffers)[:total]
        return total

    def sendall(self, data):
        self.sendall_data += bytes(data)

    def shutdown(self, how):
        pass

    def close(self):
        self.closed = True


class TestThreadedGatherWrite:
    def test_sendmsg_receives_view_over_the_exact_body_object(self):
        body = b"B" * 2048
        response = Response(status=200, body=body)
        connection = _RecordingConnection()
        send_response(connection, response)
        flat = [view for call in connection.sendmsg_calls for view in call]
        assert len(flat) >= 2
        body_view = flat[-1]
        assert isinstance(body_view, memoryview)
        assert body_view.obj is body  # zero body-byte copies

    def test_serialize_never_called_on_gather_path(self, monkeypatch):
        calls = {"n": 0}
        original = Response.serialize

        def counting(self):
            calls["n"] += 1
            return original(self)

        monkeypatch.setattr(Response, "serialize", counting)
        response = Response(status=200, body=b"X" * 512)
        send_response(_RecordingConnection(), response)
        assert calls["n"] == 0

    def test_partial_sendmsg_completes_without_copying_head_plus_body(self):
        body = b"C" * 1000
        response = Response(status=200, body=body)
        connection = _RecordingConnection(sendmsg_limit=7)
        send_response(connection, response)
        # Reassemble exactly what hit the wire across the partial writes.
        wire_parts = []
        for call in connection.sendmsg_calls:
            total = min(sum(len(b) for b in call), 7)
            taken = 0
            for view in call:
                take = min(len(view), total - taken)
                wire_parts.append(bytes(view[:take]))
                taken += take
                if taken == total:
                    break
        wire = b"".join(wire_parts)
        assert wire == response.serialize_head() + body


class TestOutQueue:
    def test_segments_kept_by_reference(self):
        queue = _OutQueue()
        head, body = b"HEAD", b"BODY" * 100
        queue.append(head)
        queue.append(body)
        buffers = queue.buffers()
        assert buffers[0].obj is head
        assert buffers[1].obj is body

    def test_advance_slices_without_rebuilding(self):
        queue = _OutQueue()
        body = b"0123456789"
        queue.append(body)
        queue.advance(4)
        (view,) = queue.buffers()
        assert bytes(view) == b"456789"
        assert view.obj is body  # a slice of the same buffer, not a copy
        queue.advance(6)
        assert not queue
        assert len(queue) == 0

    def test_empty_appends_ignored(self):
        queue = _OutQueue()
        queue.append(b"")
        assert not queue


class TestLoopDirectWrite:
    """``AsyncDCWSServer._enqueue_response`` against a recording socket
    (the server is never started: no loop, no selector)."""

    def _host(self, sendmsg_limit=None, **config_kwargs):
        server = AsyncDCWSServer(make_engine(**config_kwargs))
        sock = _RecordingConnection(sendmsg_limit)
        conn = _Connection(sock, deadline=time.monotonic() + 60.0)
        server._connections[sock] = conn
        return server, sock, conn

    @staticmethod
    def _request(path="/big.html", method="GET", version="HTTP/1.1",
                 **headers):
        request = Request(method=method, target=path, version=version)
        for name, value in headers.items():
            request.headers.set(name.replace("_", "-"), value)
        return request

    def _serve(self, server, conn, request, now=1.0):
        reply = server._engine_dispatch(request, now)
        server._enqueue_response(conn, request, reply.response)
        return reply.response

    def test_sendmsg_receives_the_cached_body_object_itself(self):
        server, sock, conn = self._host()
        first = self._serve(server, conn, self._request())
        second = self._serve(server, conn, self._request(), now=2.0)
        assert second.body is first.body    # the response cache's bytes
        for head, body in sock.sendmsg_calls:
            assert isinstance(head, bytes) and body is first.body
        assert len(sock.sendmsg_calls) == 2   # one gather write a turn
        assert not conn.out and sock in server._connections
        assert sock.wire == first.serialize_head() + first.body \
            + second.serialize_head() + second.body

    def test_head_and_304_leave_in_one_sendmsg(self):
        server, sock, conn = self._host()
        full = self._serve(server, conn, self._request())
        head = self._serve(server, conn, self._request(method="HEAD"))
        etag = full.headers.get("ETag")
        unchanged = self._serve(
            server, conn, self._request(If_None_Match=etag))
        assert unchanged.status == 304 and head.body == b""
        assert len(sock.sendmsg_calls) == 3 and not conn.out
        assert sock.wire.endswith(
            head.serialize_head() + unchanged.serialize_head())

    def test_the_queue_gets_only_what_the_kernel_did_not_take(self):
        server, sock, conn = self._host(sendmsg_limit=1000)
        response = self._serve(server, conn, self._request())
        total = len(response.serialize_head()) + len(response.body)
        # The direct write took 1000, the flush behind it 1000 more.
        assert len(conn.out) == total - 2000
        assert len(sock.sendmsg_calls[0]) == 2
        assert sock.sendmsg_calls[0][1] is response.body
        # Two more replies while a remainder is queued go behind it.
        behind = [self._serve(server, conn, self._request(path))
                  for path in ("/index.html", "/big.html")]
        assert all(isinstance(view, memoryview)
                   for call in sock.sendmsg_calls[1:] for view in call)
        while conn.out:
            server._flush(conn)
        assert sock.wire == b"".join(
            each.serialize_head() + each.body
            for each in [response] + behind)
        assert sock in server._connections

    def test_a_full_socket_buffer_queues_the_whole_reply(self):
        server, sock, conn = self._host()
        sock.fail_with = BlockingIOError()
        response = self._serve(server, conn, self._request())
        # (The flush behind the refused direct write already took it.)
        assert not conn.out
        assert sock.wire == response.serialize_head() + response.body

    def test_reads_pause_at_the_limit_and_resume_below_half(self):
        server, sock, conn = self._host(sendmsg_limit=1000,
                                        write_buffer_limit=2048)
        request = self._request()
        conn.parser.feed(request.serialize())
        server._pump(conn, 1.0)
        assert len(conn.out) >= 2048 and conn.reads_paused
        while len(conn.out) > 1024:
            assert conn.reads_paused
            server._flush(conn)
        assert not conn.reads_paused
        while conn.out:
            server._flush(conn)
        assert sock.wire.endswith(SITE["/big.html"])

    def test_a_capped_reply_written_directly_still_closes(self):
        server, sock, conn = self._host(keep_alive_max_requests=2)
        self._serve(server, conn, self._request())
        assert sock in server._connections and not sock.closed
        last = self._serve(server, conn, self._request())
        assert last.headers.get("Connection") == "close"
        assert "Keep-Alive" not in last.headers
        assert sock.closed and sock not in server._connections
        assert sock.wire.endswith(last.serialize_head() + last.body)

    def test_a_peer_that_resets_mid_write_only_loses_its_connection(self):
        server, sock, conn = self._host()
        sock.fail_with = ConnectionResetError()
        self._serve(server, conn, self._request())   # must not raise
        assert sock.closed and sock not in server._connections
        assert sock.wire == b""


class TestSendfilePath:
    def _serve_tree(self, tmp_path, body):
        root = tmp_path / "docs"
        root.mkdir()
        (root / "big.html").write_bytes(body)
        (root / "index.html").write_bytes(b"<html>i</html>")
        store = DiskStore(str(root))
        port = free_port()
        config = ServerConfig(stats_interval=1000.0, sendfile_min_bytes=1024,
                              byte_cache_bytes=256)  # too small to cache body
        engine = DCWSEngine(Location("127.0.0.1", port), config, store,
                            entry_points=[], peers=())
        engine.initialize(0.0)
        return engine

    def test_engine_emits_file_body_for_large_disk_documents(self, tmp_path):
        body = b"<html>" + b"s" * 200_000 + b"</html>"
        engine = self._serve_tree(tmp_path, body)
        server = ThreadedDCWSServer(engine, tick_period=5.0)
        server.start()
        try:
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=5) as sock:
                sock.sendall(b"GET /big.html HTTP/1.1\r\nHost: x\r\n"
                             b"Connection: close\r\n\r\n")
                data = b""
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    data += chunk
        finally:
            server.stop()
        head, __, got = data.partition(b"\r\n\r\n")
        assert b" 200 " in head.split(b"\r\n", 1)[0]
        assert got == body
        assert f"Content-Length: {len(body)}".encode() in head

    def test_sendfile_source_gated_below_threshold(self, tmp_path):
        engine = self._serve_tree(tmp_path, b"tiny")
        engine.sendfile_enabled = True
        reply = get(engine, "/big.html")
        assert isinstance(reply, EngineReply)
        assert reply.response.body_file is None  # under sendfile_min_bytes

    def test_disk_store_reports_path_and_size(self, tmp_path):
        root = tmp_path / "d"
        root.mkdir()
        (root / "a.html").write_bytes(b"x" * 77)
        store = DiskStore(str(root))
        source = store.sendfile_source("/a.html")
        assert source is not None
        path, size = source
        assert size == 77
        assert os.path.isfile(path)
        assert store.sendfile_source("/missing.html") is None

    def test_memory_store_never_offers_sendfile(self):
        assert MemoryStore({"/a": b"x"}).sendfile_source("/a") is None
