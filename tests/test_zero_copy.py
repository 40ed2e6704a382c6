"""Zero-copy serve path: cached bodies travel to the socket unduplicated.

Three layers are covered:

- the engine fast path hands out the *same* bytes object the byte cache
  holds (no per-request serialize-and-copy);
- the threaded front end's gather write (``socket.sendmsg``) puts
  memoryviews over the head and the cached body on the wire without
  ever calling the monolithic ``Response.serialize()``;
- the event-loop out-queue advances through partial writes by slicing
  memoryviews, never rebuilding byte strings;
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
from repro.server.aio import _OutQueue
from repro.server.engine import DCWSEngine, EngineReply
from repro.server.filestore import DiskStore, MemoryStore
from repro.server.threaded import ThreadedDCWSServer, send_response

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
    """A fake socket capturing exactly what the gather write was given."""

    def __init__(self, sendmsg_limit=None):
        self.sendmsg_calls = []
        self.sendall_data = b""
        self.sendmsg_limit = sendmsg_limit

    def sendmsg(self, buffers):
        buffers = list(buffers)
        self.sendmsg_calls.append(buffers)
        total = sum(len(b) for b in buffers)
        if self.sendmsg_limit is not None:
            total = min(total, self.sendmsg_limit)
        return total

    def sendall(self, data):
        self.sendall_data += bytes(data)


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


class TestSendfilePath:
    def _serve_tree(self, tmp_path, body):
        root = tmp_path / "docs"
        root.mkdir()
        (root / "big.html").write_bytes(body)
        (root / "index.html").write_bytes(b"<html>i</html>")
        store = DiskStore(str(root))
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
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
