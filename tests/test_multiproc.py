"""Multi-process front end: supervisor, workers, forwarding, respawn."""

import base64
import os
import signal
import socket
import threading
import time

import pytest

from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.errors import ReproError
from repro.http.messages import Request, Response, parse_response
from repro.server.engine import DCWSEngine
from repro.server.filestore import MemoryStore
from repro.server.multiproc import (
    WorkerSupervisor,
    _Channel,
    _WorkerHost,
    choose_mode,
)
from repro.server.striping import shard_of

SITE = {f"/doc{i}.html": (b"<html>" + bytes([65 + i % 26]) * 400
                          + b"</html>")
        for i in range(20)}
SITE["/index.html"] = b"<html>index</html>"


def engine_factory(index, location):
    config = ServerConfig(stats_interval=1000.0)
    return DCWSEngine(location, config, MemoryStore(dict(SITE)),
                      entry_points=[])


def fetch(port, path, timeout=5.0):
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: x\r\n"
                     f"Connection: close\r\n\r\n".encode())
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    return data


def status_of(wire):
    return int(wire.split(b" ", 2)[1])


class TestChooseMode:
    def test_platform_default(self):
        if hasattr(socket, "SO_REUSEPORT"):
            assert choose_mode() == "reuseport"
        else:
            assert choose_mode() is None

    def test_none_without_reuseport(self, monkeypatch):
        monkeypatch.delattr(socket, "SO_REUSEPORT", raising=False)
        assert choose_mode() is None


class TestSupervisorValidation:
    def test_rejects_zero_workers(self):
        with pytest.raises(ReproError):
            WorkerSupervisor(engine_factory, 0)

    def test_rejects_platform_without_reuseport(self, monkeypatch):
        monkeypatch.delattr(socket, "SO_REUSEPORT", raising=False)
        with pytest.raises(ReproError):
            WorkerSupervisor(engine_factory, 2)


@pytest.mark.skipif(not hasattr(socket, "SO_REUSEPORT"),
                    reason="no SO_REUSEPORT on this platform")
class TestReuseportCluster:
    def test_two_workers_serve_and_report(self):
        with WorkerSupervisor(engine_factory, 2, port=0) as sup:
            for i in range(10):
                wire = fetch(sup.port, f"/doc{i}.html")
                assert status_of(wire) == 200
                assert SITE[f"/doc{i}.html"] in wire
            def requests():
                return sum(row["requests"] for row in
                           sup.cluster_view()["workers"].values())

            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and requests() < 10:
                time.sleep(0.1)
            assert requests() >= 10
            view = sup.cluster_view()
            assert view["mode"] == "reuseport"
            assert sorted(view["workers"]) == ["0", "1"]
            owned = [s for row in view["workers"].values()
                     for s in row["shards"]]
            assert sorted(owned) == list(range(view["stripes"]))

    def test_workers_admin_endpoint(self):
        with WorkerSupervisor(engine_factory, 2, port=0) as sup:
            fetch(sup.port, "/index.html")
            deadline = time.monotonic() + 5
            body = b""
            while time.monotonic() < deadline:
                body = fetch(sup.port, "/~dcws/workers")
                if b"mode reuseport" in body:
                    break
                time.sleep(0.2)
            assert status_of(body) == 200
            text = body.decode(errors="replace")
            assert "roster 0 1" in text
            assert "mode reuseport" in text
            assert "Shards" in text

    def test_sigkill_worker_respawns(self):
        with WorkerSupervisor(engine_factory, 2, port=0) as sup:
            victim = sup._procs[0].process.pid
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if sup.respawns >= 1 and all(p.alive for p in sup._procs):
                    break
                time.sleep(0.1)
            assert sup.respawns >= 1
            assert all(p.alive for p in sup._procs)
            assert sup._procs[0].process.pid != victim
            for i in range(10):
                assert status_of(fetch(sup.port, f"/doc{i}.html")) == 200


class TestWorkerHostUnits:
    """In-process `_WorkerHost` pieces, no forking involved."""

    def _host(self, worker_index=0, request_timeout=2.0):
        ours, theirs = socket.socketpair()
        engine = engine_factory(worker_index, Location("127.0.0.1", 0))
        engine.initialize(0.0)
        host = _WorkerHost(engine, channel=_Channel(ours),
                           worker_index=worker_index,
                           request_timeout=request_timeout)
        return host, _Channel(theirs)

    def test_owner_mapping_follows_roster(self):
        host, peer = self._host()
        host.handle_message({"kind": "roster", "workers": [0, 1, 2]})
        stripes = host.engine.config.lock_stripes
        for name in SITE:
            shard = shard_of(name, stripes)
            assert host._owner_of(name) == [0, 1, 2][shard % 3]
        host.handle_message({"kind": "roster", "workers": [1]})
        assert all(host._owner_of(name) == 1 for name in SITE)

    def test_forward_round_trip(self):
        host, peer = self._host()
        request = Request(method="GET", target="/doc1.html")
        expected = Response(status=200, body=b"forwarded-body")

        def owner_side():
            message = peer.recv()
            assert message["kind"] == "forward"
            assert message["name"] == "/doc1.html"
            peer.send({"kind": "forward-reply", "id": message["id"],
                       "response": base64.b64encode(
                           expected.serialize()).decode()})

        relay = threading.Thread(target=owner_side, daemon=True)
        relay.start()

        def pump():
            message = host.channel.recv()
            host.handle_message(message)

        pump_thread = threading.Thread(target=pump, daemon=True)
        # The host writes the forward onto its channel; the "supervisor"
        # (peer) answers; the host's reader applies the reply.
        forwarded = {}

        def run_forward():
            forwarded["response"] = host._forward_request("/doc1.html",
                                                          request)

        worker = threading.Thread(target=run_forward, daemon=True)
        worker.start()
        relay.join(5.0)
        pump_thread.start()
        pump_thread.join(5.0)
        worker.join(5.0)
        response = forwarded["response"]
        assert response is not None
        assert response.status == 200
        assert response.body == b"forwarded-body"

    def test_forward_timeout_returns_none(self):
        host, peer = self._host(request_timeout=0.2)
        request = Request(method="GET", target="/doc1.html")
        start = time.monotonic()
        assert host._forward_request("/doc1.html", request) is None
        assert time.monotonic() - start < 2.0
        assert not host._forward_waiters  # no leak

    def test_forward_null_reply_means_execute_locally(self):
        host, peer = self._host()
        request = Request(method="GET", target="/doc1.html")

        def relay():
            message = peer.recv()
            peer.send({"kind": "forward-reply", "id": message["id"],
                       "response": None})
            reply = host.channel.recv()
            host.handle_message(reply)

        threading.Thread(target=relay, daemon=True).start()
        assert host._forward_request("/doc1.html", request) is None

    def test_invalidation_applies(self):
        host, peer = self._host()
        engine = host.engine
        request = Request(method="GET", target="/doc2.html")
        engine.handle_request(request, 1.0)  # populate response cache
        assert engine.fast_lookup(request, 1.5) is not None
        host._apply_invalidations(["/doc2.html"])
        # A fast lookup right after an invalidation misses (cache empty).
        assert engine.fast_lookup(request, 2.0) is None

    def test_local_invalidations_batch_for_broadcast(self):
        host, peer = self._host()
        engine = host.engine
        engine.response_cache.on_invalidate("/doc3.html")
        with host._invalidation_lock:
            assert "/doc3.html" in host._pending_invalidations
