"""Real-socket overload behaviour: the front-end's graceful 503 drop."""

import socket
import time

import pytest

from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.server.engine import DCWSEngine
from repro.server.filestore import MemoryStore
from repro.server.threaded import ThreadedDCWSServer


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@pytest.fixture()
def tiny_server():
    """One worker, queue length one: trivially overloadable."""
    loc = Location("127.0.0.1", free_port())
    config = ServerConfig(worker_threads=1, socket_queue_length=1,
                          stats_interval=60.0, pinger_interval=60.0)
    engine = DCWSEngine(loc, config, MemoryStore(
        {"/a.html": b"<html>tiny</html>"}))
    server = ThreadedDCWSServer(engine, request_timeout=3.0)
    server.start()
    try:
        yield server
    finally:
        server.stop()


def open_stalled_connection(port: int) -> socket.socket:
    """Connect but send nothing: occupies a worker until its timeout."""
    connection = socket.create_connection(("127.0.0.1", port), timeout=5.0)
    return connection


def test_queue_overflow_answers_503(tiny_server):
    port = tiny_server.port
    held = []
    try:
        # First connection occupies the only worker (blocked reading);
        # second fills the queue; give the front-end time to hand off.
        for __ in range(2):
            held.append(open_stalled_connection(port))
            time.sleep(0.2)
        # The third must be dropped gracefully with a 503 (section 5.2).
        extra = socket.create_connection(("127.0.0.1", port), timeout=5.0)
        held.append(extra)
        data = extra.recv(65536)
        assert b"503" in data.split(b"\r\n")[0]
        assert b"Service Unavailable" in data
    finally:
        for connection in held:
            try:
                connection.close()
            except OSError:
                pass


def test_drop_recorded_in_metrics(tiny_server):
    port = tiny_server.port
    held = []
    try:
        for __ in range(3):
            held.append(open_stalled_connection(port))
            time.sleep(0.2)
        deadline = time.time() + 5.0
        while time.time() < deadline:
            with tiny_server._lock:
                if tiny_server._drops_drained >= 1:
                    return
            time.sleep(0.1)
        pytest.fail("drop was never recorded in the engine metrics")
    finally:
        for connection in held:
            try:
                connection.close()
            except OSError:
                pass
