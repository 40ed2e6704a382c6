"""Strict-framing regression: a corpus of request-smuggling and
Content-Length desync payloads replayed against both live front ends.

Every entry must be answered with 400 — never executed, never allowed to
shift the framing of what follows.  After each payload the server must
still answer a clean request on a fresh connection (no crashed worker, no
wedged loop), and recoverable entries must not desync a request pipelined
behind them on the same connection.  Each entry is replayed twice on
the same server, so the second pass runs against a warm head memo.
"""

import socket
import time

import pytest

from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.server.aio import AsyncDCWSServer
from repro.server.engine import DCWSEngine
from repro.server.filestore import MemoryStore
from repro.server.threaded import ThreadedDCWSServer
from tests.support import free_port

FRONT_ENDS = {"threaded": ThreadedDCWSServer, "aio": AsyncDCWSServer}

PROBE_BODY = b"<html>probe</html>"
SITE = {"/probe.html": PROBE_BODY}

PIPELINED_GET = b"GET /probe.html HTTP/1.1\r\nHost: h\r\n\r\n"

# (payload, recoverable) — recoverable entries frame no body, so the
# connection survives and a pipelined request behind them is served;
# the rest are framing-ambiguous and must close the connection.
CORPUS = [
    pytest.param(b"POST /x HTTP/1.1\r\nHost: h\r\n"
                 b"Content-Length: -20\r\n\r\n", True,
                 id="negative-length"),
    pytest.param(b"POST /x HTTP/1.1\r\nHost: h\r\n"
                 b"Content-Length: +5\r\n\r\n", True,
                 id="plus-sign"),
    pytest.param(b"POST /x HTTP/1.1\r\nHost: h\r\n"
                 b"Content-Length: 0x10\r\n\r\n", True,
                 id="hex"),
    pytest.param(b"POST /x HTTP/1.1\r\nHost: h\r\n"
                 b"Content-Length: 1_0\r\n\r\n", True,
                 id="underscore"),
    pytest.param(b"POST /x HTTP/1.1\r\nHost: h\r\n"
                 b"Content-Length: 4.2\r\n\r\n", True,
                 id="float"),
    pytest.param(b"POST /x HTTP/1.1\r\nHost: h\r\n"
                 b"Content-Length: 5,5\r\n\r\n", True,
                 id="comma-list"),
    pytest.param(b"POST /x HTTP/1.1\r\nHost: h\r\n"
                 b"Content-Length:\r\n\r\n", True,
                 id="empty-value"),
    pytest.param(b"POST /x HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n"
                 b"Content-Length: 30\r\n\r\nhello", False,
                 id="conflicting-duplicates"),
    pytest.param(b"POST /x HTTP/1.1\r\nHost: h\r\n"
                 b"Content-Length : 5\r\n\r\nhello", False,
                 id="space-before-colon"),
    pytest.param(b"GET /x\tHTTP/1.1\r\nHost: h\r\n\r\n", False,
                 id="tab-in-request-line"),
    pytest.param(b"POST /x HTTP/1.1\r\nHost: h\r\n"
                 b"Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n"
                 b"GET /smuggled HTTP/1.1\r\nHost: h\r\n\r\n", False,
                 id="te-chunked-smuggles-get"),
    pytest.param(b"POST /x HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n"
                 b"Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n", False,
                 id="cl-and-te"),
]


@pytest.fixture(params=sorted(FRONT_ENDS))
def server(request):
    location = Location("127.0.0.1", free_port())
    engine = DCWSEngine(location, ServerConfig(stats_interval=0.5),
                        MemoryStore(SITE))
    with FRONT_ENDS[request.param](engine, tick_period=0.1) as running:
        assert running.wait_ready()
        yield running


def exchange(port: int, wire: bytes, *, want: bytes = b"",
             timeout: float = 5.0) -> bytes:
    """Send bytes, read until `want` appears (or EOF / quiesce)."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout) as raw:
        raw.sendall(wire)
        raw.settimeout(1.0)
        data = b""
        deadline = time.time() + timeout
        while time.time() < deadline:
            if want and want in data:
                break
            try:
                chunk = raw.recv(65536)
            except socket.timeout:
                if data:
                    break
                continue
            if not chunk:
                break
            data += chunk
    return data


@pytest.mark.parametrize("payload, recoverable", CORPUS)
def test_corpus_entry_rejected_and_contained(server, payload, recoverable):
    # Twice on one server: the second pass meets a warm head memo (the
    # pipelined GET's head is kept; no refused head ever is), and must
    # reach the same verdict.
    verdicts = []
    for __ in range(2):
        data = exchange(server.port, payload + PIPELINED_GET,
                        want=PROBE_BODY if recoverable else b"")
        status = data.split(b"\r\n")[0].split()[1:2]
        assert status == [b"400"], \
            f"expected a 400 first, got: {data[:80]!r}"
        if recoverable:
            # The malformed head frames no body: it is consumed exactly
            # and the pipelined request behind it is served.
            assert PROBE_BODY in data
        else:
            # Framing is ambiguous — the smuggled request must NOT run.
            assert PROBE_BODY not in data
        verdicts.append((status, PROBE_BODY in data))

        # Whatever happened, the server is still alive for other clients.
        clean = exchange(server.port, PIPELINED_GET, want=PROBE_BODY)
        assert PROBE_BODY in clean
    assert verdicts[0] == verdicts[1]
