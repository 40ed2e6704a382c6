"""Readers never see a torn page while an author keeps updating it.

The engine lock is the only synchronisation on the serve path: four
keep-alive clients hammer one page over real sockets while the test
thread publishes 200 revisions under ``server._lock`` (the way the CLI
and the benchmark harness update content).  Every 200 must be one
published revision, whole: body, digest and version of the same
revision.  The clients ride ``http.client`` across the per-connection
request cap, so they also depend on a capped response saying
``Connection: close`` without a ``Keep-Alive`` header.
"""

import hashlib
import http.client
import re
import sys
import threading
import time

import pytest

from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.server.engine import DCWSEngine
from repro.server.filestore import MemoryStore
from tests.integration.test_real_servers import FRONT_ENDS
from tests.support import free_port

PAGE = "/page.html"
CLIENTS = 4
UPDATES = 200


def revision(number: int) -> bytes:
    return (f'<html><a href="other.html">o</a> revision={number} '
            .encode() + b"<p>filler</p>" * 40 + b"</html>")


def client_loop(port, stop, seen, errors):
    """GET the page until told to stop; record (version, revision) of
    every 200 and any response that is not one whole revision."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=5.0)
    try:
        while not stop.is_set():
            connection.request("GET", PAGE)
            response = connection.getresponse()
            body = response.read()
            if response.status != 200:
                errors.append(f"status {response.status}")
                continue
            digest = "sha256:" + hashlib.sha256(body).hexdigest()
            if digest != response.getheader("X-DCWS-Digest"):
                errors.append("body does not match X-DCWS-Digest")
            match = re.search(rb"revision=(\d+) ", body)
            seen.append((int(response.getheader("X-DCWS-Version")),
                         int(match.group(1)) if match else -1))
    except Exception as exc:  # surfaced through the errors list
        errors.append(repr(exc))
    finally:
        connection.close()


@pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
def test_every_response_is_one_published_revision(front_end):
    location = Location("127.0.0.1", free_port())
    site = {PAGE: revision(0), "/other.html": b"<html>leaf</html>"}
    engine = DCWSEngine(location, ServerConfig(), MemoryStore(site))
    server = FRONT_ENDS[front_end](engine)
    stop = threading.Event()
    seen, errors = [], []
    published = {}
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    server.start()
    try:
        assert server.wait_ready()
        published[engine.graph.get(PAGE).version] = 0
        clients = [threading.Thread(target=client_loop, daemon=True,
                                    args=(location.port, stop, seen, errors))
                   for _ in range(CLIENTS)]
        for client in clients:
            client.start()
        for number in range(1, UPDATES + 1):
            with server._lock:
                engine.update_document(PAGE, revision(number))
                published[engine.graph.get(PAGE).version] = number
            time.sleep(0.002)  # let readers in between revisions
        stop.set()
        for client in clients:
            client.join(timeout=10.0)
            assert not client.is_alive()
        with server._lock:
            stats = engine.stats
            answered = sum(getattr(stats, name) for name in vars(stats)
                           if name.startswith("responses_"))
            assert answered == stats.requests
            assert stats.responses_200 == len(seen)
            reconstructions = stats.reconstructions
            hits = engine.graph.get(PAGE).hits
    finally:
        stop.set()
        server.stop()
        sys.setswitchinterval(switch_interval)
    assert not errors, errors[:5]
    assert len(published) == UPDATES + 1
    assert len(seen) >= UPDATES  # the readers really ran beside the writer
    for version, number in seen:
        assert published.get(version) == number, (version, number)
    assert len({version for version, _ in seen}) > 10
    # One regeneration per dirtying at most, inside the dispatch that
    # found the page dirty, and every request counted exactly once.
    assert reconstructions <= UPDATES + 1
    assert hits == len(seen)
