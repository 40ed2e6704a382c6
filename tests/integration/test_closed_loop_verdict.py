"""The benchmark's verdict, inside tier-1: a long closed loop with zero
failed operations.

``benchmarks/e2e`` rejects a change when a larger share of operations
fails than on its parent, and a run is some 400,000 operations — one
failure decides.  This is the same discipline at a size tier-1 can pay
for, with its own verifier (none of the harness's code): one keep-alive
client, one request in flight, 20,100 requests over 320 pages on each
front end, across 200 request-cap reconnects, with an author's update
every 360 requests and a forced migration of one of the updated page's
link targets every 2,000 — the migration lands *between* the update and
the read that follows it, which is the race the benchmark's
``update_cycles`` loses when a tick does the same.  Every response is
checked: status, ``Content-Length`` framing, sha256 of the identity
body against ``X-DCWS-Digest``, every 16th gzip body gunzipped and
hashed, a revalidation every 10th request, and after each update the
new version and marker on the very next read, again on a revalidation
carrying the ETag from before the update, and a 304 for the new ETag.
"""

import gzip
import hashlib
import re
import socket
import time

import pytest

from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.http.content import etag_for
from repro.server.engine import DCWSEngine
from repro.server.filestore import MemoryStore
from tests.integration.test_real_servers import FRONT_ENDS
from tests.support import free_port

PAGES = 320
REQUESTS = 20_100
UPDATE_EVERY = 360
MIGRATE_EVERY = 2_000
GZIP_CHECK_EVERY = 16
COOP = Location("127.0.0.1", 1)     # a migration target nobody contacts

HEAD_END = b"\r\n\r\n"
LENGTH = re.compile(rb"\r\ncontent-length: (\d+)")
DIGEST = re.compile(rb"\r\nx-dcws-digest: (\S+)")
VERSION = re.compile(rb"\r\nx-dcws-version: (\S+)")
LOCATION = re.compile(rb"\r\nlocation: http://127\.0\.0\.1:1/~migrate/")


def page_name(index: int) -> str:
    return f"/p{index % PAGES:03d}.html"


def page(index: int, revision: int = 0) -> bytes:
    links = "".join(f'<a href="{page_name(index + step)[1:]}">n</a>'
                    for step in (1, 7, 31))
    return (f"<html><body>{links}" + "<p>filler text</p>" * 24
            + f"<!-- rev {revision} --></body></html>").encode()


class Client:
    """One keep-alive connection, re-opened when the server closes it."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.sock = None
        self.reconnects = 0

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def exchange(self, raw: bytes):
        """(status, lower-cased head, body) of exactly one response."""
        if self.sock is None:
            self.sock = socket.create_connection(("127.0.0.1", self.port),
                                                 timeout=10.0)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.sendall(raw)
        data = self.sock.recv(65536)
        while HEAD_END not in data:
            more = self.sock.recv(65536)
            assert more, "connection closed inside a head"
            data += more
        end = data.index(HEAD_END)
        head, body = data[:end].lower(), data[end + 4:]
        status = int(head[9:12])
        length = int(LENGTH.search(head).group(1)) if status != 304 else 0
        while len(body) < length:
            more = self.sock.recv(65536)
            assert more, "connection closed inside a body"
            body += more
        assert len(body) == length, "more body bytes than Content-Length"
        if b"\r\nconnection: close" in head:
            self.close()
            self.reconnects += 1
        return status, head, body


def digest_of(body: bytes) -> bytes:
    return b"sha256:" + hashlib.sha256(body).hexdigest().encode()


def wrong(status, head, body, index, moved, conditional):
    """Why this response is not a correct answer; "" when it is one."""
    if moved:
        good = status == 301 and LOCATION.search(head)
        return "" if good else f"status {status} for a migrated page"
    if status == 304:
        return "" if conditional and not body else "a 304 nobody asked for"
    if status != 200:
        return f"status {status}"
    claimed = DIGEST.search(head)
    if claimed is None:
        return "200 without X-DCWS-Digest"
    if b"\r\ncontent-encoding: gzip" in head:
        if index % GZIP_CHECK_EVERY:
            return "" if body else "empty gzip body"
        try:
            body = gzip.decompress(body)
        except (OSError, EOFError) as exc:
            return f"gzip body does not decode: {exc!r}"
    return "" if claimed.group(1) == digest_of(body) \
        else "body does not match X-DCWS-Digest"


@pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
def test_twenty_thousand_operations_none_failed(front_end):
    location = Location("127.0.0.1", free_port())
    site = {page_name(index): page(index) for index in range(PAGES)}
    config = ServerConfig(stats_interval=600.0, pinger_interval=600.0)
    engine = DCWSEngine(location, config, MemoryStore(site), peers=[COOP])
    client = Client(location.port)
    failures = []
    moved = set()
    etags = {}
    seen = {200: 0, 301: 0, 304: 0}
    gunzipped = revision = 0

    def request(index, name, *fields):
        lines = [f"GET {name} HTTP/1.1", "Host: verdict", *fields, "", ""]
        status, head, body = client.exchange("\r\n".join(lines).encode())
        seen[status] = seen.get(status, 0) + 1
        reason = wrong(status, head, body, index, name in moved,
                       any(field.startswith("If-None-Match")
                           for field in fields))
        if reason:
            failures.append(f"request {index} {name} {fields}: {reason}")
        return status, head, body

    with FRONT_ENDS[front_end](engine) as server:
        assert server.wait_ready()
        index = 0
        while index < REQUESTS:
            number = index * 37 % PAGES     # 37 and 320 are coprime
            migrating = index % MIGRATE_EVERY == 0
            if migrating:
                number = index // MIGRATE_EVERY * 29 + 5    # a fresh page
            name = page_name(number)
            if migrating or index % UPDATE_EVERY == 0:
                # An author saves a page — and, every so often, the home
                # migrates one of its link targets before anyone reads
                # it back.  The read must carry the version the save
                # returned, the new marker, and a body that hashes.
                revision += 1
                with server._lock:
                    outdated = etag_for(name, engine.graph.get(name).version)
                    engine.update_document(name, page(number, revision))
                    version = engine.graph.get(name).version
                    if migrating:
                        target = page_name(number + 7)
                        engine.policy.force_migrate(
                            target, COOP, now=time.monotonic())
                        moved.add(target)
                etags.pop(name, None)
                if name not in moved:
                    status, head, body = request(index, name)
                    served = VERSION.search(head)
                    if status != 200 or served is None \
                            or served.group(1) != str(version).encode() \
                            or b"<!-- rev %d -->" % revision not in body:
                        failures.append(
                            f"request {index}: read after update {revision}"
                            f" of {name} answered {status}, version "
                            f"{served.group(1) if served else None} for "
                            f"{version}")
                    # A browser that cached the page before the save
                    # revalidates into the new version, one that has it
                    # into a 304 — neither into what a rendition of the
                    # old version kept.
                    status, head, body = request(
                        index + 1, name, f"If-None-Match: {outdated}")
                    served = VERSION.search(head)
                    if status != 200 or served is None \
                            or served.group(1) != str(version).encode() \
                            or b"<!-- rev %d -->" % revision not in body:
                        failures.append(
                            f"request {index + 1}: {outdated} revalidated "
                            f"{name} at version {version} into {status}")
                    status, head, body = request(
                        index + 2, name,
                        f"If-None-Match: {etag_for(name, version)}")
                    if status != 304:
                        failures.append(
                            f"request {index + 2}: the current ETag of "
                            f"{name} answered {status}")
                    index += 3
                    continue
            fields = []
            if index % 10 == 9 and name in etags:
                fields.append(f"If-None-Match: {etags[name]}")
            elif index % 3:
                fields.append("Accept-Encoding: gzip")
            status, head, body = request(index, name, *fields)
            if status == 200:
                gunzipped += b"\r\ncontent-encoding: gzip" in head \
                    and index % GZIP_CHECK_EVERY == 0
                etags[name] = etag_for(
                    name, VERSION.search(head).group(1).decode())
            index += 1
        client.close()
        with server._lock:
            stats = engine.stats
            answered = {name: getattr(stats, name) for name in vars(stats)
                        if name.startswith("responses_")}
            requests = stats.requests
            fast_share = engine.response_cache.stats.hit_rate
    assert not failures, (len(failures), failures[:5])
    assert sum(seen.values()) == REQUESTS == requests
    assert sum(answered.values()) == REQUESTS, answered
    assert answered["responses_200"] == seen[200]
    assert answered["responses_301"] == seen[301] > 0
    assert answered["responses_304"] == seen[304] > 500
    assert client.reconnects >= 200
    assert revision >= REQUESTS // UPDATE_EVERY
    assert len(moved) == -(-REQUESTS // MIGRATE_EVERY)
    assert gunzipped > 300
    assert fast_share > 0.5     # most reads met a cached rendering
