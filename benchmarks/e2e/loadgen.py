"""The closed-loop load generator: one thread, one request in flight.

The paper's client (Algorithm 2) waits for each reply before it sends
the next request, so the loop is closed.  Everything here is blocking
sockets on one thread with one keep-alive connection per server,
reconnecting when the server answers ``Connection: close``; the work per
request is constant, which is what makes the generator's own CPU per
request usable as the in-run speed probe (see ``measure.py``).

Every response is verified: expected status for the request kind,
``Content-Length`` framing, sha256 of every identity 200 body against
``X-DCWS-Digest`` (and against the digest of the generated document when
the content is static), every 16th gzip body — by script index, so the
work is constant — gunzipped and checked the same way.
"""

from __future__ import annotations

import gzip
import hashlib
import os
import random
import re
import socket
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.client.walker import MAX_STEPS, MIN_STEPS

from workloads import EXPECTED_STATUS, RANGE, RANGE_BYTES, Item, request_bytes

Address = Tuple[str, int]
GZIP_CHECK_EVERY = 16
CONTENT_LENGTH = re.compile(rb"\r\ncontent-length: *(\d+)")
DIGEST = re.compile(rb"\r\nx-dcws-digest: *(\S+)")
VERSION = re.compile(rb"\r\nx-dcws-version: *(\S+)")
LOCATION = re.compile(rb"\r\nlocation: *http://([^:/\s]+):(\d+)(\S*)")
LINK = re.compile(rb'(href|src)="([^"]+)"')


class Reply:
    """One parsed response: status, lower-cased head, body, wire bytes."""

    __slots__ = ("status", "head", "body", "wire_bytes")

    def __init__(self, status: int, head: bytes, body: bytes,
                 wire_bytes: int) -> None:
        self.status = status
        self.head = head
        self.body = body
        self.wire_bytes = wire_bytes

    def header(self, pattern: "re.Pattern[bytes]") -> Optional[bytes]:
        match = pattern.search(self.head)
        return match.group(1) if match else None


class Wires:
    """Keep-alive connections, one per server address."""

    def __init__(self, timeout: float = 10.0) -> None:
        self.timeout = timeout
        self.socks: Dict[Address, socket.socket] = {}
        self.reconnects = 0

    def close(self) -> None:
        for sock in self.socks.values():
            sock.close()
        self.socks.clear()

    def _connect(self, address: Address) -> socket.socket:
        sock = socket.create_connection(address, timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.socks[address] = sock
        return sock

    def _drop(self, address: Address) -> None:
        sock = self.socks.pop(address, None)
        if sock is not None:
            sock.close()

    def exchange(self, address: Address, raw: bytes) -> Reply:
        """Send *raw*, read exactly one framed response.

        A reused connection the server has already closed (idle timeout)
        shows as EOF before the first byte; that one case is retried on a
        fresh connection, as any HTTP client does.  Everything else that
        goes wrong raises ``OSError``.
        """
        sock = self.socks.get(address)
        reused = sock is not None
        if sock is None:
            sock = self._connect(address)
        try:
            sock.sendall(raw)
            data = sock.recv(65536)
        except (ConnectionResetError, BrokenPipeError):
            data = b""
        if not data and reused:
            self._drop(address)
            self.reconnects += 1
            sock = self._connect(address)
            sock.sendall(raw)
            data = sock.recv(65536)
        try:
            return self._read(sock, address, data)
        except OSError:
            self._drop(address)
            raise

    def _read(self, sock: socket.socket, address: Address,
              data: bytes) -> Reply:
        if not data:
            raise ConnectionError("connection closed before a response")
        end = data.find(b"\r\n\r\n")
        while end < 0:
            more = sock.recv(65536)
            if not more:
                raise ConnectionError("connection closed inside a head")
            data += more
            end = data.find(b"\r\n\r\n")
        head = data[:end].lower()
        status = int(head[9:12])
        match = CONTENT_LENGTH.search(head)
        length = int(match.group(1)) if match and status != 304 else 0
        body = data[end + 4:]
        if len(body) < length:
            buffer = bytearray(length)
            buffer[:len(body)] = body
            view = memoryview(buffer)
            filled = len(body)
            while filled < length:
                count = sock.recv_into(view[filled:])
                if not count:
                    raise ConnectionError("connection closed inside a body")
                filled += count
            body = bytes(buffer)
        elif len(body) > length:
            raise ConnectionError("more body bytes than Content-Length")
        if b"\r\nconnection: close" in head:
            self._drop(address)
            self.reconnects += 1
        return Reply(status, head, body, end + 4 + length)


def digest_ok(body: bytes, claimed: Optional[bytes],
              expected: Optional[str]) -> bool:
    """The checker hashes for itself rather than call the program's own
    ``digest_matches``: a verifier must not share code with what it
    verifies."""
    if claimed is None:
        return False
    actual = b"sha256:" + hashlib.sha256(body).hexdigest().encode()
    if claimed != actual:
        return False
    return expected is None or expected.encode() == actual


def verify(item: Item, reply: Reply, index: int) -> bool:
    """Is *reply* a correct answer to scripted request *item*?"""
    if reply.status != EXPECTED_STATUS[item.kind]:
        return False
    if reply.status == 304:
        return not reply.body
    if item.kind == RANGE:
        return (len(reply.body) == RANGE_BYTES and reply.body == item.prefix
                and b"\r\ncontent-range: bytes 0-" in reply.head)
    if b"\r\ncontent-encoding: gzip" in reply.head:
        if index % GZIP_CHECK_EVERY:
            return bool(reply.body)
        try:
            body = gzip.decompress(reply.body)
        except (OSError, EOFError):
            return False
        return digest_ok(body, reply.header(DIGEST), item.digest)
    return digest_ok(reply.body, reply.header(DIGEST), item.digest)


def stolen_s() -> float:
    """Seconds the hypervisor has kept this process's CPU(s) from the
    guest so far (``steal`` in /proc/stat); 0.0 where not reported."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    wanted = {f"cpu{cpu}" for cpu in cpus}
    try:
        with open("/proc/stat") as handle:
            ticks = sum(int(fields[8]) for fields in map(str.split, handle)
                        if fields[0] in wanted and len(fields) > 8)
    except OSError:
        return 0.0
    return ticks / os.sysconf("SC_CLK_TCK")


class Window:
    """Raw measurements of one timed window."""

    __slots__ = ("wall_s", "client_cpu_s", "server_cpu_s", "stolen_s",
                 "completed", "attempted", "failed", "wire_bytes",
                 "latencies", "per_server")

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.client_cpu_s = 0.0
        self.server_cpu_s = 0.0
        self.stolen_s = 0.0
        self.completed = 0
        self.attempted = 0
        self.failed = 0
        self.wire_bytes = 0
        self.latencies: List[float] = []
        self.per_server: Dict[Address, int] = {}


class Recorder:
    """Splits a stretch of the run into equal windows.

    ``probe`` returns the servers' cumulative CPU seconds; it is called
    only at window boundaries, and the generator's own CPU and wall
    clocks are read before it at the end of one window and after it at
    the start of the next, so the probe is in neither.
    """

    def __init__(self, window_s: float, windows: int,
                 probe: Callable[[], float]) -> None:
        self.window_s = window_s
        self.count = windows
        self.probe = probe
        self.windows: List[Window] = []
        self._open()

    def _open(self) -> None:
        self.current = Window()
        self._server_cpu = self.probe()
        self._stolen = stolen_s()
        self._cpu = time.process_time()
        self._wall = time.perf_counter()
        self.deadline = self._wall + self.window_s

    def roll(self, now: float) -> bool:
        """Close the current window; False when the stretch is over."""
        window = self.current
        window.client_cpu_s = time.process_time() - self._cpu
        window.wall_s = now - self._wall
        window.stolen_s = stolen_s() - self._stolen
        window.server_cpu_s = self.probe() - self._server_cpu
        self.windows.append(window)
        if len(self.windows) == self.count:
            return False
        self._open()
        return True


def run_script(wires: Wires, address: Address, script: List[Item],
               recorder: Recorder, every: int = 0,
               update: Optional[Callable[[], None]] = None) -> None:
    """Replay *script* cyclically against one server until the recorder
    says stop, calling *update* before every *every*-th request."""
    clock = time.perf_counter
    size = len(script)
    index = 0
    window = recorder.current
    deadline = recorder.deadline
    while True:
        if every and index % every == 0:
            update()
        item = script[index % size]
        started = clock()
        try:
            reply = wires.exchange(address, item.raw)
        except OSError:
            reply = None
        finished = clock()
        window.attempted += 1
        if reply is not None and verify(item, reply, index):
            window.completed += 1
            window.wire_bytes += reply.wire_bytes
            window.latencies.append(finished - started)
        else:
            window.failed += 1
        index += 1
        if finished >= deadline:
            if not recorder.roll(clock()):
                return
            window = recorder.current
            deadline = recorder.deadline


class Walker:
    """Algorithm 2: sequences of 1-25 steps from an entry point, each
    step fetching a page and its not-yet-cached images, then following
    one of the page's links chosen at random.

    Links are taken from the HTML the servers actually serve (with a
    precompiled regex), so rewritten ``~migrate`` links lead the walker
    to the co-ops; 301s are followed.  The per-sequence cache of
    Algorithm 2 is kept, so a page's images are fetched once a sequence.
    """

    def __init__(self, wires: Wires, home: Address, entry: str,
                 seed: int) -> None:
        self.wires = wires
        self.home = home
        self.entry = entry
        self.rng = random.Random(seed)
        self.first_moved_at: Optional[float] = None
        self.moved: set = set()        # home paths answered 301
        self.trail: List[bytes] = []   # first requests sent to the home

    def resolve(self, base: Address, value: bytes) -> Tuple[Address, str]:
        text = value.decode("latin-1")
        if text.startswith("http://"):
            authority, __, path = text[7:].partition("/")
            host, __, port = authority.partition(":")
            return (host, int(port or 80)), "/" + path
        return base, text

    def fetch(self, address: Address, path: str,
              window: Window) -> Optional[Tuple[Address, Reply]]:
        """One document, following redirects; every hop is a request."""
        clock = time.perf_counter
        for __ in range(4):
            raw = request_bytes(path)
            if address == self.home and len(self.trail) < 2000:
                self.trail.append(raw)
            started = clock()
            try:
                reply = self.wires.exchange(address, raw)
            except OSError:
                reply = None
            finished = clock()
            window.attempted += 1
            moved = reply is not None and reply.status == 301 \
                and LOCATION.search(reply.head)
            good = moved or (
                reply is not None and reply.status == 200
                and digest_ok(reply.body, reply.header(DIGEST), None))
            if not good:
                window.failed += 1
                return None
            window.completed += 1
            window.wire_bytes += reply.wire_bytes
            window.latencies.append(finished - started)
            window.per_server[address] = \
                window.per_server.get(address, 0) + 1
            if self.first_moved_at is None \
                    and (moved or address != self.home):
                self.first_moved_at = finished
            if not moved:
                return address, reply
            if address == self.home:
                self.moved.add(path)
            # The head was lower-cased for matching; ~migrate paths and
            # this site's names are lower-case already.
            address = (moved.group(1).decode(), int(moved.group(2)))
            path = moved.group(3).decode("latin-1")
        window.failed += 1
        return None

    def run(self, recorder: Recorder) -> None:
        clock = time.perf_counter
        while True:
            # Algorithm 2's per-sequence cache: a page maps to its links,
            # an image to (); neither is requested twice in a sequence.
            cache: Dict[Tuple[Address, str], tuple] = {}
            target = (self.home, self.entry)
            for __ in range(self.rng.randint(MIN_STEPS, MAX_STEPS)):
                links = cache.get(target)
                if links is None:
                    fetched = self.fetch(*target, recorder.current)
                    if fetched is None:
                        break
                    base, reply = fetched
                    found = []
                    for attribute, value in LINK.findall(reply.body):
                        resolved = self.resolve(base, value)
                        if attribute == b"href":
                            found.append(resolved)
                        elif resolved not in cache:
                            cache[resolved] = ()
                            self.fetch(*resolved, recorder.current)
                    links = cache[target] = tuple(found)
                    if clock() >= recorder.deadline \
                            and not recorder.roll(clock()):
                        return
                if not links:
                    break
                target = links[self.rng.randrange(len(links))]
