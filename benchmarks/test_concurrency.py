"""Concurrent keep-alive capacity: event loop vs thread-per-connection.

The thread-per-connection front end pins one worker for every open
keep-alive connection, so its concurrency ceiling is the worker count —
idle-but-open clients starve everyone behind them in the accept queue.
The event-loop front end holds an open connection for the cost of a
selector registration, so one thread sustains them all.

Two measurements back the claim:

1. **Sustained concurrency** — N keep-alive clients connect to each
   front end (same engine config, same ``worker_threads``) and each
   tries to complete ``ROUNDS`` request/response exchanges within a
   fixed window.  A connection counts as *sustained* when every round
   completed.  The acceptance bar is aio >= 4x threaded.
2. **Correctness equivalence** — a full BFS crawl plus a seeded
   RandomWalker run against both front ends must produce identical
   (status, size, links, images) for every path: the event loop may not
   change a single answer, only how many clients get one.

Numbers land in ``benchmarks/results/concurrency.txt`` and the
machine-readable ``BENCH_concurrency.json`` at the repo root.
"""

import json
import os
import select
import socket
import time

from repro.client.realclient import fetch_url
from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.http.urls import URL
from repro.server.aio import AsyncDCWSServer
from repro.server.engine import DCWSEngine
from repro.server.filestore import MemoryStore
from repro.server.threaded import ThreadedDCWSServer

WORKERS = 8
CONNECTIONS = 64
ROUNDS = 2
WINDOW = 3.0
BENCH_JSON = os.path.join(os.path.dirname(__file__), "..",
                          "BENCH_concurrency.json")

SITE = {
    "/index.html": (b'<html><a href="d.html">D</a><a href="e.html">E</a>'
                    b'<img src="i.gif"></html>'),
    "/d.html": b'<html><a href="e.html">E</a><a href="index.html">up</a></html>',
    "/e.html": b"<html>leaf</html>",
    "/i.gif": b"GIF89a" + b"x" * 500,
}

REQUEST = b"GET /e.html HTTP/1.1\r\nHost: bench\r\n\r\n"


def record_json(**fields) -> None:
    """Merge *fields* into the repo-root benchmark record."""
    data = {}
    if os.path.exists(BENCH_JSON):
        with open(BENCH_JSON) as handle:
            data = json.load(handle)
    data.update(fields)
    with open(BENCH_JSON, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def make_server(server_cls, *, keep_alive_timeout=30.0):
    """One server, no peers, periodic machinery effectively off.

    ``keep_alive_timeout`` is deliberately long: a threaded worker holds
    its connection for the whole keep-alive window, which is exactly the
    pinning behaviour this bench quantifies.
    """
    config = ServerConfig(worker_threads=WORKERS,
                          stats_interval=60.0, pinger_interval=60.0,
                          validation_interval=60.0,
                          migration_hit_threshold=1e9,
                          keep_alive_timeout=keep_alive_timeout)
    engine = DCWSEngine(Location("127.0.0.1", free_port()), config,
                        MemoryStore(SITE), entry_points=["/index.html"])
    return server_cls(engine, tick_period=0.25)


# ----------------------------------------------------------------------
# Measurement 1: sustained keep-alive concurrency
# ----------------------------------------------------------------------

class _Client:
    """One keep-alive client: send, await full response, repeat."""

    __slots__ = ("sock", "buffer", "rounds_done", "awaiting")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buffer = bytearray()
        self.rounds_done = 0
        self.awaiting = False

    def response_complete(self) -> bool:
        head_end = self.buffer.find(b"\r\n\r\n")
        if head_end < 0:
            return False
        head = bytes(self.buffer[:head_end]).lower()
        marker = b"content-length:"
        start = head.find(marker)
        length = int(head[start + len(marker):].split(b"\r\n")[0]) \
            if start >= 0 else 0
        if len(self.buffer) < head_end + 4 + length:
            return False
        del self.buffer[:head_end + 4 + length]
        return True


def sustained_connections(port: int, connections: int, window: float) -> int:
    """How many of *connections* complete ROUNDS exchanges in *window*?"""
    clients = []
    try:
        for __ in range(connections):
            sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
            sock.setblocking(False)
            client = _Client(sock)
            try:
                sock.send(REQUEST)
                client.awaiting = True
            except OSError:
                pass
            clients.append(client)
        deadline = time.monotonic() + window
        pending = {c.sock: c for c in clients if c.awaiting}
        while pending and time.monotonic() < deadline:
            readable, __, __ = select.select(list(pending), [], [], 0.05)
            for sock in readable:
                client = pending[sock]
                try:
                    chunk = sock.recv(65536)
                except OSError:
                    chunk = b""
                if not chunk:
                    del pending[sock]
                    continue
                client.buffer += chunk
                while client.response_complete():
                    client.rounds_done += 1
                    if client.rounds_done >= ROUNDS:
                        del pending[sock]
                        break
                    try:
                        sock.send(REQUEST)
                    except OSError:
                        del pending[sock]
                        break
        return sum(1 for c in clients if c.rounds_done >= ROUNDS)
    finally:
        for client in clients:
            try:
                client.sock.close()
            except OSError:
                pass


# ----------------------------------------------------------------------
# Measurement 2: request-correctness equivalence
# ----------------------------------------------------------------------

def crawl(port: int):
    """BFS the whole site; map path -> observable response facts."""
    seen = {}
    frontier = ["/index.html"]
    while frontier:
        path = frontier.pop(0)
        if path in seen:
            continue
        outcome = fetch_url(URL("127.0.0.1", port, path))
        seen[path] = (outcome.status, outcome.size,
                      tuple(outcome.links), tuple(outcome.images))
        for link in list(outcome.links) + list(outcome.images):
            target = "/" + link.lstrip("/")
            if target not in seen:
                frontier.append(target)
    return seen


def walker_trace(port: int, seed: int = 11):
    """A seeded RandomWalker's observable fetch sequence."""
    from repro.client.walker import RandomWalker

    trace = []

    def fetch(url, **kwargs):
        outcome = fetch_url(url)
        trace.append((url.path, outcome.status, outcome.size))
        return outcome

    walker = RandomWalker([f"http://127.0.0.1:{port}/index.html"], fetch,
                          seed=seed, sleep=lambda __: None)
    walker.run(sequences=3)
    return trace


# ----------------------------------------------------------------------
# The benchmark
# ----------------------------------------------------------------------

def test_event_loop_sustains_4x_keep_alive_concurrency(report):
    sustained = {}
    crawls = {}
    traces = {}
    for name, server_cls in (("threaded", ThreadedDCWSServer),
                             ("aio", AsyncDCWSServer)):
        server = make_server(server_cls)
        server.start()
        try:
            assert server.wait_ready()
            crawls[name] = crawl(server.port)
            traces[name] = walker_trace(server.port)
            sustained[name] = sustained_connections(
                server.port, CONNECTIONS, WINDOW)
        finally:
            server.stop()

    divergences = [path for path in sorted(set(crawls["threaded"])
                                           | set(crawls["aio"]))
                   if crawls["threaded"].get(path) != crawls["aio"].get(path)]
    if traces["threaded"] != traces["aio"]:
        divergences.append("<walker-trace>")

    ratio = sustained["aio"] / max(sustained["threaded"], 1)
    lines = [
        "concurrent keep-alive capacity "
        f"({CONNECTIONS} clients, {WORKERS} workers, "
        f"{ROUNDS} rounds in {WINDOW:g}s)",
        f"  threaded sustained : {sustained['threaded']:4d}",
        f"  aio sustained      : {sustained['aio']:4d}",
        f"  ratio              : {ratio:.1f}x",
        f"  paths compared     : {len(crawls['aio'])}",
        f"  walker fetches     : {len(traces['aio'])}",
        f"  divergences        : {len(divergences)}",
    ]
    report("concurrency", "\n".join(lines))
    record_json(workers=WORKERS, connections_attempted=CONNECTIONS,
                rounds=ROUNDS, window_seconds=WINDOW,
                threaded_sustained=sustained["threaded"],
                aio_sustained=sustained["aio"],
                ratio=round(ratio, 2),
                paths_compared=len(crawls["aio"]),
                walker_fetches=len(traces["aio"]),
                walker_divergences=len(divergences))

    assert not divergences, f"front ends disagreed on: {divergences}"
    assert sustained["aio"] >= CONNECTIONS * 0.9, \
        "event loop failed to sustain nearly every connection"
    assert ratio >= 4.0, (
        f"aio sustained only {sustained['aio']} vs threaded "
        f"{sustained['threaded']} — below the 4x bar")


# ----------------------------------------------------------------------
# Measurement 3: multi-process scale-out (SO_REUSEPORT workers)
# ----------------------------------------------------------------------

def closed_loop_rps(port: int, connections: int, window: float) -> float:
    """Aggregate cached-hit RPS: closed-loop keep-alive clients re-send
    the moment a response completes; responses counted over *window*."""
    clients = []
    completed = 0
    try:
        for __ in range(connections):
            sock = socket.create_connection(("127.0.0.1", port),
                                            timeout=5.0)
            sock.setblocking(False)
            client = _Client(sock)
            try:
                sock.send(REQUEST)
            except OSError:
                pass
            clients.append(client)
        start = time.monotonic()
        deadline = start + window
        live = {c.sock: c for c in clients}
        while live and time.monotonic() < deadline:
            readable, __, __ = select.select(list(live), [], [], 0.05)
            for sock in readable:
                client = live[sock]
                try:
                    chunk = sock.recv(65536)
                except OSError:
                    chunk = b""
                if not chunk:
                    del live[sock]
                    continue
                client.buffer += chunk
                while client.response_complete():
                    completed += 1
                    try:
                        sock.send(REQUEST)
                    except OSError:
                        del live[sock]
                        break
        elapsed = time.monotonic() - start
        return completed / max(elapsed, 1e-6)
    finally:
        for client in clients:
            try:
                client.sock.close()
            except OSError:
                pass


def test_multiproc_worker_sweep(report, scale):
    """Cached-hit RPS at 1, 2, and 4 worker processes.

    The honest caveat is recorded with the numbers: on a single-core
    container (``os.cpu_count() == 1``) four event loops time-slice one
    CPU, so the >= 2.5x scaling bar is only *enforced* when at least 4
    cores exist (``scaling_gate``: "full").  On fewer cores the gate
    degrades to "no collapse": multi-worker throughput must stay within
    2x of single-worker (IPC + scheduling overhead bounded), and
    ``scaling_ok`` reports that weaker check.
    """
    from repro.server.multiproc import WorkerSupervisor, choose_mode

    mode = choose_mode()
    if mode is None:
        import pytest
        pytest.skip("no multi-process accept mode on this platform")

    window = 1.0 if scale.name == "quick" else 3.0
    connections = 16

    def factory(index, location):
        config = ServerConfig(stats_interval=60.0, pinger_interval=60.0,
                              validation_interval=60.0,
                              migration_hit_threshold=1e9,
                              keep_alive_timeout=30.0)
        return DCWSEngine(location, config, MemoryStore(SITE),
                          entry_points=["/index.html"])

    rps = {}
    for workers in (1, 2, 4):
        with WorkerSupervisor(factory, workers, port=0) as sup:
            # Warm every worker's byte/response caches before timing.
            for __ in range(workers * 3):
                fetch_url(URL("127.0.0.1", sup.port, "/e.html"),
                          timeout=2.0)
            rps[workers] = closed_loop_rps(sup.port, connections, window)

    cpu_count = os.cpu_count() or 1
    ratio_4v1 = rps[4] / max(rps[1], 1e-6)
    if cpu_count >= 4:
        scaling_gate = "full"
        scaling_ok = ratio_4v1 >= 2.5
    else:
        # One core: parallel speedup is physically impossible; assert
        # the multi-process plumbing does not collapse throughput.
        scaling_gate = "single-core-no-collapse"
        scaling_ok = rps[4] >= rps[1] * 0.5
    lines = [
        f"multi-process cached-hit throughput ({mode}, "
        f"{connections} clients, {window:g}s window, "
        f"{cpu_count} cpu cores)",
        *(f"  {w} worker(s) : {rps[w]:9.0f} rps" for w in (1, 2, 4)),
        f"  4v1 ratio   : {ratio_4v1:.2f}x",
        f"  gate        : {scaling_gate} -> "
        f"{'ok' if scaling_ok else 'FAIL'}",
    ]
    report("concurrency_multiproc", "\n".join(lines))
    record_json(multiproc={
        "mode": mode,
        "cpu_count": cpu_count,
        "connections": connections,
        "window_seconds": window,
        "rps": {str(w): round(rps[w], 1) for w in (1, 2, 4)},
        "ratio_4v1": round(ratio_4v1, 3),
        "scaling_gate": scaling_gate,
        "scaling_ok": scaling_ok,
    })
    assert scaling_ok, (
        f"multi-process scaling gate failed ({scaling_gate}): "
        f"rps={rps}, ratio={ratio_4v1:.2f}")
