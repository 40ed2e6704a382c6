"""Serve-path HTTP realism: what validators + gzip buy on the wire, and
what tiered shedding preserves under overload.

Measurement 1 — **bytes on wire**.  The same site is crawled ``ROUNDS``
times by two clients: a naive one (no validator cache, no
``Accept-Encoding``) that re-downloads every identity body, and a
realistic one that revalidates with ``If-None-Match`` and accepts gzip,
the way every browser has behaved since HTTP/1.1.  The realistic client
must move dramatically fewer bytes for the same crawl (DistCache's
argument: keep the skewed head of load in the cheapest tier — here,
304s and pre-compressed variants served straight off the response
cache).

Measurement 2 — **cached vs regenerate RPS under overload**.  With the
connection-pressure signal forced past ``shed_pressure``, the server
must keep answering cached documents at full speed while refusing the
expensive tier (dirty-document regeneration) with 503; with shedding
disabled the same dirty requests are regenerated inline, which is the
slow path the policy protects.  ``/index.html`` is dirtied the paper's
way, by moving a page it links to, so each of those regenerations is a
real splice (a save whose links stay home regenerates for free).

Numbers land in ``benchmarks/results/http_realism.txt`` and the
machine-readable ``BENCH_http.json`` at the repo root.
"""

import json
import os
import re
import socket
import time

from repro.client.cache import ValidatorCache
from repro.client.realclient import fetch_url
from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.http.urls import URL
from repro.server.aio import AsyncDCWSServer
from repro.server.engine import DCWSEngine
from repro.server.filestore import MemoryStore
from tests.support import free_port, release

ROUNDS = 5
SHED_REQUESTS = 50
BENCH_JSON = os.path.join(os.path.dirname(__file__), "..",
                          "BENCH_http.json")

# A small site whose pages are big enough for gzip to matter (the
# paper's Sequoia imagery is the motivating payload; repetitive HTML
# stands in for it deterministically).
PARAGRAPH = b"<p>sequoia quadrant imagery tile metadata row</p>"
SITE = {"/index.html": (b"<html>"
                        + b'<a href="p0.html">0</a><a href="p1.html">1</a>'
                        + b'<a href="p2.html">2</a><a href="p3.html">3</a>'
                        + PARAGRAPH * 40 + b"</html>")}
for index in range(4):
    SITE[f"/p{index}.html"] = (b"<html>" + PARAGRAPH * (60 + 10 * index)
                               + b"</html>")
# What the regenerate arm moves, and where to: a co-op address that is
# written into /index.html's link and never contacted.
MOVED = "/p2.html"
COOP = Location("127.0.0.1", 9)


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


def make_server(**config_kwargs) -> AsyncDCWSServer:
    config = ServerConfig(stats_interval=60.0, pinger_interval=60.0,
                          validation_interval=60.0,
                          migration_hit_threshold=1e9, **config_kwargs)
    engine = DCWSEngine(Location("127.0.0.1", free_port()), config,
                        MemoryStore(dict(SITE)),
                        entry_points=["/index.html"])
    return AsyncDCWSServer(engine, tick_period=0.25)


# ----------------------------------------------------------------------
# Measurement 1: bytes on wire, naive vs realistic client
# ----------------------------------------------------------------------

def crawl_bytes(port: int, *, realistic: bool):
    """ROUNDS crawls of every path; returns wire/entity byte totals."""
    validators = ValidatorCache() if realistic else None
    wire = entity = revalidated = fetches = 0
    for __ in range(ROUNDS):
        for path in sorted(SITE):
            outcome = fetch_url(URL("127.0.0.1", port, path),
                                validators=validators,
                                accept_gzip=realistic)
            assert outcome.ok, f"{path} -> {outcome.status}"
            assert outcome.size == len(SITE[path])
            fetches += 1
            wire += outcome.wire_size if outcome.wire_size is not None \
                else outcome.size
            entity += outcome.size
            revalidated += outcome.not_modified
    return {"wire": wire, "entity": entity, "not_modified": revalidated,
            "fetches": fetches}


# ----------------------------------------------------------------------
# Measurement 2: cached vs regenerate RPS once pressure crosses the bar
# ----------------------------------------------------------------------

def keep_alive_statuses(port: int, path: str, count: int,
                        dirty_hook=None):
    """One keep-alive connection, *count* serial exchanges; returns the
    status list and the elapsed wall time."""
    request = (f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n"
               .encode("ascii"))
    statuses = []
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        start = time.monotonic()
        for __ in range(count):
            if dirty_hook is not None:
                dirty_hook()
            sock.sendall(request)
            buffer = b""
            while b"\r\n\r\n" not in buffer:
                buffer += sock.recv(65536)
            head, __, body = buffer.partition(b"\r\n\r\n")
            match = re.search(rb"content-length:\s*(\d+)", head.lower())
            needed = int(match.group(1)) if match else 0
            while len(body) < needed:
                body += sock.recv(65536)
            statuses.append(int(head.split(b" ", 2)[1]))
        elapsed = time.monotonic() - start
    return statuses, elapsed


def shedding_measurements():
    # One live connection out of max_connections=2 is pressure 0.5,
    # exactly the shed threshold: the overload tier engages while the
    # bench's single client still gets answers.  The comparator's bar
    # of 1.0 is one that connection never reaches, so it regenerates.
    results = {}
    for mode, shedding in (("shedding", True), ("regenerate", False)):
        server = make_server(max_connections=2,
                             shed_pressure=0.5 if shedding else 1.0)
        server.start()
        try:
            assert server.wait_ready()
            release(server.port)

            def dirty():
                # The paper's way: a page /index.html links to moves,
                # to the co-op and back by turns, so every regeneration
                # splices a link to its new location.
                with server._lock:
                    policy = server.engine.policy
                    if server.engine.graph.get(MOVED).location == COOP:
                        policy.revoke(MOVED)
                    else:
                        policy.force_migrate(MOVED, COOP, time.monotonic())

            cached, cached_time = keep_alive_statuses(
                server.port, "/p0.html", SHED_REQUESTS)
            if shedding:
                dirty()
            expensive, expensive_time = keep_alive_statuses(
                server.port, "/index.html", SHED_REQUESTS,
                dirty_hook=None if shedding else dirty)
            results[mode] = {
                "cached_statuses": cached,
                "cached_rps": SHED_REQUESTS / max(cached_time, 1e-9),
                "expensive_statuses": expensive,
                "expensive_rps": SHED_REQUESTS / max(expensive_time, 1e-9),
                "shed": server.engine.stats.regenerations_shed,
                "spliced": server.engine.stats.reconstructions,
            }
        finally:
            server.stop()
    return results


# ----------------------------------------------------------------------
# The benchmark
# ----------------------------------------------------------------------

def test_validators_and_gzip_cut_bytes_on_wire(report):
    server = make_server()
    server.start()
    try:
        assert server.wait_ready()
        release(server.port)
        naive = crawl_bytes(server.port, realistic=False)
        realistic = crawl_bytes(server.port, realistic=True)
    finally:
        server.stop()

    shed = shedding_measurements()

    reduction = 1.0 - realistic["wire"] / naive["wire"]
    rate_304 = realistic["not_modified"] / realistic["fetches"]
    lines = [
        f"serve-path realism ({len(SITE)} paths x {ROUNDS} rounds)",
        f"  naive bytes on wire     : {naive['wire']:8d}",
        f"  realistic bytes on wire : {realistic['wire']:8d}"
        f"  ({reduction:.0%} less)",
        f"  304 revalidations       : {realistic['not_modified']}"
        f"/{realistic['fetches']}  ({rate_304:.0%})",
        f"  cached RPS under overload    : "
        f"{shed['shedding']['cached_rps']:8.0f}",
        f"  regenerate RPS (no shedding) : "
        f"{shed['regenerate']['expensive_rps']:8.0f}",
        f"  dirty requests shed          : {shed['shedding']['shed']}",
    ]
    report("http_realism", "\n".join(lines))
    record_json(paths=len(SITE), rounds=ROUNDS,
                bytes_identity=naive["wire"],
                bytes_realistic=realistic["wire"],
                bytes_reduction=round(reduction, 4),
                rate_304=round(rate_304, 4),
                fetches=realistic["fetches"],
                shed_requests=SHED_REQUESTS,
                cached_rps_under_shedding=round(
                    shed["shedding"]["cached_rps"], 1),
                regenerate_rps=round(
                    shed["regenerate"]["expensive_rps"], 1),
                dirty_requests_shed=shed["shedding"]["shed"])

    # The naive client downloads every identity byte every round.
    assert naive["wire"] == naive["entity"]
    # Validators + gzip: after the first round everything revalidates,
    # so at minimum (ROUNDS-1)/ROUNDS of the fetches are 304s.
    assert rate_304 >= (ROUNDS - 1) / ROUNDS - 1e-9
    assert reduction >= 0.5, (
        f"realistic client still moved {realistic['wire']} of "
        f"{naive['wire']} bytes — only {reduction:.0%} saved")
    # Under overload the cached tier keeps answering 200s...
    assert shed["shedding"]["cached_statuses"].count(200) == SHED_REQUESTS
    # ...while every dirty-regeneration request is refused with 503.
    assert shed["shedding"]["expensive_statuses"].count(503) == \
        SHED_REQUESTS
    assert shed["shedding"]["shed"] == SHED_REQUESTS
    # With shedding off, the same requests regenerate inline and succeed,
    # each one a splice.
    assert shed["regenerate"]["expensive_statuses"].count(200) == \
        SHED_REQUESTS
    assert shed["regenerate"]["spliced"] == SHED_REQUESTS
