"""The traced run: per-layer times from spans, per-layer counts from
the socket run's public counters.

Layers are measured from outside.  The first 2,000 requests of the
workload's script are replayed in-process against an identically built
engine the way a front end would drive it, with a span around each call
into a layer; store and journal calls are seen through timing wrappers
injected at the engine's public seams (the constructor's ``store``,
``attach_journal``).  Functions that cannot be wrapped from outside are
timed in isolation on the workload's own documents.  Spans stay in
memory and are written to ``out/trace-<workload>.jsonl`` at the end.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import time
from typing import Callable, Dict, List, Optional

from repro.client.pool import ConnectionPool
from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.core.naming import encode_migrated_path
from repro.html.links import extract_links
from repro.html.parser import parse_html
from repro.html.template import build_link_template
from repro.http.content import (body_digest, etag_for, gzip_bytes,
                                last_modified_for, not_modified)
from repro.http.headers import Headers
from repro.http.messages import Request
from repro.http.piggyback import attach_load_reports, extract_load_reports
from repro.http.wire import RequestParser
from repro.server.engine import DCWSEngine, PullFromHome
from repro.server.filestore import DiskStore, DocumentStore
from repro.server.integrity import IntegrityManager
from repro.server.wal import WriteAheadJournal

from child import revised
from launcher import write_site
from measure import Metric, median
from workloads import Workload, is_html, request_bytes

REPLAY_REQUESTS = 2000
clock = time.perf_counter


class Tracer:
    """In-memory spans: name, start, end, parent, request id."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.request_id = -1
        self.enabled = False

    def begin(self, name: str) -> None:
        if not self.enabled:
            return
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([name, clock(), 0.0, parent, self.request_id])

    def end(self, rename: Optional[str] = None) -> None:
        if not self.enabled:
            return
        span = self.spans[self.stack.pop()]
        span[2] = clock()
        if rename is not None:
            span[0] = rename

    def durations(self, name: str) -> List[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self) -> Dict[int, float]:
        """Each span's duration minus what its child spans cover."""
        own = {i: s[2] - s[1] for i, s in enumerate(self.spans)}
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        return own

    def write(self, path: str) -> None:
        own = self.self_times()
        with open(path, "w") as handle:
            for index, (name, start, end, parent, request) in \
                    enumerate(self.spans):
                handle.write(json.dumps({
                    "span": index, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                    "self": own[index]}) + "\n")


class TimingStore(DocumentStore):
    """A ``DocumentStore`` with a span around every get and put."""

    def __init__(self, inner: DocumentStore, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    def get(self, name):
        self.tracer.begin("server.filestore.get")
        try:
            return self.inner.get(name)
        finally:
            self.tracer.end()

    def put(self, name, data):
        self.tracer.begin("server.filestore.put")
        try:
            self.inner.put(name, data)
        finally:
            self.tracer.end()

    def delete(self, name):
        self.inner.delete(name)

    def names(self):
        return self.inner.names()

    def __contains__(self, name):
        return name in self.inner

    def size(self, name):
        return self.inner.size(name)

    def sendfile_source(self, name):
        return self.inner.sendfile_source(name)


class TimingJournal:
    """What the engine needs of a journal, with a span around appends."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    def append(self, kind, now, **fields):
        self.tracer.begin("server.wal.append")
        try:
            return self.inner.append(kind, now, **fields)
        finally:
            self.tracer.end()

    def sync(self):
        self.tracer.begin("server.wal.sync")
        try:
            self.inner.sync()
        finally:
            self.tracer.end()

    def describe(self):
        return self.inner.describe()


def timed(function: Callable[[], object], repeats: int) -> float:
    """Median seconds of *repeats* calls."""
    samples = []
    for __ in range(repeats):
        started = clock()
        function()
        samples.append(clock() - started)
    return median(samples)


# ----------------------------------------------------------------------
# The in-process replay
# ----------------------------------------------------------------------

class Replay:
    """An engine built like the child's, driven like a front end."""

    def __init__(self, workload: Workload, run: dict, scratch: str) -> None:
        self.tracer = Tracer()
        self.workload = workload
        self.run = run
        root = os.path.join(scratch, "home")
        write_site(root, run["documents"])
        config = ServerConfig()
        if workload.time_factor:
            config = config.scaled(workload.time_factor)
        self.location = Location("127.0.0.1", 18000)
        self.peers = [Location("127.0.0.1", 18001 + i)
                      for i in range(workload.coops)]
        self.store = TimingStore(DiskStore(root, fsync=False), self.tracer)
        self.engine = DCWSEngine(self.location, config, self.store,
                                 entry_points=run["entry"], peers=self.peers)
        self.engine.initialize(time.monotonic())
        self.journal: Optional[TimingJournal] = None
        if workload.journal:
            self.journal = TimingJournal(WriteAheadJournal(
                os.path.join(scratch, "replay.wal"),
                location=str(self.location),
                fsync_policy=config.wal_fsync), self.tracer)
            self.engine.attach_journal(self.journal)
        self.parser = RequestParser()
        walker = run["walker"]
        if walker is not None:
            self.raws = list(walker.trail)
            # Documents the socket run saw migrate away answer 301 here
            # too, and dirty their referrers.
            for turn, name in enumerate(sorted(walker.moved)):
                self.engine.policy.force_migrate(
                    name, self.peers[turn % len(self.peers)],
                    time.monotonic())
        else:
            self.raws = [item.raw for item in
                         run["script"][:REPLAY_REQUESTS]]
        # Same warm state as after the socket run's crawl.
        for name in sorted(run["documents"]):
            self.serve(request_bytes(name))
        self.update_every = workload.update_every
        self.fast_hits = 0
        self.updates = 0
        self.head_bytes: List[int] = []

    def serve(self, raw: bytes) -> bytes:
        """One request, parse to head, the way both front ends do it."""
        tracer = self.tracer
        now = time.monotonic()
        tracer.begin("http.wire.parse")
        self.parser.feed(raw)
        request = self.parser.next_request()
        tracer.end()
        tracer.begin("server.engine.serve")
        reply = None
        tracer.begin("server.engine.fast_path")
        hit = self.engine.fast_lookup(request, now)
        if hit is not None:
            reply = self.engine.fast_commit(hit, request, now)
        tracer.end(None if reply is not None else "server.engine.fast_miss")
        if reply is None:
            tracer.begin("server.engine.handle_request")
            reply = self.engine.handle_request(request, now)
            tracer.end()
        else:
            self.fast_hits += 1
        tracer.end()
        tracer.begin("http.messages.serialize_head")
        head = reply.response.serialize_head()
        tracer.end()
        return head

    def update(self, turn: int) -> None:
        targets = self.run["targets"]
        name = targets[turn % len(targets)]
        data = revised(self.run["documents"][name], turn + 1)
        self.tracer.begin("server.engine.update_document")
        self.engine.update_document(name, data)
        self.tracer.end()
        if self.journal is not None:
            self.journal.sync()

    def step(self, index: int, traced: bool) -> float:
        """Request *index* of the script (after the author's update when
        one is due); seconds it took, the update excluded."""
        tracer = self.tracer
        tracer.enabled = traced
        if self.update_every and index % self.update_every == 0:
            tracer.request_id = -1 - self.updates
            self.update(self.updates)
            self.updates += 1
        tracer.request_id = index
        started = clock()
        tracer.begin("request")
        head = self.serve(self.raws[index])
        tracer.end()
        elapsed = clock() - started
        tracer.enabled = False
        self.head_bytes.append(len(head))
        return elapsed


# ----------------------------------------------------------------------
# Functions timed in isolation
# ----------------------------------------------------------------------

def isolated(replay: Replay, documents: Dict[str, bytes]) -> Dict[str, float]:
    """Microseconds (per call, or per KB) of calls no wrapper reaches."""
    engine = replay.engine
    pages = sorted(n for n in documents if is_html(n))[:40]
    texts = [documents[name].decode("latin-1") for name in pages]
    kilobytes = sum(len(documents[name]) for name in pages) / 1024.0

    def index_all():
        for text in texts:
            document = parse_html(text)
            build_link_template(document)
            extract_links(document)

    templates = [build_link_template(parse_html(text)) for text in texts]

    def splice_all():
        for template in templates:
            template.splice(lambda raw: "http://127.0.0.1:18000" + raw
                            if raw.startswith("/") else None)

    name = pages[0]
    etag, modified = etag_for(name, 0), last_modified_for(0)
    conditional = Headers()
    conditional.set("If-None-Match", etag)
    record = engine.graph.get(name)
    names = sorted(documents)
    integrity = IntegrityManager(engine.config)
    result = {
        "html.parser.index_us": timed(index_all, 5) / len(pages),
        "html.template.splice_us": timed(splice_all, 5) / len(pages),
        "http.content.gzip_us_per_kb": timed(
            lambda: [gzip_bytes(documents[n]) for n in pages], 3) / kilobytes,
        "http.content.not_modified_us": timed(
            lambda: not_modified(conditional, etag, modified), 200),
        "server.integrity.digest_us_per_kb": timed(
            lambda: [body_digest(documents[n]) for n in pages], 5) / kilobytes,
        "server.integrity.scrub_batch_us": timed(
            lambda: integrity.scrub_batch(names, 0.0), 20),
        "server.cache.response_get_us": timed(
            lambda: engine.response_cache.get(name, record.version, "GET"),
            200),
    }
    now = [time.monotonic()]

    def tick():
        now[0] += 0.25
        engine.tick(now[0])

    result["server.engine.tick_us"] = timed(tick, 40)
    return {key: value * 1e6 for key, value in result.items()}


def isolated_cluster(replay: Replay, scratch: str) -> Dict[str, float]:
    """The cooperation mechanism's calls, cluster workload only."""
    home = replay.engine
    now = [time.monotonic()]

    def consider():
        now[0] += home.config.stats_interval
        home.policy.consider(now[0], 100.0)

    def codec():
        headers = Headers()
        attach_load_reports(headers, str(home.location), home.glt.snapshot())
        extract_load_reports(headers)

    coop = DCWSEngine(replay.peers[0], ServerConfig().scaled(
        replay.workload.time_factor), DiskStore(
            os.path.join(scratch, "coop"), fsync=False),
        peers=[home.location])
    coop.initialize(now[0])
    pulls = []
    for name in sorted(replay.run["documents"])[:40]:
        home.policy.force_migrate(name, replay.peers[0], now[0])
        key = encode_migrated_path(home.location, name)
        pull = coop.handle_request(Request(method="GET", target=key), now[0])
        if isinstance(pull, PullFromHome):
            upstream = home.handle_request(pull.request, now[0]).response
            pulls.append((pull, upstream))
    samples = []
    for pull, upstream in pulls:
        started = clock()
        coop.complete_pull(pull, upstream, now[0])
        samples.append(clock() - started)
    return {
        "core.migration.consider_us": timed(consider, 20) * 1e6,
        "http.piggyback.codec_us": timed(codec, 100) * 1e6,
        "server.engine.complete_pull_us": median(samples) * 1e6,
    }


def live_probes(cluster) -> Dict[str, float]:
    """Timings that need a live server: a fresh TCP connect, and one
    fetch over the server-to-server connection pool."""
    def connect():
        socket.create_connection(cluster.home, timeout=5.0).close()

    with ConnectionPool(timeout=5.0) as pool:
        peer = Location(*cluster.home)
        fetch = timed(lambda: pool.fetch(
            peer, Request(method="GET", target="/index.html")), 50)
    return {"connect_us": timed(connect, 30) * 1e6, "fetch_us": fetch * 1e6}


# ----------------------------------------------------------------------
# Counters of the socket run
# ----------------------------------------------------------------------

def delta(run: dict, *path: str, servers: str = "home") -> float:
    """after - before of one public counter, home only or summed."""
    total = 0.0
    for before, after in zip(run["before"], run["after"]):
        low, high = before, after
        for key in path:
            low = (low or {}).get(key)
            high = (high or {}).get(key)
        total += (high or 0) - (low or 0)
        if servers == "home":
            break
    return total


def rate(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 1.0


def counts(run: dict) -> Dict[str, Metric]:
    requests = max(1.0, delta(run, "stats", "requests"))
    home_after = run["after"][0]
    return {
        "http.content.share_304": (
            delta(run, "stats", "conditional_304s") / requests, "ratio"),
        "http.content.share_gzip": (
            delta(run, "stats", "gzip_responses") / requests, "ratio"),
        "server.engine.regenerations": (
            delta(run, "stats", "reconstructions", servers="all"), "count"),
        "server.engine.redirects_301": (
            delta(run, "stats", "responses_301", servers="all"), "count"),
        "server.engine.pulls": (
            delta(run, "stats", "pulls_completed", servers="all"), "count"),
        "server.engine.shed_503": (
            delta(run, "stats", "responses_503", servers="all"), "count"),
        "server.cache.response_hit_rate": (rate(
            delta(run, "caches", "response_cache", "hits"),
            delta(run, "caches", "response_cache", "misses")), "ratio"),
        "server.cache.byte_hit_rate": (rate(
            delta(run, "caches", "byte_cache", "hits"),
            delta(run, "caches", "byte_cache", "misses")), "ratio"),
        "server.cache.invalidations": (
            delta(run, "caches", "response_cache", "invalidations"), "count"),
        # Every byte-cache miss is one read of the store beneath it.
        "server.filestore.reads": (
            delta(run, "caches", "byte_cache", "misses", servers="all"),
            "count"),
        "server.wal.records": (delta(run, "journal", "appends"), "count"),
        "server.wal.bytes": (delta(run, "journal", "size_bytes"), "B"),
        "server.integrity.scrub_checked": (
            delta(run, "integrity", "scrub_checked", servers="all"), "count"),
        # Since launch, not since the crawl: migration starts at once.
        "core.migration.migrations": (
            home_after["stats"]["migrations"], "count"),
        "core.migration.revocations": (
            home_after["stats"]["revocations"], "count"),
        "core.migration.load_share_max": (run["load_share_max"], "ratio"),
        "core.migration.first_migration_s": (run["first_moved_s"], "s"),
        "core.consistency.validations": (
            delta(run, "stats", "validations", servers="all"), "count"),
    }


# ----------------------------------------------------------------------

def layer_metrics(workload: Workload, out: str,
                  run: dict) -> Dict[str, Metric]:
    """Every per-layer metric of one workload (0 where a layer is idle).

    *run* is what the episode learnt over sockets: documents, script or
    walker trail, the servers' counters before and after, live timings.
    """
    scratch = os.path.join(out, f"trace-{os.getpid()}-{workload.name}")
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        # Two identical engines, because replaying changes state
        # (regenerations, updates).  They take turns request by request,
        # so that both see the same phases of the machine.
        replay = Replay(workload, run, os.path.join(scratch, "traced"))
        plain = Replay(workload, run, os.path.join(scratch, "plain"))
        traced, untraced = [], []
        for index in range(len(replay.raws)):
            traced.append(replay.step(index, traced=True))
            untraced.append(plain.step(index, traced=False))
        alone = isolated(replay, run["documents"])
        if workload.coops:
            alone.update(isolated_cluster(replay, scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    tracer = replay.tracer
    tracer.write(os.path.join(out, f"trace-{workload.name}.jsonl"))

    def span_us(name: str) -> float:
        return median(tracer.durations(name)) * 1e6

    metrics: Dict[str, Metric] = {
        key: (value, "us") for key, value in alone.items()}
    for name in ("core.migration.consider_us", "http.piggyback.codec_us",
                 "server.engine.complete_pull_us"):
        metrics.setdefault(name, (0.0, "us"))
    for name in ("http.wire.parse", "http.messages.serialize_head",
                 "server.engine.fast_path", "server.engine.handle_request",
                 "server.engine.update_document", "server.filestore.get",
                 "server.filestore.put", "server.wal.append",
                 "server.wal.sync"):
        metrics[f"{name}_us"] = (span_us(name), "us")
    metrics["server.engine.fast_path_share"] = (
        replay.fast_hits / max(1, len(traced)), "ratio")
    metrics["http.messages.head_bytes"] = (
        sum(replay.head_bytes) / max(1, len(replay.head_bytes)), "B")
    in_process = median(untraced)
    metrics["trace.overhead_share"] = (
        (median(traced) - in_process) / in_process, "ratio")
    # What the socket run spends per request outside parse, engine and
    # head serialisation: socket calls, the event loop or worker threads,
    # the kernel, and the client's own turn on the shared CPU.
    transport = max(0.0, 1e6 / run["rps_raw"]
                    - sum(untraced) / len(untraced) * 1e6)
    aio = workload.front_end == "aio"
    metrics["server.aio.transport_us"] = (transport if aio else 0.0, "us")
    metrics["server.threaded.transport_us"] = (
        0.0 if aio else transport, "us")
    metrics["server.aio.connect_us"] = (
        run["live"]["connect_us"] if aio else 0.0, "us")
    metrics["client.pool.fetch_us"] = (run["live"]["fetch_us"], "us")
    metrics.update(counts(run))
    return metrics
