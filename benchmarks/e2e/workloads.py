"""The four workloads: which site, which servers, which request script.

Sites are the paper's corpora, always built from dataset seed 0 — the
benchmark's ``--seed`` varies the *request script* (order, popularity
ranking, which pages are updated), never the documents, so every seed
measures the same server state.  Scripts are generated before timing;
servers see only requests.

Scripts are stratified rather than sampled: every block of 100 requests
holds exactly the stated share of each request kind, and a Zipf mix
gives each rank its exact quota.  A seed then changes the order and the
ranking, not how much work the script asks for, so two seeds differ by
less than the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

# Request kinds; each has one expected status.
PAGE, COND, RANGE, RASTER = "page", "cond", "range", "raster"
EXPECTED_STATUS = {PAGE: 200, COND: 304, RANGE: 206, RASTER: 200}
RANGE_BYTES = 100


@dataclass
class Item:
    """One scripted request and what a correct answer looks like."""

    raw: bytes
    kind: str
    name: str
    digest: Optional[str] = None   # expected X-DCWS-Digest, when static
    prefix: bytes = b""            # expected 206 body


@dataclass
class Workload:
    name: str
    why: str
    front_end: str                 # "aio" or "threaded"
    dataset: str
    coops: int = 0                 # empty co-operating servers
    journal: bool = False
    update_every: int = 0          # one author update per so many requests
    time_factor: Optional[float] = None
    # A run is `episodes` fresh sets of processes, each timed after its
    # own warm-up, plus `setup_launches` that only launch and crawl.
    episodes: int = 4
    setup_launches: int = 0
    warmup_s: float = 0.5
    walk: bool = False             # Algorithm 2 walker instead of a script
    resident_only: bool = False    # script skips response-cache overflow
    rasters: int = 0
    mix: Dict[str, int] = field(default_factory=dict)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="cached_get", front_end="aio", dataset="lod",
        resident_only=True,
        why="uniform GETs of 349 small cached documents: the smallest "
            "messages, so wire parse, engine fast path, head "
            "serialisation and the aio socket loop are all the work"),
    Workload(
        name="browse_mix", front_end="aio", dataset="mapug", rasters=24,
        mix={COND: 40, RASTER: 6, RANGE: 1, "gzip_share": 70},
        why="Zipf(1.0) over 1,535 pages plus 24 half-megabyte rasters, "
            "40% revalidations, 70% gzip, 1% ranges: working set above "
            "both caches, so negotiation, eviction and disk reads show"),
    Workload(
        name="update_churn", front_end="aio", dataset="sblog",
        journal=True, update_every=360,
        why="uniform reads of 402 link-heavy pages with an author's "
            "update every 360 requests (20 a second): invalidation, "
            "re-indexing, splices, WAL appends and digests beside reads"),
    Workload(
        name="cluster_walk", front_end="threaded", dataset="lod", coops=2,
        time_factor=0.005, walk=True,
        # The servers tick every 0.25 s, so at most ~4 migrations land a
        # second: 8 s of warm-up for the 30 that spread the load.  Two
        # such episodes fit the time cap; two bare launches keep the
        # set-up count at three after the throw-away.
        episodes=2, setup_launches=2, warmup_s=8.0,
        why="three threaded servers and one Algorithm 2 walker following "
            "served links: migration, 301s, lazy pulls, piggybacked load "
            "and regeneration, on the CLI's default front end"),
)}


def build_site(workload: Workload) -> Tuple[Dict[str, bytes], List[str]]:
    """The home server's documents and entry points."""
    from repro.datasets import DATASET_BUILDERS, build_sequoia

    site = DATASET_BUILDERS[workload.dataset](seed=0)
    documents = dict(site.documents)
    if workload.rasters:
        rasters = build_sequoia(seed=0).documents
        names = sorted(n for n in rasters if n.startswith("/raster/"))
        for name in names[:workload.rasters]:
            documents[name] = rasters[name]
    return documents, list(site.entry_points)


def digest_of(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def request_bytes(path: str, *headers: str) -> bytes:
    lines = [f"GET {path} HTTP/1.1", "Host: bench", *headers, "", ""]
    return "\r\n".join(lines).encode("latin-1")


def is_html(name: str) -> bool:
    return name.endswith(".html")


def cache_resident(names: List[str]) -> List[str]:
    """The documents that can all sit in the response cache at once.

    The cache's entries are split evenly over ``lock_stripes`` stripes
    addressed by ``shard_of(name)``; LOD puts 35 documents on two of the
    16 stripes, which hold 32 each.  The overflow is still crawled but
    left out of the script, so that ``cached_get`` stays the pure
    cache-hit path; ``browse_mix`` is where eviction is measured."""
    from repro.core.config import ServerConfig
    from repro.server.striping import shard_of

    config = ServerConfig()
    room = config.response_cache_entries // config.lock_stripes
    used: Dict[int, int] = {}
    kept = []
    for name in names:
        stripe = shard_of(name, config.lock_stripes)
        if used.get(stripe, 0) < room:
            used[stripe] = used.get(stripe, 0) + 1
            kept.append(name)
    return kept


def uniform_script(documents: Dict[str, bytes], names: List[str],
                   rng: random.Random, rounds: int,
                   static: bool) -> List[Item]:
    """*rounds* independent permutations of *names*."""
    script: List[Item] = []
    for __ in range(rounds):
        rng.shuffle(names)
        for name in names:
            script.append(Item(
                raw=request_bytes(name), kind=PAGE, name=name,
                digest=digest_of(documents[name]) if static else None))
    return script


def zipf_quota(count: int, total: int) -> List[int]:
    """How many of *total* draws each of *count* ranks gets under
    Zipf(1.0), by largest remainder — exact, not sampled."""
    weights = [1.0 / rank for rank in range(1, count + 1)]
    scale = total / sum(weights)
    shares = [w * scale for w in weights]
    quota = [int(s) for s in shares]
    by_remainder = sorted(range(count), key=lambda i: shares[i] - quota[i],
                          reverse=True)
    for index in by_remainder[:total - sum(quota)]:
        quota[index] += 1
    return quota


def browse_script(documents: Dict[str, bytes], mix: Dict[str, int],
                  rng: random.Random, blocks: int) -> List[Item]:
    """Blocks of 100 requests, each with the exact kind shares of *mix*."""
    from repro.http.content import etag_for

    rasters = sorted(n for n in documents if n.startswith("/raster/"))
    pages = sorted(n for n in documents if not n.startswith("/raster/"))
    rng.shuffle(pages)             # seed decides which page holds which rank
    per_block = 100 - mix[RASTER]
    draws: List[str] = []
    for name, count in zip(pages, zipf_quota(len(pages), blocks * per_block)):
        draws.extend([name] * count)
    rng.shuffle(draws)
    digests = {name: digest_of(documents[name]) for name in documents}
    plain = per_block - mix[COND] - mix[RANGE]
    script: List[Item] = []
    raster_turn = 0
    for block in range(blocks):
        chosen = draws[block * per_block:(block + 1) * per_block]
        kinds = [COND] * mix[COND] + [RANGE] * mix[RANGE] + [PAGE] * plain
        items: List[Item] = []
        for name, kind in zip(chosen, kinds):
            items.append(_browse_item(name, kind, documents, digests,
                                      etag_for))
        for __ in range(mix[RASTER]):
            name = rasters[raster_turn % len(rasters)]
            raster_turn += 1
            items.append(Item(raw=request_bytes(name), kind=RASTER,
                              name=name, digest=digests[name]))
        rng.shuffle(items)
        # Accept-Encoding: gzip on an exact share of each block; the
        # server still answers identity for images and tiny bodies.
        for item in rng.sample(items, mix["gzip_share"]):
            item.raw = item.raw[:-2] + b"Accept-Encoding: gzip\r\n\r\n"
        script.extend(items)
    return script


def _browse_item(name, kind, documents, digests, etag_for) -> Item:
    if kind == COND:
        # A browser revalidating its cached copy of version 0.
        return Item(raw=request_bytes(
            name, f"If-None-Match: {etag_for(name, 0)}"),
            kind=COND, name=name)
    if kind == RANGE:
        return Item(raw=request_bytes(name, f"Range: bytes=0-{RANGE_BYTES - 1}"),
                    kind=RANGE, name=name,
                    prefix=documents[name][:RANGE_BYTES])
    return Item(raw=request_bytes(name), kind=PAGE, name=name,
                digest=digests[name])


def build_script(workload: Workload, documents: Dict[str, bytes],
                 seed: int) -> List[Item]:
    """The request script for *seed* (empty for the walker workload)."""
    rng = random.Random(seed)
    if workload.walk:
        return []
    if workload.mix:
        return browse_script(documents, workload.mix, rng, blocks=200)
    # Updated pages change under the reader, so only the header digest
    # (not a precomputed one) can be checked on update_churn.
    names = sorted(documents)
    if workload.resident_only:
        names = cache_resident(names)
    return uniform_script(documents, names, rng, rounds=8,
                          static=not workload.update_every)


def update_targets(documents: Dict[str, bytes], seed: int) -> List[str]:
    """HTML pages an author updates, in seeded order."""
    pages = sorted(n for n in documents if is_html(n))
    random.Random(seed ^ 0x5EED).shuffle(pages)
    return pages
