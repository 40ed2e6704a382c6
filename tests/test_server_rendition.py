"""The copy cache's entry: one stored copy's rendition, and its stamp.

A stored copy's identity bytes, validators, framed heads and gzip
variant — a home document's or a fetched hosted copy's — live in one
copy-cache entry stamped ``(version, digest)``.  These tests pin what
that buys (revalidations stay on the short-circuit, and the server can
say so), what replaces the entry, what an eviction costs (the variant
goes with the bytes and is made again, from hashed bytes), and what the
entry must never do: vouch for bytes that have rotted underneath it.

The bit-rot cases flip a byte of the *stored* document through the fault
plan's ``corrupt`` kind; the flipped offset comes from
``REPRO_FAULT_SEED`` (CI runs this file in its "Corruption chaos" step
under a per-run seed and prints it for replay).
"""

import itertools

import pytest

from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.faults import FaultPlan, FaultRule
from repro.http import content
from repro.http.content import (
    DIGEST_HEADER,
    QUARANTINE_HEADER,
    body_digest,
    etag_for,
    gunzip_bytes,
    last_modified_for,
)
from repro.http.messages import Request, Response
from repro.http.piggyback import SENDER_HEADER
from repro.server import engine as engine_module
from repro.server.admin import render_caches
from repro.server.dispatch import serve
from repro.server.engine import (
    DCWSEngine,
    OutboundAction,
    PullFromHome,
    VERSION_HEADER,
)
from repro.server.filestore import DiskStore, MemoryStore

HOME = Location("home", 8001)
COOP = Location("coop", 8002)

PAGE = "/big.html"
NOTES = "/notes.txt"        # compressible, but nothing regenerates it
SITE = {
    "/index.html": b'<html><a href="big.html">B</a>'
                   b'<a href="notes.txt">N</a></html>',
    PAGE: b'<html><a href="index.html">up</a>'
          + b"<p>lorem ipsum dolor</p>" * 64 + b"</html>",
    NOTES: b"remember the milk\n" * 64,
    "/i.gif": b"GIF89a" + b"x" * 500,
}


def make_engine(store=None, **config_kwargs) -> DCWSEngine:
    config_kwargs.setdefault("scrub_interval", 0.0)
    engine = DCWSEngine(HOME, ServerConfig(**config_kwargs),
                        store if store is not None
                        else MemoryStore(dict(SITE)),
                        entry_points=["/index.html"], peers=[COOP])
    engine.initialize(0.0)
    return engine


def get(path, *, gzip=False, etag=None, method="GET") -> Request:
    request = Request(method=method, target=path)
    if gzip:
        request.headers.set("Accept-Encoding", "gzip")
    if etag is not None:
        request.headers.set("If-None-Match", etag)
    return request


_clock = itertools.count(1)


def dispatch(engine, request):
    """The short-circuit where it applies, else the slow path."""
    return serve(engine, request, float(next(_clock))).response


def evict(engine):
    engine.response_cache.clear()


def entry_of(engine, key):
    return engine.response_cache.peek(key)


def looked_up(engine, record):
    return engine.response_cache.get(record.name, record.version, "GET",
                                     record.digest)


# -- what replaces an entry ------------------------------------------------


def test_a_rendition_is_replaced_when_either_half_of_its_stamp_moves():
    engine = make_engine()
    record = engine.graph.get(PAGE)
    served = dispatch(engine, get(PAGE, gzip=True))
    first = entry_of(engine, PAGE)
    assert looked_up(engine, record) is first
    assert engine._validators(PAGE, record) is first
    assert (first.version, first.digest) == (record.version, record.digest)
    assert first.etag == etag_for(PAGE, record.version)
    assert first.last_modified == last_modified_for(record.version)
    assert first.gzip_body is served.body
    record.version += 1
    assert looked_up(engine, record) is None       # a stale stamp misses
    assert engine._validators(PAGE, record).etag != first.etag
    dispatch(engine, get(PAGE, gzip=True))          # the fill replaces it
    second = entry_of(engine, PAGE)
    assert second is not first and second.etag != first.etag
    assert second.version == record.version
    record.digest = body_digest(b"other bytes, same version")
    assert looked_up(engine, record) is None
    third = engine._validators(PAGE, record)
    assert third is not second and third.etag == second.etag
    assert third.gzip_body is None and not third.not_modified
    assert len(engine.response_cache) == 1     # replaced, not accumulated


def test_an_update_and_a_regeneration_each_start_a_new_rendition():
    engine = make_engine()
    before = dispatch(engine, get(PAGE, gzip=True))
    kept = entry_of(engine, PAGE)
    assert kept.gzip_body is before.body
    engine.update_document(PAGE, SITE[PAGE].replace(b"lorem", b"LOREM"))
    assert PAGE not in engine.response_cache
    after = dispatch(engine, get(PAGE, gzip=True))     # regenerates
    fresh = entry_of(engine, PAGE)
    assert fresh is not kept
    assert fresh.digest == engine.graph.get(PAGE).digest != kept.digest
    assert fresh.gzip_body is after.body
    assert b"LOREM" in gunzip_bytes(after.body)
    # The old ETag revalidates into the new bytes, the new one into 304.
    assert dispatch(engine, get(PAGE, etag=kept.etag)).status == 200
    assert dispatch(engine, get(PAGE, etag=fresh.etag)).status == 304


def test_a_peers_304_is_framed_afresh_and_never_kept():
    """A response to a peer carries the load table of the moment; the
    memoised block must neither hold one nor be handed to a peer."""
    engine = make_engine()
    dispatch(engine, get(PAGE))             # the entry that keeps blocks
    etag = etag_for(PAGE, 0)
    from_peer = get(PAGE, etag=etag)
    from_peer.headers.set(SENDER_HEADER, str(COOP))
    first = dispatch(engine, from_peer)
    assert first.status == 304 and first.headers.get(SENDER_HEADER)
    assert not entry_of(engine, PAGE).not_modified
    assert engine.stats.fast_hits == 0      # peer traffic goes slow
    plain = dispatch(engine, get(PAGE, etag=etag))
    assert plain.status == 304 and SENDER_HEADER not in plain.headers
    assert engine.stats.fast_hits == 1
    assert entry_of(engine, PAGE).not_modified
    again = dispatch(engine, from_peer)     # not the block just kept
    assert again.status == 304
    assert again.headers.get(SENDER_HEADER) == str(HOME)


# -- an eviction takes the variant with the bytes ---------------------------


def counting_gzip(monkeypatch):
    calls = []
    real = content.gzip_bytes
    monkeypatch.setattr(content, "gzip_bytes",
                        lambda data: calls.append(len(data)) or real(data))
    return calls


def test_an_evicted_entry_takes_its_variant_with_it(monkeypatch):
    calls = counting_gzip(monkeypatch)
    engine = make_engine()
    first = dispatch(engine, get(PAGE, gzip=True))
    assert calls == [len(SITE[PAGE])]
    served = first
    for turn in range(2, 5):
        # A hit is served from the entry: no second deflate.
        assert dispatch(engine, get(PAGE, gzip=True)).body is served.body
        evict(engine)
        assert len(engine.response_cache) == 0
        again = dispatch(engine, get(PAGE, gzip=True))
        assert len(engine.response_cache) == 1      # refilled
        assert again.body is not served.body and again.body == first.body
        assert again.serialize_head() == first.serialize_head()
        assert body_digest(gunzip_bytes(again.body)) == \
            again.headers.get(DIGEST_HEADER)
        assert calls == [len(SITE[PAGE])] * turn
        served = again
    # An identity refill makes the variant too (Vary depends on it).
    evict(engine)
    identity = dispatch(engine, get(PAGE))
    assert identity.body == SITE[PAGE]
    assert identity.headers.get("Vary") == "Accept-Encoding"
    assert len(calls) == 5
    # A document with nothing worth compressing is simply asked again.
    for __ in range(2):
        evict(engine)
        assert dispatch(engine, get("/i.gif", gzip=True)).body == \
            SITE["/i.gif"]
    assert entry_of(engine, "/i.gif").gzip_body is None
    assert len(calls) == 5


def test_a_head_joins_the_entry_a_get_made_and_keeps_its_variant():
    engine = make_engine()
    reads = []
    read = engine.store.get
    engine.store.get = lambda name: reads.append(name) or read(name)
    first = dispatch(engine, get(PAGE, gzip=True))
    assert first.headers.get("Content-Encoding") == "gzip"
    # The first HEAD of the copy misses and joins the GET's entry; the
    # second is a hit.  A HEAD answers as the identity entity, no Vary.
    for __ in range(2):
        head = dispatch(engine, get(PAGE, gzip=True, method="HEAD"))
        assert head.status == 200 and head.body == b""
        assert head.headers.get_int("Content-Length") == len(SITE[PAGE])
        assert "Vary" not in head.headers
        assert "Content-Encoding" not in head.headers
    entry = entry_of(engine, PAGE)
    assert entry.methods == {"GET", "HEAD"} and len(engine.response_cache) == 1
    assert entry.gzip_body is first.body
    again = dispatch(engine, get(PAGE, gzip=True))
    assert again.body is first.body
    assert again.serialize_head() == first.serialize_head()
    assert reads == [PAGE, PAGE]        # the GET's fill, the HEAD's join


def test_every_fill_that_touches_the_variant_hashes_the_bytes(monkeypatch):
    hashed = []
    real = engine_module.digest_matches
    monkeypatch.setattr(
        engine_module, "digest_matches",
        lambda data, digest: hashed.append(digest) or real(data, digest))
    engine = make_engine(integrity_serve_sample=0)      # sampler off
    dispatch(engine, get(PAGE, gzip=True))
    digest = engine.graph.get(PAGE).digest
    assert hashed == [digest]       # before the variant is made ...
    for turn in range(2, 5):
        evict(engine)
        dispatch(engine, get(PAGE, gzip=True))
        assert hashed == [digest] * turn    # ... and before each remake
    # A document that cannot have a variant is left to the sampler.
    evict(engine)
    dispatch(engine, get("/i.gif", gzip=True))
    assert hashed == [digest] * 4
    assert engine.integrity.counters.serve_checks == 0


# -- bit-rot under an entry ------------------------------------------------


def rotting_engine(tmp_path, name):
    """A disk-backed engine whose reads of *name* flip one byte (offset
    from ``REPRO_FAULT_SEED``) once ``plan.enabled`` is set.  Every cache
    miss reads the disk; no scrubber and the 1-in-N sampler off: the
    only thing left to notice is the check a fill that makes the
    variant makes."""
    plan = FaultPlan.from_env([FaultRule(kind="corrupt", site="disk",
                                         name=name)])
    plan.enabled = False
    store = DiskStore(str(tmp_path), faults=plan)
    for path, data in SITE.items():
        store.put(path, data)
    engine = make_engine(store, integrity_serve_sample=0)
    return engine, plan


@pytest.mark.parametrize("gzip", [True, False])
def test_a_rotten_refill_is_quarantined_not_paired_with_the_variant(
        tmp_path, gzip):
    engine, plan = rotting_engine(tmp_path, PAGE)
    good = dispatch(engine, get(PAGE, gzip=True))
    etag = good.headers.get("ETag")
    assert dispatch(engine, get(PAGE, etag=etag)).status == 304
    kept = entry_of(engine, PAGE)
    assert kept.gzip_body is good.body and kept.not_modified
    plan.enabled = True
    evict(engine)
    refused = dispatch(engine, get(PAGE, gzip=gzip))
    assert refused.status == 503
    assert refused.headers.get("Retry-After") == "1"
    assert engine.integrity.counters.corruptions_detected == 1
    assert engine.integrity.counters.serve_checks == 0     # not the sampler
    assert [event.kind for event in plan.injected] == ["corrupt"]
    assert len(engine.response_cache) == 0      # nothing rotten was cached
    # The page regenerates from its template as a new version: the old
    # ETag must now fetch, not revalidate, and the body must be whole.
    plan.enabled = False
    assert engine.graph.get(PAGE).dirty
    repaired = dispatch(engine, get(PAGE, gzip=True, etag=etag))
    assert repaired.status == 200
    assert not engine.integrity.is_quarantined(PAGE)
    assert entry_of(engine, PAGE) is not kept
    assert repaired.body is not good.body
    body = gunzip_bytes(repaired.body)
    assert body_digest(body) == repaired.headers.get(DIGEST_HEADER)
    assert b"lorem ipsum" in body
    assert repaired.headers.get("ETag") != etag


@pytest.mark.parametrize("name", [PAGE, NOTES])
def test_a_rotten_first_read_never_becomes_the_variant(tmp_path, name):
    """The read a variant is made from must be shown to be the stamped
    bytes: a variant of rotten bytes under the good digest would be
    served for as long as its entry lives, and nothing downstream
    hashes a gzip body."""
    engine, plan = rotting_engine(tmp_path, name)
    plan.enabled = True
    refused = dispatch(engine, get(name, gzip=True))
    assert refused.status == 503
    assert [event.kind for event in plan.injected] == ["corrupt"]
    assert engine.integrity.counters.corruptions_detected == 1
    assert name not in engine.response_cache
    assert len(engine.response_cache) == 0
    plan.enabled = False
    if name == NOTES:       # nothing regenerates it: the author re-uploads
        assert dispatch(engine, get(name, gzip=True)).status == 503
        engine.update_document(name, SITE[name])
    for __ in range(3):
        served = dispatch(engine, get(name, gzip=True))
        assert served.status == 200
        assert served.headers.get("Content-Encoding") == "gzip"
        assert served.body is entry_of(engine, name).gzip_body
        assert body_digest(gunzip_bytes(served.body)) == \
            served.headers.get(DIGEST_HEADER) == \
            engine.graph.get(name).digest
        evict(engine)


def test_no_304_for_a_quarantined_name(tmp_path):
    engine, plan = rotting_engine(tmp_path, NOTES)
    good = dispatch(engine, get(NOTES, gzip=True))
    etag = good.headers.get("ETag")
    assert good.headers.get("Content-Encoding") == "gzip"
    for __ in range(2):     # the second is a copy of the framed block
        assert dispatch(engine, get(NOTES, etag=etag)).status == 304
    assert engine.stats.fast_hits == 2
    plan.enabled = True
    evict(engine)
    assert dispatch(engine, get(NOTES, gzip=True)).status == 503
    assert engine.integrity.is_quarantined(NOTES)
    # Same version, same digest, so the validators still match — and
    # must not answer for bytes known to be bad.
    record = engine.graph.get(NOTES)
    assert not record.dirty
    assert NOTES not in engine.response_cache
    assert engine._validators(NOTES, record).etag == etag
    for method in ("GET", "HEAD"):
        refused = dispatch(engine, get(NOTES, etag=etag, method=method))
        assert refused.status == 503
    assert engine.stats.fast_hits == 2
    assert engine.stats.conditional_304s == 2
    # The author's re-upload is a new version with its own entry.
    plan.enabled = False
    engine.update_document(NOTES, SITE[NOTES])
    assert dispatch(engine, get(NOTES, etag=etag)).status == 200
    fresh = etag_for(NOTES, engine.graph.get(NOTES).version)
    assert dispatch(engine, get(NOTES, etag=fresh)).status == 304


# -- a hosted copy has an entry too ------------------------------------------

KEY = f"/~migrate/{HOME.host}/{HOME.port}{PAGE}"
REVISED = SITE[PAGE].replace(b"lorem", b"LOREM")


def make_coop(store=None, **config_kwargs) -> DCWSEngine:
    """A co-op warmed with the home's copy of PAGE at version 3."""
    config_kwargs.setdefault("scrub_interval", 0.0)
    coop = DCWSEngine(COOP, ServerConfig(**config_kwargs),
                      store if store is not None else MemoryStore({}),
                      peers=[HOME])
    coop.initialize(0.0)
    coop.seed_hosted(HOME, PAGE, SITE[PAGE], 3, 0.0)
    return coop


def validated(coop, response):
    coop.complete_action(OutboundAction(
        kind="validate", peer=HOME, key=KEY,
        request=Request(method="GET", target=PAGE)), response, 50.0)


def test_a_refresh_by_validation_replaces_the_hosted_rendition():
    coop = make_coop()
    served = dispatch(coop, get(KEY, gzip=True))
    etag = served.headers.get("ETag")
    assert etag == etag_for(KEY, "3")
    assert dispatch(coop, get(KEY, etag=etag)).status == 304
    kept = entry_of(coop, KEY)
    assert kept.gzip_body is served.body and kept.not_modified
    assert (kept.version, kept.digest) == ("3", body_digest(SITE[PAGE]))
    # 304 from the home: the copy, and so the entry, stand.
    validated(coop, Response(status=304))
    assert dispatch(coop, get(KEY, gzip=True)).body is served.body
    assert entry_of(coop, KEY) is kept
    # 200 with new bytes under a new version: a new stamp, a new entry.
    fresh = Response(status=200, body=REVISED)
    fresh.headers.set(VERSION_HEADER, "4")
    fresh.headers.set(DIGEST_HEADER, body_digest(REVISED))
    validated(coop, fresh)
    assert dispatch(coop, get(KEY, etag=etag)).status == 200
    again = dispatch(coop, get(KEY, gzip=True))
    assert gunzip_bytes(again.body) == REVISED
    assert again.headers.get("ETag") == etag_for(KEY, "4")
    replaced = entry_of(coop, KEY)
    assert replaced is not kept and not replaced.not_modified
    assert replaced.gzip_body is again.body
    # A home that keeps the version but not the bytes (a regeneration):
    # the digest half of the stamp moves, and that is enough.
    regenerated = Response(status=200, body=SITE[PAGE])
    regenerated.headers.set(VERSION_HEADER, "4")
    validated(coop, regenerated)
    assert gunzip_bytes(dispatch(coop, get(KEY, gzip=True)).body) == \
        SITE[PAGE]
    assert entry_of(coop, KEY) is not replaced


@pytest.mark.parametrize("status", [301, 404])
def test_dropping_a_hosted_copy_drops_its_rendition(status):
    coop = make_coop()
    dispatch(coop, get(KEY, gzip=True))
    assert KEY in coop.response_cache
    validated(coop, Response(status=status))
    assert KEY not in coop.hosted and KEY not in coop.store
    assert KEY not in coop.response_cache
    counters = coop.cache_counters()["response_cache"]
    assert (counters["entries"], counters["used_bytes"],
            counters["variant_bytes"]) == (0, 0, 0)


def test_a_pull_answered_with_a_redirect_leaves_no_rendition():
    coop = make_coop()
    dispatch(coop, get(KEY, gzip=True))
    coop.store.delete(KEY)              # the bytes are lost ...
    evict(coop)
    pull = coop.handle_request(get(KEY), 60.0)
    assert isinstance(pull, PullFromHome)       # ... so it pulls again
    moved = Response(status=301)
    moved.headers.set("Location", "http://elsewhere:1/~migrate/x")
    assert coop.complete_pull(pull, moved, 60.0).response.status == 301
    assert KEY not in coop.hosted and KEY not in coop.response_cache


def test_an_evicted_hosted_entry_takes_its_variant_with_it(monkeypatch):
    calls = counting_gzip(monkeypatch)
    coop = make_coop()
    first = dispatch(coop, get(KEY, gzip=True))
    assert calls == [len(SITE[PAGE])]
    assert coop.cache_counters()["response_cache"]["variant_bytes"] == \
        len(first.body)
    served = first
    for turn in range(2, 5):
        assert dispatch(coop, get(KEY, gzip=True)).body is served.body
        evict(coop)
        assert coop.cache_counters()["response_cache"]["variant_bytes"] == 0
        again = dispatch(coop, get(KEY, gzip=True))
        assert again.body is not served.body and again.body == first.body
        assert again.serialize_head() == first.serialize_head()
        assert calls == [len(SITE[PAGE])] * turn
        served = again
    evict(coop)
    assert dispatch(coop, get(KEY)).headers.get("Vary") == "Accept-Encoding"
    assert len(calls) == 5


@pytest.mark.parametrize("gzip", [True, False])
def test_a_rotten_hosted_refill_is_pulled_again_never_paired(tmp_path, gzip):
    """The co-op's half of the one integrity rule: whatever fill would
    make or reuse the variant hashes the bytes first, sampler or no
    sampler, and rotten bytes mean the copy is dropped and re-pulled."""
    plan = FaultPlan.from_env([FaultRule(kind="corrupt", site="disk",
                                         name=KEY)])
    plan.enabled = False
    coop = make_coop(DiskStore(str(tmp_path), faults=plan),
                     integrity_serve_sample=0)
    good = dispatch(coop, get(KEY, gzip=True))
    assert entry_of(coop, KEY).gzip_body is good.body
    plan.enabled = True
    evict(coop)
    pull = coop.handle_request(get(KEY, gzip=gzip), 70.0)
    assert isinstance(pull, PullFromHome)
    assert pull.request.headers.get(QUARANTINE_HEADER) == "1"
    assert [event.kind for event in plan.injected] == ["corrupt"]
    assert coop.integrity.counters.corruptions_detected == 1
    assert coop.integrity.counters.serve_checks == 0    # not the sampler
    assert KEY not in coop.response_cache and KEY not in coop.store
    assert len(coop.response_cache) == 0
    # The home's answer is installed and served — negotiated like any
    # request, which the reply after a pull once was not.
    plan.enabled = False
    upstream = Response(status=200, body=SITE[PAGE])
    upstream.headers.set(VERSION_HEADER, "3")
    upstream.headers.set(DIGEST_HEADER, body_digest(SITE[PAGE]))
    healed = coop.complete_pull(pull, upstream, 70.5).response
    assert healed.status == 200 and not coop.integrity.is_quarantined(KEY)
    assert healed.headers.get("ETag") == etag_for(KEY, "3")
    assert (healed.headers.get("Content-Encoding") == "gzip") == gzip
    body = gunzip_bytes(healed.body) if gzip else healed.body
    assert body == SITE[PAGE]
    assert healed.body is not good.body


def test_a_rotten_first_hosted_read_never_becomes_the_variant(tmp_path):
    plan = FaultPlan.from_env([FaultRule(kind="corrupt", site="disk",
                                         name=KEY)])
    coop = make_coop(DiskStore(str(tmp_path), faults=plan),
                     integrity_serve_sample=0)
    pull = coop.handle_request(get(KEY, gzip=True), 70.0)
    assert isinstance(pull, PullFromHome)
    assert KEY not in coop.response_cache
    assert len(coop.response_cache) == 0


def test_the_reply_after_a_pull_is_negotiated_like_any_other():
    coop = DCWSEngine(COOP, ServerConfig(), MemoryStore({}), peers=[HOME])
    coop.initialize(0.0)

    def pulled(request):
        pull = coop.handle_request(request, 80.0)
        assert isinstance(pull, PullFromHome)
        upstream = Response(status=200, body=SITE[PAGE])
        upstream.headers.set(VERSION_HEADER, "3")
        upstream.headers.set(DIGEST_HEADER, body_digest(SITE[PAGE]))
        reply = coop.complete_pull(pull, upstream, 80.5).response
        later = dispatch(coop, request)
        assert reply.serialize() == later.serialize()
        del coop.hosted[KEY]            # forgotten: the next one pulls
        return reply

    assert pulled(get(KEY, gzip=True)).headers.get(
        "Content-Encoding") == "gzip"
    assert pulled(get(KEY, etag=etag_for(KEY, "3"))).status == 304
    ranged = get(KEY)
    ranged.headers.set("Range", "bytes=0-9")
    assert pulled(ranged).status == 206
    assert coop.stats.gzip_responses == 2 and coop.stats.responses_206 == 2
    assert coop.stats.conditional_304s == 2


# -- the server can say how often it leaves the short-circuit -------------


def test_a_clean_site_with_revalidations_stays_on_the_short_circuit():
    """40 % revalidations, 70 % gzip, some HEADs, over a warmed clean
    site: at least 0.85 of requests must take ``fast_lookup`` — a change
    that sends 304s back to ``handle_request`` fails here, not in a
    benchmark."""
    engine = make_engine()
    reads = []
    read = engine.store.get
    engine.store.get = lambda name: reads.append(name) or read(name)
    names = sorted(SITE)
    for name in names:      # the warm crawl: one slow fill per document
        dispatch(engine, get(name))
    warm = engine.stats.requests
    for turn in range(500):
        name = names[turn * 7 % len(names)]
        etag = etag_for(name, 0) if turn % 5 < 2 else None
        method = "HEAD" if turn % 50 == 49 else "GET"
        response = dispatch(engine, get(name, gzip=turn % 10 < 7, etag=etag,
                                        method=method))
        assert response.status == (304 if etag else 200)
        assert response.headers.get(VERSION_HEADER) == "0"
    stats = engine.stats
    assert stats.requests == warm + 500
    assert stats.conditional_304s == 200
    share = stats.fast_hits / stats.requests
    assert share >= 0.85, share
    counters = engine.cache_counters()
    assert counters["short_circuit"] == {
        "fast_hits": stats.fast_hits, "requests": stats.requests,
        "share": round(share, 4)}
    assert counters["response_cache"]["entries"] == len(SITE)
    # A short-circuit miss is looked up again by the slow path and
    # booked once there: every booked miss is one read of the store.
    assert counters["byte_cache"]["misses"] == len(reads) > len(SITE)
    page = render_caches(engine)
    assert "short_circuit:" in page and "response_cache:" in page
    assert f"share            {share:.4f}" in page


def test_rendition_counters_report_the_variant_bytes_kept():
    def held(engine):
        counters = engine.cache_counters()["response_cache"]
        return {key: counters[key]
                for key in ("entries", "used_bytes", "variant_bytes")}

    engine = make_engine()
    assert held(engine) == {"entries": 0, "used_bytes": 0,
                            "variant_bytes": 0}
    bodies = [dispatch(engine, get(name, gzip=True)).body
              for name in (PAGE, NOTES)]
    dispatch(engine, get("/i.gif", gzip=True))
    variants = sum(map(len, bodies))
    identity = len(SITE[PAGE]) + len(SITE[NOTES]) + len(SITE["/i.gif"])
    assert held(engine) == {"entries": 3, "used_bytes": identity + variants,
                            "variant_bytes": variants}
    assert engine.cache_counters()["response_cache"]["budget"] == \
        engine.config.byte_cache_bytes
    evict(engine)       # the variants go with the bytes
    assert held(engine) == {"entries": 0, "used_bytes": 0,
                            "variant_bytes": 0}
