"""End-to-end content integrity: digests, scrub daemon, quarantine.

Covers the digest lifecycle (authored -> recorded -> stamped -> verified),
the budgeted background scrubber, quarantine semantics on both the home
and the hosted side (including the home notification that triggers
drop-and-repair), transport-level rejection of corrupted pulls, WAL
replay and snapshot round-trips of digest + quarantine state, and the
fault plan's seeded ``corrupt`` kind (same seed, same flip, whichever
transport the payload crosses).
"""

import socket

import pytest

from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.errors import ConfigError
from repro.faults import FaultPlan, FaultRule, apply_corruption
from repro.http.content import (
    DIGEST_HEADER,
    QUARANTINE_HEADER,
    body_digest,
    digest_matches,
    gunzip_bytes,
)
from repro.client.realclient import http_fetch
from repro.http.messages import Request
from repro.server.engine import (
    DCWSEngine,
    EngineReply,
    PullFromHome,
    PURPOSE_HEADER,
)
from repro.server.filestore import DiskStore, MemoryStore
from repro.server.fsck import check_engine
from repro.server.persistence import (
    apply_record,
    restore_engine,
    snapshot_engine,
)
from repro.server.threaded import ThreadedDCWSServer
from repro.server.wal import WriteAheadJournal, scan_journal
from tests.integration.test_real_servers import free_port

HOME = Location("home", 8001)
COOP = Location("coop", 8002)
COOP2 = Location("coop2", 8003)

SITE = {
    "/index.html": b'<html><a href="d.html">D</a><a href="e.html">E</a>'
                   b'</html>',
    "/d.html": b'<html><a href="e.html">E</a></html>',
    "/e.html": b"<html>leaf</html>",
    "/i.gif": b"GIF89a" + b"x" * 300,
}


def make_engine(location=HOME, site=None, peers=(COOP, COOP2),
                **config_kwargs):
    config_kwargs.setdefault("stats_interval", 60.0)
    config_kwargs.setdefault("pinger_interval", 60.0)
    config_kwargs.setdefault("validation_interval", 60.0)
    config = ServerConfig(**config_kwargs)
    store = MemoryStore(site if site is not None else dict(SITE))
    engine = DCWSEngine(location, config, store,
                        entry_points=["/index.html"]
                        if site is None else [],
                        peers=list(peers))
    engine.initialize(0.0)
    return engine


def make_coop(**config_kwargs):
    return make_engine(location=COOP, site={}, peers=(HOME,),
                       **config_kwargs)


def get(engine, path, now=1.0, headers=None):
    request = Request(method="GET", target=path)
    if headers:
        for name, value in headers.items():
            request.headers.set(name, value)
    return engine.handle_request(request, now)


def corrupt_store(engine, name):
    """Flip one byte of *name*'s stored bytes (simulated disk rot)."""
    good = engine.store.get(name)
    bad = bytearray(good)
    bad[len(bad) // 2] ^= 0xFF
    engine.store.put(name, bytes(bad))
    return bytes(bad)


MIGRATED_D = "/~migrate/home/8001/d.html"


def pulled_coop(**config_kwargs):
    """A co-op hosting a fetched copy of /d.html, plus its home digest."""
    coop = make_coop(**config_kwargs)
    coop.seed_hosted(HOME, "/d.html", SITE["/d.html"], version=0, now=0.5)
    return coop


class TestDigestLifecycle:
    def test_initialize_records_digest_of_stored_bytes(self):
        engine = make_engine()
        for name, data in SITE.items():
            record = engine.graph.get(name)
            assert record.digest == body_digest(data)
            assert record.digest.startswith("sha256:")

    def test_update_document_refreshes_digest(self):
        engine = make_engine()
        engine.update_document("/e.html", b"<html>rewritten</html>")
        assert engine.graph.get("/e.html").digest == \
            body_digest(b"<html>rewritten</html>")

    def test_served_responses_stamp_digest_header(self):
        engine = make_engine()
        reply = get(engine, "/e.html")
        assert reply.response.headers.get(DIGEST_HEADER) == \
            engine.graph.get("/e.html").digest
        assert digest_matches(reply.response.body,
                              reply.response.headers.get(DIGEST_HEADER))

    def test_gzip_variant_carries_identity_digest(self):
        engine = make_engine(site={
            "/big.html": b"<html>" + b"wellcompressible " * 64 + b"</html>"})
        get(engine, "/big.html")  # fill the response cache
        reply = get(engine, "/big.html", now=1.1,
                    headers={"Accept-Encoding": "gzip"})
        assert reply.response.headers.get("Content-Encoding") == "gzip"
        claimed = reply.response.headers.get(DIGEST_HEADER)
        assert claimed == engine.graph.get("/big.html").digest
        # The digest covers the identity entity, not the gzip transfer.
        assert not digest_matches(reply.response.body, claimed)
        assert digest_matches(gunzip_bytes(reply.response.body), claimed)

    def test_range_responses_carry_no_digest(self):
        engine = make_engine()
        reply = get(engine, "/i.gif", headers={"Range": "bytes=0-5"})
        assert reply.response.status == 206
        assert reply.response.headers.get(DIGEST_HEADER) is None

    def test_pull_installs_home_digest_on_hosted_copy(self):
        coop = make_coop()
        home = make_engine()
        pull = get(coop, MIGRATED_D)
        upstream = get(home, pull.request.target, now=1.1,
                       headers={PURPOSE_HEADER: "migration-pull"})
        assert upstream.response.headers.get(DIGEST_HEADER) == \
            body_digest(SITE["/d.html"])
        coop.complete_pull(pull, upstream.response, now=1.2)
        assert coop.hosted[MIGRATED_D].digest == body_digest(SITE["/d.html"])
        served = get(coop, MIGRATED_D, now=1.3)
        assert served.response.headers.get(DIGEST_HEADER) == \
            body_digest(SITE["/d.html"])


class TestPullVerification:
    def test_corrupted_pull_body_rejected_and_degraded_home(self):
        coop = make_coop()
        home = make_engine()
        pull = get(coop, MIGRATED_D)
        upstream = get(home, pull.request.target, now=1.1,
                       headers={PURPOSE_HEADER: "migration-pull"})
        upstream.response.body = apply_corruption(
            _corrupt_event(), upstream.response.body)
        reply = coop.complete_pull(pull, upstream.response, now=1.2)
        # Never installed, never served: the client is bounced to the
        # home, which holds the verified permanent copy.
        assert reply.response.status == 302
        assert reply.response.headers.get("Location") == \
            "http://home:8001/d.html"
        assert coop.integrity.counters.pulls_rejected == 1
        assert not coop.hosted[MIGRATED_D].fetched

    def test_transport_flagged_corruption_rejected(self):
        # The dispatch layer translates the pool's DigestMismatch into
        # complete_pull(corrupt=True): same rejection, no install.
        coop = make_coop()
        home = make_engine()
        pull = get(coop, MIGRATED_D)
        upstream = get(home, pull.request.target, now=1.1,
                       headers={PURPOSE_HEADER: "migration-pull"})
        reply = coop.complete_pull(pull, upstream.response, now=1.2,
                                   corrupt=True)
        assert reply.response.status == 302
        assert coop.integrity.counters.pulls_rejected == 1
        assert not coop.hosted[MIGRATED_D].fetched
        # A corruption is not a peer failure: the home answered, so the
        # breaker/pinger must not count it toward declaring it dead.
        assert not coop.membership.describe(str(HOME)).get("failures")


class TestCorruptHomeStaysReachable:
    def test_corrupt_pulls_bounce_to_the_home_and_never_open_its_circuit(
            self):
        """Regression: a digest-rejected pull is an answer, not silence.
        The pool used to count each one as a failed fetch, so after three
        the home's circuit opened and clients got 503s — no pull
        attempted — while membership still listed the home alive."""
        home_loc = Location("127.0.0.1", free_port())
        coop_loc = Location("127.0.0.1", free_port())
        home_key = str(home_loc)
        config = ServerConfig(stats_interval=60.0, pinger_interval=60.0,
                              validation_interval=60.0)
        plan = FaultPlan.from_env([FaultRule("corrupt", peer=home_key)])
        home = ThreadedDCWSServer(
            DCWSEngine(home_loc, config, MemoryStore(dict(SITE)),
                       entry_points=["/index.html"], peers=[coop_loc]),
            tick_period=0.1)
        coop = ThreadedDCWSServer(
            DCWSEngine(coop_loc, config, MemoryStore(), peers=[home_loc]),
            tick_period=0.1, faults=plan)
        key = f"/~migrate/127.0.0.1/{home_loc.port}/d.html"
        with home, coop:
            with home._lock:
                home.engine.policy.force_migrate("/d.html", coop_loc, 0.0)
            for attempt in range(5):
                reply = http_fetch(coop_loc, Request("GET", key))
                assert reply.status == 302, (attempt, plan.seed)
                assert reply.headers.get("Location") == \
                    f"http://{home_key}/d.html"
            with coop._lock:
                membership = coop.engine.membership
                assert coop.engine.integrity.counters.pulls_rejected == 5
                assert membership.state(home_key) == "alive"
                assert membership.describe(home_key)["circuit"] == "closed"
                assert not coop.engine.hosted[key].fetched


class TestScrubHome:
    def test_scrub_quarantines_rotted_document(self):
        engine = make_engine(scrub_interval=1.0, scrub_budget=16)
        corrupt_store(engine, "/i.gif")
        engine.tick(2.0)  # first scrub round covers the whole site
        assert engine.integrity.is_quarantined("/i.gif")
        assert engine.integrity.counters.corruptions_detected == 1
        assert engine.log.count("quarantine") == 1
        # Non-HTML has no regeneration source: refuse to serve the rot.
        reply = get(engine, "/i.gif", now=2.1)
        assert reply.response.status == 503
        assert reply.response.headers.get("Retry-After") == "5"

    def test_quarantined_html_regenerates_from_template(self):
        engine = make_engine(scrub_interval=1.0, scrub_budget=16)
        version = engine.graph.get("/d.html").version
        corrupt_store(engine, "/d.html")
        engine.tick(2.0)
        assert engine.integrity.is_quarantined("/d.html")
        # Armed for regeneration the way every other event arms it: dirty
        # under a version nobody has been served.
        assert engine.graph.get("/d.html").dirty
        assert engine.graph.get("/d.html").version == version + 1
        # The in-memory link template is the pre-corruption canonical
        # source: the next serve regenerates, replacing the bad bytes.
        reply = get(engine, "/d.html", now=2.1)
        assert reply.response.status == 200
        assert reply.response.headers.get("X-DCWS-Version") == \
            str(version + 1)
        assert digest_matches(reply.response.body,
                              engine.graph.get("/d.html").digest)
        assert not engine.integrity.is_quarantined("/d.html")
        assert engine.integrity.counters.quarantines_cleared == 1
        assert not check_engine(engine)

    def test_no_template_and_no_clean_source_means_no_regeneration(self):
        """A restored home quarantine comes back without its template
        ("the quarantine then holds until re-authored").  The operator's
        ``regenerate_dirty`` must hold it too: rewriting the rotten
        bytes would re-digest them and clear the quarantine, and the
        next GET would be a 200 whose digest matches the corruption."""
        engine = make_engine(scrub_interval=1.0, scrub_budget=16)
        engine.policy.force_migrate("/d.html", COOP, now=0.5)
        assert engine.graph.get("/index.html").dirty
        rotten = corrupt_store(engine, "/index.html")
        engine.tick(2.0)
        assert engine.integrity.is_quarantined("/index.html")
        engine._templates.pop("/index.html")    # as persistence restores it
        assert get(engine, "/index.html", now=2.1).response.status == 503
        assert not check_engine(engine)
        # The migrated page itself is dirty too and does regenerate.
        assert engine.regenerate_dirty() == 1
        assert engine.graph.get("/index.html").dirty
        assert not engine.graph.get("/d.html").dirty
        assert engine.integrity.is_quarantined("/index.html")
        assert engine.store.get("/index.html") == rotten    # untouched
        assert engine.graph.get("/index.html").digest != body_digest(rotten)
        assert get(engine, "/index.html", now=2.2).response.status == 503
        assert not check_engine(engine)
        # Re-authoring is what lifts it.
        engine.update_document("/index.html", SITE["/index.html"])
        reply = get(engine, "/index.html", now=2.3)
        assert reply.response.status == 200
        assert b"~migrate/home/8001/d.html" in reply.response.body
        assert digest_matches(reply.response.body,
                              reply.response.headers.get(DIGEST_HEADER))
        assert not check_engine(engine)

    def test_author_update_clears_quarantine(self):
        engine = make_engine(scrub_interval=1.0, scrub_budget=16)
        corrupt_store(engine, "/i.gif")
        engine.tick(2.0)
        assert engine.integrity.is_quarantined("/i.gif")
        engine.update_document("/i.gif", b"GIF89a" + b"y" * 200)
        assert not engine.integrity.is_quarantined("/i.gif")
        assert get(engine, "/i.gif", now=2.2).response.status == 200

    def test_scrub_respects_budget_and_cursor_wraps(self):
        engine = make_engine(scrub_interval=1.0, scrub_budget=1)
        checked_before = engine.integrity.counters.scrub_checked
        for round_index in range(len(SITE)):
            engine.tick(2.0 + round_index)
        checked = engine.integrity.counters.scrub_checked - checked_before
        assert checked == len(SITE)  # one per round, whole site covered
        assert engine.integrity.counters.scrub_rounds == len(SITE)

    def test_scrub_disabled_by_zero_interval(self):
        engine = make_engine(scrub_interval=0.0)
        corrupt_store(engine, "/i.gif")
        engine.tick(100.0)
        assert not engine.integrity.is_quarantined("/i.gif")

    def test_config_rejects_negative_knobs(self):
        with pytest.raises(ConfigError):
            ServerConfig(scrub_interval=-1.0)
        with pytest.raises(ConfigError):
            ServerConfig(scrub_budget=0)
        with pytest.raises(ConfigError):
            ServerConfig(integrity_serve_sample=-1)


class TestScrubHosted:
    def test_scrub_drops_rotted_hosted_copy(self):
        coop = pulled_coop(scrub_interval=1.0)
        corrupt_store(coop, MIGRATED_D)
        coop.tick(2.0)
        hosted = coop.hosted[MIGRATED_D]
        assert coop.integrity.is_quarantined(MIGRATED_D)
        assert not hosted.fetched
        assert hosted.version == "" and hosted.digest == ""
        assert MIGRATED_D not in coop.store
        assert not check_engine(coop)  # fsck invariant 8 holds

    def test_quarantine_notification_rides_validation(self):
        coop = pulled_coop(scrub_interval=1.0)
        corrupt_store(coop, MIGRATED_D)
        # The scrub quarantines and the same tick emits the notification.
        actions = coop.tick(2.0)
        notify = [a for a in actions if a.kind == "validate"
                  and a.request.headers.get(QUARANTINE_HEADER)]
        assert len(notify) == 1
        assert notify[0].peer == HOME
        assert notify[0].request.target == "/d.html"
        # No version header: the home must answer substantively, not 304.
        assert notify[0].request.headers.get("X-DCWS-Version") is None
        # Not re-sent while the first notification is in flight.
        assert not [a for a in coop.tick(2.2) if a.kind == "validate"
                    and a.request.headers.get(QUARANTINE_HEADER)]

    def test_failed_notification_rearms(self):
        coop = pulled_coop(scrub_interval=1.0)
        corrupt_store(coop, MIGRATED_D)
        notify = [a for a in coop.tick(2.0) if a.kind == "validate"
                  and a.request.headers.get(QUARANTINE_HEADER)][0]
        coop.complete_action(notify, None, now=2.2)  # transport failed
        again = [a for a in coop.tick(2.3) if a.kind == "validate"
                 and a.request.headers.get(QUARANTINE_HEADER)]
        assert len(again) == 1  # retried next tick

    def test_home_drops_reported_holder_and_answers_301(self):
        home = make_engine(replication_k=2, max_replicas=2)
        home.policy.force_migrate("/d.html", COOP, now=0.5)
        coop = pulled_coop(scrub_interval=1.0)
        corrupt_store(coop, MIGRATED_D)
        notify = [a for a in coop.tick(2.0) if a.kind == "validate"
                  and a.request.headers.get(QUARANTINE_HEADER)][0]
        reply = home.handle_request(notify.request, 2.2)
        assert reply.response.status == 301
        assert reply.response.headers.get("Location") == \
            "http://home:8001/d.html"
        assert home.integrity.counters.holder_quarantines_reported == 1
        assert home.log.count("holder_quarantined") == 1
        # No surviving replica beyond home: full revocation, back home.
        assert COOP not in home.graph.get("/d.html").locations()
        # The co-op's validation completion then discards its entry and
        # lifts the quarantine.
        coop.complete_action(notify, reply.response, now=2.3)
        assert MIGRATED_D not in coop.hosted
        assert not coop.integrity.is_quarantined(MIGRATED_D)

    def test_home_ignores_report_from_non_holder(self):
        home = make_engine()
        request = Request(method="GET", target="/d.html")
        request.headers.set(PURPOSE_HEADER, "validation")
        request.headers.set(QUARANTINE_HEADER, "1")
        reply = home.handle_request(request, 1.0)
        # No sender, no holder to drop — the document stays put.
        assert home.integrity.counters.holder_quarantines_reported == 0
        assert home.graph.get("/d.html").location == HOME
        assert reply.response.status == 200


class TestServeSampling:
    def test_home_cache_miss_detects_rot(self):
        engine = make_engine(integrity_serve_sample=1, scrub_interval=0.0)
        corrupt_store(engine, "/i.gif")
        reply = get(engine, "/i.gif")
        assert reply.response.status == 503
        assert engine.integrity.is_quarantined("/i.gif")
        assert engine.integrity.counters.serve_checks == 1

    def test_hosted_cache_miss_detects_rot_and_repulls(self):
        coop = pulled_coop(integrity_serve_sample=1, scrub_interval=0.0,
                           byte_cache_bytes=0, response_cache_entries=0)
        corrupt_store(coop, MIGRATED_D)
        result = get(coop, MIGRATED_D)
        # Quarantined and immediately re-pulled; the pull announces the
        # quarantine so the home repairs the replication group.
        assert isinstance(result, PullFromHome)
        assert result.request.headers.get(QUARANTINE_HEADER) == "1"
        assert coop.integrity.is_quarantined(MIGRATED_D)

    def test_sampling_rate_skips_most_reads(self):
        engine = make_engine(integrity_serve_sample=1000,
                             scrub_interval=0.0,
                             response_cache_entries=0)
        for i in range(10):
            get(engine, "/e.html", now=1.0 + i * 0.01)
        assert engine.integrity.counters.serve_checks == 0


class TestDurability:
    def test_snapshot_roundtrips_digests_and_quarantine(self):
        engine = make_engine(scrub_interval=1.0, scrub_budget=16)
        corrupt_store(engine, "/i.gif")
        engine.tick(2.0)
        snapshot = snapshot_engine(engine, now=3.0)
        restarted = DCWSEngine(HOME, ServerConfig(stats_interval=60.0),
                               engine.store, peers=[COOP])
        restarted.initialize(3.5)
        restore_engine(restarted, snapshot, now=4.0)
        assert restarted.graph.get("/d.html").digest == \
            body_digest(SITE["/d.html"])
        assert restarted.integrity.is_quarantined("/i.gif")
        record = restarted.integrity.get("/i.gif")
        assert record.kind == "home" and record.reason == "scrub"
        # Still refusing to serve the rot after the restart.
        assert get(restarted, "/i.gif", now=5.0).response.status == 503
        assert not check_engine(restarted)

    def test_snapshot_keeps_quarantined_hosted_entry_for_notification(self):
        coop = pulled_coop(scrub_interval=1.0)
        corrupt_store(coop, MIGRATED_D)
        coop.tick(2.0)
        snapshot = snapshot_engine(coop, now=3.0)
        restarted = DCWSEngine(COOP, ServerConfig(), MemoryStore(),
                               peers=[HOME])
        restarted.initialize(4.0)
        restore_engine(restarted, snapshot, now=4.0)
        # The unfetched-but-quarantined entry survived, so the home
        # still gets told after the restart.
        assert MIGRATED_D in restarted.hosted
        assert not restarted.hosted[MIGRATED_D].fetched
        assert restarted.integrity.is_quarantined(MIGRATED_D)
        notify = [a for a in restarted.tick(5.0) if a.kind == "validate"
                  and a.request.headers.get(QUARANTINE_HEADER)]
        assert len(notify) == 1

    def test_wal_replays_quarantine_and_clear(self, tmp_path):
        path = str(tmp_path / "home.wal")
        engine = make_engine(scrub_interval=1.0, scrub_budget=16)
        journal = WriteAheadJournal(path, location=str(HOME))
        engine.attach_journal(journal)
        corrupt_store(engine, "/d.html")
        engine.tick(2.0)                       # journals the quarantine
        assert get(engine, "/d.html", 2.1).response.status == 200
        journal.close()                        # regeneration cleared it

        records = scan_journal(path).records
        kinds = [r.kind for r in records]
        assert "quarantine" in kinds and "quarantine_cleared" in kinds

        replayed = make_engine(site=dict(SITE))
        for record in records:
            apply_record(replayed, record)
            apply_record(replayed, record)     # idempotent
        assert not replayed.integrity.active()
        assert replayed.graph.get("/d.html").version == \
            engine.graph.get("/d.html").version == 1

        # Replaying only the prefix up to the quarantine leaves the
        # document quarantined — and, because the on-disk bytes may be
        # the corrupt ones the crash preserved, template-less.
        partial = make_engine(site=dict(SITE))
        for record in records:
            apply_record(partial, record)
            if record.kind == "quarantine":
                break
        assert partial.integrity.is_quarantined("/d.html")
        assert partial.graph.get("/d.html").version == 1
        assert get(partial, "/d.html", 9.0).response.status == 503
        assert not check_engine(partial)

    def test_regenerate_replay_installs_digest(self, tmp_path):
        path = str(tmp_path / "home.wal")
        engine = make_engine(scrub_interval=1.0, scrub_budget=16)
        journal = WriteAheadJournal(path, location=str(HOME))
        engine.attach_journal(journal)
        corrupt_store(engine, "/d.html")
        engine.tick(2.0)
        assert get(engine, "/d.html", 2.1).response.status == 200
        journal.close()
        replayed = make_engine(site=dict(SITE))
        for record in scan_journal(path).records:
            apply_record(replayed, record)
        assert replayed.graph.get("/d.html").digest == \
            engine.graph.get("/d.html").digest

    def test_fsck_flags_quarantined_entry_still_serving(self):
        coop = pulled_coop()
        coop.integrity.quarantine(MIGRATED_D, "hosted", "scrub",
                                  "sha256:aa", "sha256:bb", 1.0)
        # Deliberately broken: still fetched.
        violations = check_engine(coop)
        assert any("quarantined" in v for v in violations)


class TestCorruptFaultKind:
    def test_same_seed_same_flip_across_transports(self):
        exchange_plan = FaultPlan([FaultRule(kind="corrupt")], seed=7)
        disk_plan = FaultPlan([FaultRule(kind="corrupt", site="disk")],
                              seed=7)
        wire = exchange_plan.on_exchange("peer:1")
        rot = disk_plan.on_disk_read("/d.html")
        assert wire is not None and rot is not None
        assert wire.offset == rot.offset
        payload = b"the quick brown fox" * 10
        assert apply_corruption(wire, payload) == \
            apply_corruption(rot, payload)
        assert apply_corruption(wire, payload) != payload

    def test_corruption_is_silent_and_recorded(self):
        plan = FaultPlan([FaultRule(kind="corrupt")], seed=3)
        event = plan.on_exchange("peer:1")  # returned, never raised
        assert event is not None and event.kind == "corrupt"
        assert plan.schedule() == [(0, "exchange", "corrupt", "peer:1",
                                    event.offset)]

    def test_empty_payload_passes_through(self):
        plan = FaultPlan([FaultRule(kind="corrupt")], seed=3)
        event = plan.on_exchange("peer:1")
        assert apply_corruption(event, b"") == b""

    def test_disk_store_applies_seeded_corruption(self, tmp_path):
        plan = FaultPlan([FaultRule(kind="corrupt", site="disk",
                                    name="/a.html")], seed=11)
        store = DiskStore(str(tmp_path), faults=plan)
        store.put("/a.html", b"pristine bytes here")
        data = store.get("/a.html")
        assert data != b"pristine bytes here"
        assert len(data) == len(b"pristine bytes here")
        # Replay: an equal plan flips the identical byte.
        replay = FaultPlan([FaultRule(kind="corrupt", site="disk",
                                      name="/a.html")], seed=11)
        twin = DiskStore(str(tmp_path), faults=replay)
        assert twin.get("/a.html") == data


def _corrupt_event():
    plan = FaultPlan([FaultRule(kind="corrupt")], seed=5)
    return plan.on_exchange("home:8001")
