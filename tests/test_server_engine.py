"""Unit tests for the DCWS request engine."""

import os
import subprocess
import sys

import pytest

from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.http.content import digest_matches
from repro.http.messages import Request, Response, parse_request
from repro.http.piggyback import LoadReport, extract_load_reports
from repro.server.engine import (
    DCWSEngine,
    EngineReply,
    HOSTED_MANIFEST_HEADER,
    OutboundAction,
    PullFromHome,
    PURPOSE_HEADER,
    VERSION_HEADER,
)
from repro.server.filestore import MemoryStore

HOME = Location("home", 8001)
COOP = Location("coop", 8002)

SITE = {
    "/index.html": b'<html><a href="d.html">D</a><a href="e.html">E</a>'
                   b'<img src="i.gif"></html>',
    "/d.html": b'<html><a href="e.html">E</a></html>',
    "/e.html": b"<html>leaf</html>",
    "/i.gif": b"GIF89a" + b"x" * 100,
}


def make_engine(location=HOME, site=None, peers=(COOP,), **config_kwargs):
    config_kwargs.setdefault("stats_interval", 1.0)
    config_kwargs.setdefault("migration_hit_threshold", 1.0)
    config = ServerConfig(**config_kwargs)
    store = MemoryStore(site if site is not None else SITE)
    engine = DCWSEngine(location, config, store,
                        entry_points=["/index.html"] if site is None or
                        "/index.html" in (site or {}) else [],
                        peers=peers)
    engine.initialize(0.0)
    return engine


def get(engine, path, now=1.0, headers=None):
    request = Request(method="GET", target=path)
    if headers:
        for name, value in headers.items():
            request.headers.set(name, value)
    return engine.handle_request(request, now)


class TestInitialization:
    def test_graph_built_from_store(self):
        engine = make_engine()
        assert sorted(engine.graph.names()) == sorted(SITE)
        assert engine.graph.get("/index.html").entry_point

    def test_links_extracted(self):
        engine = make_engine()
        assert engine.graph.get("/index.html").link_to == \
            {"/d.html", "/e.html", "/i.gif"}
        assert engine.graph.get("/d.html").link_from == {"/index.html"}

    def test_initialize_idempotent(self):
        engine = make_engine()
        engine.initialize(5.0)
        assert len(engine.graph) == len(SITE)

    def test_peers_registered_in_glt(self):
        engine = make_engine()
        assert COOP in engine.glt


class TestLocalServing:
    def test_serves_document(self):
        reply = get(make_engine(), "/d.html")
        assert isinstance(reply, EngineReply)
        assert reply.response.status == 200
        assert reply.response.body == SITE["/d.html"]
        assert reply.response.headers.get("Content-Type") == "text/html"

    def test_head_returns_no_body(self):
        engine = make_engine()
        reply = engine.handle_request(Request(method="HEAD", target="/d.html"),
                                      1.0)
        assert reply.response.status == 200
        assert reply.response.body == b""
        # Content-Length still reflects the entity size.
        assert reply.response.headers.get_int("content-length") == \
            len(SITE["/d.html"])

    def test_404_for_unknown(self):
        reply = get(make_engine(), "/nope.html")
        assert reply.response.status == 404

    def test_hit_recorded(self):
        engine = make_engine()
        get(engine, "/d.html")
        assert engine.graph.get("/d.html").hits == 1

    def test_metrics_recorded(self):
        engine = make_engine()
        get(engine, "/d.html", now=1.0)
        assert engine.metrics.cps(1.0) > 0
        assert engine.stats.responses_200 == 1

    def test_version_header_served(self):
        reply = get(make_engine(), "/d.html")
        assert reply.response.headers.get(VERSION_HEADER) == "0"

    def test_path_normalized(self):
        reply = get(make_engine(), "/a/../d.html")
        assert reply.response.status == 200


class TestMigrationAndRedirect:
    def migrated_engine(self):
        engine = make_engine()
        engine.policy.force_migrate("/d.html", COOP, now=0.5)
        return engine

    def test_redirect_after_migration(self):
        engine = self.migrated_engine()
        reply = get(engine, "/d.html")
        assert reply.response.status == 301
        assert reply.response.headers.get("Location") == \
            "http://coop:8002/~migrate/home/8001/d.html"
        assert engine.stats.responses_301 == 1

    def test_pull_from_assigned_coop_gets_content_not_redirect(self):
        engine = self.migrated_engine()
        reply = get(engine, "/d.html",
                    headers={PURPOSE_HEADER: "migration-pull",
                             "X-DCWS-Sender": "coop:8002"})
        assert reply.response.status == 200
        # Links in the migrated document are absolutized.
        assert b"http://home:8001/e.html" in reply.response.body

    def test_validation_from_assigned_coop_gets_content(self):
        engine = self.migrated_engine()
        reply = get(engine, "/d.html",
                    headers={PURPOSE_HEADER: "validation",
                             "X-DCWS-Sender": "coop:8002"})
        assert reply.response.status == 200

    def test_unassigned_coop_gets_redirect(self):
        # A co-op that is no longer (or never was) the document's host is
        # answered 301, which tells it to drop any stale copy.
        engine = self.migrated_engine()
        reply = get(engine, "/d.html",
                    headers={PURPOSE_HEADER: "validation",
                             "X-DCWS-Sender": "other:9999"})
        assert reply.response.status == 301
        assert "coop:8002" in reply.response.headers.get("Location")

    def test_dirty_referrer_regenerated_on_serve(self):
        engine = self.migrated_engine()
        assert engine.graph.get("/index.html").dirty
        reply = get(engine, "/index.html")
        assert reply.reconstructed
        assert b"http://coop:8002/~migrate/home/8001/d.html" in \
            reply.response.body
        assert not engine.graph.get("/index.html").dirty
        # Untouched links stay absolute to home; unrelated image intact.
        assert b"i.gif" in reply.response.body

    def test_regeneration_happens_once(self):
        engine = self.migrated_engine()
        first = get(engine, "/index.html")
        second = get(engine, "/index.html")
        assert first.reconstructed and not second.reconstructed
        assert engine.stats.reconstructions == 1

    def test_revocation_rewrites_links_back(self):
        engine = self.migrated_engine()
        get(engine, "/index.html")  # regenerate with co-op link
        engine.policy.revoke("/d.html")
        reply = get(engine, "/index.html")
        assert reply.reconstructed
        assert b"~migrate" not in reply.response.body
        assert b"http://home:8001/d.html" in reply.response.body

    def test_migrated_form_url_for_own_document_serves_locally(self):
        engine = make_engine()
        reply = get(engine, "/~migrate/home/8001/d.html")
        assert reply.response.status == 200
        assert reply.response.body == SITE["/d.html"]

    def test_malformed_migrate_path_is_400(self):
        reply = get(make_engine(), "/~migrate/host")
        assert reply.response.status == 400


class TestRevokedCopy:
    """A co-op that loses a document to a revocation stops serving it:
    the home answers its next transfer for the document with a 301."""

    def test_a_revoked_copy_is_dropped_at_its_first_validation(self):
        home = make_engine()
        coop = make_engine(location=COOP, site={}, peers=(HOME,),
                           validation_interval=30.0)
        home.policy.force_migrate("/e.html", COOP, now=0.5)
        key = "/~migrate/home/8001/e.html"
        pull = get(coop, key, now=1.0)
        coop.complete_pull(pull, home.handle_request(pull.request, 1.0)
                           .response, 1.0)
        assert coop.hosted[key].fetched
        home.policy.revoke("/e.html")
        validations = [a for a in coop.tick(31.0) if a.kind == "validate"]
        assert [a.key for a in validations] == [key]
        answer = home.handle_request(validations[0].request, 31.0).response
        assert answer.status == 301
        assert answer.headers.get("Location") == "http://home:8001/e.html"
        coop.complete_action(validations[0], answer, 31.0)
        assert key not in coop.hosted
        # The old URL pulls anew, and the home's 301 reaches the client.
        pull = get(coop, key, now=32.0)
        reply = coop.complete_pull(pull, home.handle_request(
            pull.request, 32.0).response, 32.0)
        assert reply.response.status == 301
        assert key not in coop.hosted

    def test_an_unassigned_pull_of_a_home_document_is_redirected(self):
        reply = get(make_engine(), "/d.html",
                    headers={PURPOSE_HEADER: "migration-pull",
                             "X-DCWS-Sender": "coop:8002"})
        assert reply.response.status == 301
        assert reply.response.headers.get("Location") == \
            "http://home:8001/d.html"


class TestCoopBehaviour:
    def coop_engine(self):
        return make_engine(location=COOP, site={}, peers=(HOME,))

    def test_first_request_returns_pull(self):
        engine = self.coop_engine()
        result = get(engine, "/~migrate/home/8001/d.html")
        assert isinstance(result, PullFromHome)
        assert result.home == HOME
        assert result.original == "/d.html"
        assert result.request.headers.get(PURPOSE_HEADER) == "migration-pull"
        assert engine.stats.pulls_started == 1

    def test_complete_pull_serves_and_caches(self):
        coop = self.coop_engine()
        home = make_engine()
        pull = get(coop, "/~migrate/home/8001/d.html")
        upstream = get(home, pull.request.target, now=1.1,
                       headers={PURPOSE_HEADER: "migration-pull"})
        reply = coop.complete_pull(pull, upstream.response, now=1.2)
        assert reply.response.status == 200
        assert reply.response.body == SITE["/d.html"]
        # Cached: the next request serves locally without a pull.
        second = get(coop, "/~migrate/home/8001/d.html", now=1.3)
        assert isinstance(second, EngineReply)
        assert second.response.status == 200

    def test_failed_pull_degrades_to_redirect_and_retries_later(self):
        coop = self.coop_engine()
        pull = get(coop, "/~migrate/home/8001/d.html")
        reply = coop.complete_pull(pull, None, now=1.2)
        # Graceful degradation: the client is bounced back to the home
        # (302, not permanent) instead of receiving a 5xx of our making.
        assert reply.response.status == 302
        assert reply.response.headers.get("Location") == \
            "http://home:8001/d.html"
        assert coop.stats.pulls_degraded == 1
        # The next request pulls again.
        again = get(coop, "/~migrate/home/8001/d.html", now=1.4)
        assert isinstance(again, PullFromHome)

    def test_failed_pull_with_home_down_sheds_with_retry_after(self):
        coop = self.coop_engine()
        coop.membership.mark_dead(str(HOME), 1.0)  # its circuit opens
        reply = get(coop, "/~migrate/home/8001/d.html", now=1.2)
        # No pull is sent: the client is told to back off instead.
        assert isinstance(reply, EngineReply)
        assert reply.response.status == 503
        assert reply.response.headers.get("Retry-After") is not None
        assert coop.stats.responses_503 == 1
        assert coop.stats.pulls_degraded == 1

    def test_a_healed_home_closes_its_circuit_on_the_admitted_pull(self):
        coop = make_engine(location=COOP, site={}, peers=(HOME,),
                           reprobe_interval=1.0, reprobe_jitter=0.0)
        home = make_engine()
        coop.membership.mark_dead(str(HOME), 1.0)
        refused = get(coop, "/~migrate/home/8001/d.html", now=1.5)
        assert refused.response.status == 503   # inside the backoff period
        pull = get(coop, "/~migrate/home/8001/d.html", now=2.1)
        assert isinstance(pull, PullFromHome)   # the period's one admission
        upstream = get(home, pull.request.target, now=2.1,
                       headers={PURPOSE_HEADER: "migration-pull"})
        reply = coop.complete_pull(pull, upstream.response, now=2.2)
        assert reply.response.status == 200
        assert coop.membership.describe(str(HOME))["circuit"] == "closed"

    def test_failed_pulls_feed_health_and_declare_home_dead(self):
        coop = self.coop_engine()
        limit = coop.config.ping_failure_limit
        for i in range(limit):
            pull = get(coop, "/~migrate/home/8001/d.html", now=1.0 + i)
            assert isinstance(pull, PullFromHome)
            coop.complete_pull(pull, None, now=1.1 + i)
        assert coop.log.count("peer_dead") == 1

    def test_a_gossip_rejoin_is_not_undone(self):
        """Regression: a home declared dead rejoined when its ping reached
        us, the rejoin forced every hosted copy due, and the next tick's
        transfers — refused by a circuit still open from the death, never
        sent — counted as failures and declared it dead a second time."""
        coop, home = self.coop_engine(), make_engine()
        key = str(HOME)
        for name in ("/d.html", "/e.html", "/index.html", "/i.gif"):
            coop.seed_hosted(HOME, name, SITE[name], version=0, now=0.5)

        def home_pings(now):
            for action in home.tick(now):
                if action.kind == "ping" and action.peer == COOP:
                    coop.handle_request(action.request, now)

        for now in (20.0, 40.0, 60.0, 80.0):    # the cadence coop learns
            home_pings(now)
        coop.tick(200.0)                        # silence: suspect
        coop.tick(500.0)                        # longer silence: dead
        assert coop.log.count("peer_dead") == 1
        # Death alone opens the circuit: no transfer to it went unanswered.
        assert coop.membership.describe(key)["circuit"] == "open"
        assert not coop.membership.holds(key)

        home_pings(501.0)                       # the home's ping gets through
        assert coop.membership.state(key) == "alive"
        toward_home = [a for a in coop.tick(502.0) if a.peer == HOME]
        for action in toward_home:              # still unreachable from here
            coop.complete_action(action, None, 502.5)
        assert toward_home == []
        assert coop.log.count("peer_dead") == 1

        admitted_at = coop.membership.describe(key)["next_admit_at"]
        toward_home = [a for a in coop.tick(admitted_at) if a.peer == HOME]
        assert len(toward_home) == 1
        answer = home.handle_request(toward_home[0].request, admitted_at)
        coop.complete_action(toward_home[0], answer.response, admitted_at)
        assert coop.membership.describe(key)["circuit"] == "closed"
        assert coop.membership.holds(key)

    def test_pull_propagates_home_404(self):
        coop = self.coop_engine()
        home = make_engine()
        pull = get(coop, "/~migrate/home/8001/ghost.html")
        upstream = get(home, "/ghost.html")
        reply = coop.complete_pull(pull, upstream.response, now=1.2)
        assert reply.response.status == 404

    def test_hosted_hits_counted(self):
        coop = self.coop_engine()
        home = make_engine()
        pull = get(coop, "/~migrate/home/8001/d.html")
        upstream = get(home, pull.request.target, now=1.1,
                       headers={PURPOSE_HEADER: "migration-pull"})
        coop.complete_pull(pull, upstream.response, 1.2)
        get(coop, "/~migrate/home/8001/d.html", now=1.3)
        hosted = coop.hosted["/~migrate/home/8001/d.html"]
        assert hosted.hits == 2
        assert hosted.fetched


class TestPiggybacking:
    def test_peer_request_carries_table_back(self):
        engine = make_engine()
        engine.glt.update_own(42.0, 0.9)
        reply = get(engine, "/d.html",
                    headers={"X-DCWS-Sender": "coop:8002"})
        reports = extract_load_reports(reply.response.headers)
        assert any(r.server == "home:8001" and r.metric == 42.0
                   for r in reports)

    def test_plain_client_gets_no_piggyback(self):
        reply = get(make_engine(), "/d.html")
        assert extract_load_reports(reply.response.headers) == []

    def test_incoming_reports_merged(self):
        engine = make_engine()
        report = LoadReport(server="coop:8002", metric=7.0, timestamp=5.0)
        get(engine, "/d.html", headers={
            "X-DCWS-Sender": "coop:8002",
            "X-DCWS-Load": report.encode()})
        assert engine.glt.get(COOP).metric == 7.0

    def test_malformed_gossip_ignored(self):
        engine = make_engine()
        reply = get(engine, "/d.html", headers={
            "X-DCWS-Sender": "coop:8002",
            "X-DCWS-Load": "garbage"})
        assert reply.response.status == 200


class TestTick:
    def test_stats_interval_updates_own_row(self):
        engine = make_engine()
        get(engine, "/d.html", now=1.0)
        engine.tick(1.1)
        own = engine.glt.get(HOME)
        assert own is not None and own.metric > 0

    def test_migration_decision_from_tick(self):
        engine = make_engine()
        for index in range(30):
            get(engine, "/d.html", now=1.0 + index * 0.001)
        engine.glt.observe(LoadReport("coop:8002", 0.0, 0.9))
        engine.tick(1.5)
        assert engine.stats.migrations == 1
        assert engine.graph.get("/d.html").location == COOP

    def test_window_hits_reset_after_tick(self):
        engine = make_engine()
        get(engine, "/d.html", now=0.5)
        engine.tick(1.5)
        assert engine.graph.get("/d.html").window_hits == 0
        assert engine.graph.get("/d.html").hits == 1

    def test_pinger_probes_stale_peer(self):
        engine = make_engine(pinger_interval=2.0)
        actions = engine.tick(10.0)
        pings = [a for a in actions if a.kind == "ping"]
        assert pings and pings[0].peer == COOP
        assert pings[0].request.method == "HEAD"

    def test_fresh_peer_not_pinged(self):
        engine = make_engine(pinger_interval=2.0)
        engine.glt.observe(LoadReport("coop:8002", 1.0, 9.9))
        actions = engine.tick(10.0)
        assert [a for a in actions if a.kind == "ping"] == []

    def test_dead_peer_triggers_revocation(self):
        engine = make_engine(ping_failure_limit=2, pinger_interval=1.0)
        engine.policy.force_migrate("/d.html", COOP, now=0.5)
        for round_number in range(2):
            actions = engine.tick(5.0 + round_number * 10)
            for action in actions:
                if action.kind == "ping":
                    engine.complete_action(action, None, 5.1)
        assert engine.graph.get("/d.html").location == HOME
        assert COOP not in engine.glt
        # Booked like a policy round's decision: kept, counted, logged.
        assert engine.stats.revocations == 1
        assert [d.kind for d in engine.stats.decisions] == ["revoke"]
        revoked = engine.log.events("revoke")
        assert [event.fields["name"] for event in revoked] == ["/d.html"]

    def test_a_coop_rejoined_by_gossip_is_pinged_at_its_admission(self):
        """Regression: a co-op declared dead rejoins when its own ping
        reaches the home.  That ping refreshed its load row, so the
        pinger finds nothing stale, and only an answer to a transfer of
        the home's closes the circuit the death opened: the circuit's
        first admission must be spent, or the co-op is never placeable
        again."""
        home = make_engine(ping_failure_limit=2, reprobe_interval=5.0,
                           reprobe_jitter=0.0)
        coop = make_engine(location=COOP, site={}, peers=(HOME,))
        key = str(COOP)
        for now in (20.0, 40.0):                # two pings go unanswered
            for action in home.tick(now):
                if action.peer == COOP:
                    home.complete_action(action, None, now)
        assert home.log.count("peer_dead") == 1
        assert home.membership.describe(key)["next_admit_at"] == 45.0

        ping = next(a for a in coop.tick(41.0) if a.peer == HOME)
        home.handle_request(ping.request, 41.0)  # the co-op's ping arrives
        assert home.membership.state(key) == "alive"
        assert not home.membership.placeable(key)
        for now in (42.0, 44.9):                # inside the backoff period
            assert [a for a in home.tick(now) if a.peer == COOP] == []

        toward_coop = [a for a in home.tick(45.0) if a.peer == COOP]
        assert [a.kind for a in toward_coop] == ["ping"]
        answer = coop.handle_request(toward_coop[0].request, 45.0)
        home.complete_action(toward_coop[0], answer.response, 45.0)
        assert home.membership.describe(key)["circuit"] == "closed"
        assert home.membership.placeable(key)
        assert home.membership.holds(key)
        assert home.log.count("peer_dead") == 1

    def test_rounds_run_on_their_own_cadence(self):
        """Stats every T_st and pings every T_pi from initialize(),
        repair every T_st and scrub every scrub_interval from the first
        tick — each against its own last run, at irregular tick times."""
        site = {f"/p{n}.html": b"<html>page</html>" for n in range(20)}
        engine = make_engine(site=site, stats_interval=10.0,
                             pinger_interval=20.0, scrub_interval=30.0,
                             replication_k=2)
        expected = [  # (now, stats, repair, scrub, ping)
            (3.0, 0, 1, 1, 0), (9.5, 0, 0, 0, 0), (10.0, 1, 0, 0, 0),
            (14.0, 0, 1, 0, 0), (20.5, 1, 0, 0, 1), (29.9, 0, 1, 0, 0),
            (30.0, 0, 0, 0, 0), (31.0, 1, 0, 0, 0), (41.0, 1, 1, 1, 1),
            (45.0, 0, 0, 0, 0), (59.0, 1, 1, 0, 0), (61.0, 0, 0, 0, 1),
            (75.0, 1, 1, 1, 0), (90.5, 1, 1, 0, 1), (91.0, 0, 0, 0, 0)]
        ran = []
        for index, (now, *__) in enumerate(expected):
            # A document migrated just before the tick gains its
            # replication group only if the repair round runs.
            name = f"/p{index}.html"
            engine.policy.force_migrate(name, COOP, now=now)
            scrubs = engine.integrity.counters.scrub_rounds
            pings = engine.stats.pings
            for action in engine.tick(now):
                if action.kind == "ping":
                    engine.complete_action(action, Response(status=200), now)
            own = engine.glt.get(HOME)
            ran.append((now, int(own is not None and own.timestamp == now),
                        int(name in engine.replication.groups),
                        engine.integrity.counters.scrub_rounds - scrubs,
                        engine.stats.pings - pings))
        assert ran == expected
        assert engine.membership.state(str(COOP)) == "alive"

    def test_pings_and_probes_are_answered_not_404d(self):
        """Liveness traffic names no document: a ping or a probe gets an
        empty 200 carrying the answerer's load table (and, to a home,
        the manifest of what is hosted for it), and books no 404."""
        home = make_engine(pinger_interval=2.0)
        coop = make_engine(location=COOP, site={}, peers=(HOME,),
                           pinger_interval=2.0)
        coop.seed_hosted(HOME, "/d.html", SITE["/d.html"], 0, 0.0)
        pings = [(sender, receiver, action)
                 for sender, receiver in ((home, coop), (coop, home))
                 for action in sender.tick(10.0) if action.kind == "ping"]
        assert len(pings) == 2
        for sender, receiver, ping in pings:
            answer = receiver.handle_request(
                parse_request(ping.request.serialize()), 10.0)
            assert answer.response.status == 200
            assert answer.response.body == b""
            assert extract_load_reports(answer.response.headers)
            sender.complete_action(ping, answer.response, 10.0)
        probe = OutboundAction(kind="probe", peer=COOP, request=home.
                               _peer_request("HEAD", "/", "probe"))
        answer = coop.handle_request(
            parse_request(probe.request.serialize()), 11.0)
        assert answer.response.status == 200
        assert answer.response.headers.get(HOSTED_MANIFEST_HEADER) == \
            "/d.html@0"
        home.complete_action(probe, answer.response, 11.0)
        # The home kept /d.html: the co-op's copy loses reconciliation.
        assert home.membership.counters.reconcile_drops == 1
        assert home.stats.responses_404 == coop.stats.responses_404 == 0
        assert home.stats.requests == 1 and coop.stats.requests == 2


class TestValidation:
    def hosted_coop(self, validation_interval=5.0):
        coop = make_engine(location=COOP, site={}, peers=(HOME,),
                           validation_interval=validation_interval)
        home = make_engine()
        pull = get(coop, "/~migrate/home/8001/d.html")
        upstream = get(home, pull.request.target, now=1.0,
                       headers={PURPOSE_HEADER: "migration-pull"})
        coop.complete_pull(pull, upstream.response, 1.0)
        return coop, home

    def test_validation_scheduled_and_due(self):
        coop, __ = self.hosted_coop(validation_interval=5.0)
        actions = coop.tick(20.0)
        validations = [a for a in actions if a.kind == "validate"]
        assert validations
        assert validations[0].request.headers.get(PURPOSE_HEADER) == \
            "validation"
        assert validations[0].request.headers.get(VERSION_HEADER) is not None

    def test_unchanged_document_gets_304(self):
        coop, home = self.hosted_coop()
        actions = [a for a in coop.tick(30.0) if a.kind == "validate"]
        response = get(home, actions[0].request.target, now=30.0, headers={
            PURPOSE_HEADER: "validation",
            VERSION_HEADER: actions[0].request.headers.get(VERSION_HEADER),
        }).response
        assert response.status == 304

    def test_changed_document_refreshed(self):
        coop, home = self.hosted_coop()
        home.update_document("/d.html", b"<html>new content</html>")
        actions = [a for a in coop.tick(30.0) if a.kind == "validate"]
        response = get(home, "/d.html", now=30.0, headers={
            PURPOSE_HEADER: "validation",
            VERSION_HEADER: actions[0].request.headers.get(VERSION_HEADER),
        }).response
        assert response.status == 200
        coop.complete_action(actions[0], response, 30.1)
        key = "/~migrate/home/8001/d.html"
        assert coop.store.get(key) == response.body

    def test_home_404_drops_hosted_copy(self):
        coop, home = self.hosted_coop()
        actions = [a for a in coop.tick(30.0) if a.kind == "validate"]
        response = get(home, "/ghost.html").response  # a 404
        coop.complete_action(actions[0], response, 30.1)
        assert "/~migrate/home/8001/d.html" not in coop.hosted

    def test_transient_503_keeps_copy(self):
        from repro.http.messages import error_response

        coop, __ = self.hosted_coop()
        actions = [a for a in coop.tick(30.0) if a.kind == "validate"]
        coop.complete_action(actions[0], error_response(503), 30.1)
        assert "/~migrate/home/8001/d.html" in coop.hosted


def hosted_key(name):
    return f"/~migrate/home/8001{name}"


class TestValidationSchedule:
    """A hosted copy carries its own validation deadline: it is
    validated T_val after ``validated_at`` (section 4.5)."""

    T_VAL = 120.0

    def coop(self, *names):
        coop = make_engine(location=COOP, site={}, peers=(HOME,),
                           validation_interval=self.T_VAL)
        for name in names:
            coop.seed_hosted(HOME, name, SITE[name], 0, 0.0)
        return coop

    @staticmethod
    def validated(coop, now):
        return [a.key for a in coop.tick(now) if a.kind == "validate"]

    def test_not_due_before_t_val(self):
        coop = self.coop("/d.html")
        last = coop.hosted[hosted_key("/d.html")].validated_at
        assert -self.T_VAL < last <= 0.0  # the install's jittered share
        assert self.validated(coop, last + self.T_VAL - 0.01) == []

    def test_due_at_t_val(self):
        coop = self.coop("/d.html")
        last = coop.hosted[hosted_key("/d.html")].validated_at
        assert self.validated(coop, last + self.T_VAL) == \
            [hosted_key("/d.html")]

    def test_next_validation_comes_t_val_after_an_emission(self):
        coop = self.coop("/d.html")
        hosted = coop.hosted[hosted_key("/d.html")]
        emitted = hosted.validated_at + self.T_VAL + 3.0
        assert self.validated(coop, emitted) == [hosted.key]
        assert hosted.validated_at == emitted
        assert self.validated(coop, emitted + self.T_VAL - 0.01) == []
        assert self.validated(coop, emitted + self.T_VAL) == [hosted.key]

    def test_a_second_install_keeps_the_deadline(self):
        coop = self.coop("/d.html")
        hosted = coop.hosted[hosted_key("/d.html")]
        last = hosted.validated_at
        coop.seed_hosted(HOME, "/d.html", SITE["/d.html"], 0, 9.0)
        assert hosted.validated_at == last
        assert self.validated(coop, last + self.T_VAL) == [hosted.key]

    def test_dropped_and_unfetched_entries_never_validate(self):
        coop = self.coop("/d.html", "/e.html")
        pull = get(coop, hosted_key("/i.gif"))  # its pull never completes
        assert isinstance(pull, PullFromHome)
        due = {a.key: a for a in coop.tick(self.T_VAL)
               if a.kind == "validate"}
        assert sorted(due) == [hosted_key("/d.html"), hosted_key("/e.html")]
        coop.complete_action(due[hosted_key("/e.html")],
                             Response(status=404), self.T_VAL)
        assert hosted_key("/e.html") not in coop.hosted
        assert not coop.hosted[hosted_key("/i.gif")].fetched
        assert self.validated(coop, 3 * self.T_VAL) == [hosted_key("/d.html")]

    def test_due_validations_go_out_in_key_order(self):
        names = ("/e.html", "/index.html", "/d.html")
        coop = self.coop(*names)
        assert self.validated(coop, self.T_VAL) == \
            sorted(hosted_key(name) for name in names)

    def test_last_validated_survives_a_snapshot(self):
        from repro.server.persistence import restore_engine, snapshot_engine

        coop = self.coop("/d.html")
        key = hosted_key("/d.html")
        emitted = coop.hosted[key].validated_at + self.T_VAL + 3.0
        assert self.validated(coop, emitted) == [key]
        snapshot = snapshot_engine(coop, now=emitted + 1.0)
        assert snapshot["hosted"][key]["last_validated"] == emitted
        restarted = DCWSEngine(COOP, coop.config, coop.store, peers=[HOME])
        restarted.initialize(0.0)
        restore_engine(restarted, snapshot, now=emitted + 2.0)
        assert restarted.hosted[key].validated_at == emitted


class TestContentAdministration:
    def test_update_document_bumps_version_and_relinks(self):
        engine = make_engine()
        engine.update_document("/d.html",
                               b'<html><a href="i.gif">img</a></html>')
        record = engine.graph.get("/d.html")
        assert record.version == 1
        assert record.link_to == {"/i.gif"}
        assert record.dirty

    def test_author_reads_back_the_version_the_update_gave(self):
        # A link target migrating (or coming home) between the save and
        # the first read dirties the page again; it is still the version
        # nobody has seen, so the read carries it — with the marker, the
        # rewritten link and a digest of exactly those bytes.
        engine = make_engine()
        get(engine, "/d.html")                  # clean, cached, served
        engine.update_document(
            "/d.html", b'<html><a href="e.html">E</a><!-- rev 1 --></html>')
        saved = engine.graph.get("/d.html").version
        engine.policy.force_migrate("/e.html", COOP, now=1.5)
        engine.policy.revoke("/e.html")
        engine.policy.force_migrate("/e.html", COOP, now=1.7)
        reply = get(engine, "/d.html", now=2.0)
        assert reply.response.headers.get("X-DCWS-Version") == str(saved)
        assert b"<!-- rev 1 -->" in reply.response.body
        assert b"http://coop:8002/~migrate/home/8001/e.html" in \
            reply.response.body
        assert digest_matches(reply.response.body,
                              reply.response.headers.get("X-DCWS-Digest"))
        # Served now, so the next event is a new version again.
        engine.policy.revoke("/e.html")
        assert engine.graph.get("/d.html").version == saved + 1

    def test_update_is_logged_at_the_engine_clock_not_the_epoch(self):
        engine = make_engine()
        get(engine, "/d.html", now=40.0)
        engine.update_document("/d.html", b"<html>first</html>")
        engine.tick(50.0)
        engine.update_document("/d.html", b"<html>second</html>")
        updates = engine.log.events("content_update")
        assert [event.time for event in updates] == [40.0, 50.0]
        assert [event.fields["version"] for event in updates] == [1, 2]
        # Filed in order among everything else, and found by ``since``.
        times = [event.time for event in engine.log.events()]
        assert times == sorted(times)
        assert engine.log.events("content_update", since=45.0) == updates[1:]

    def test_update_unknown_document_raises(self):
        from repro.errors import DocumentNotFound

        with pytest.raises(DocumentNotFound):
            make_engine().update_document("/new.html", b"x")

    def test_describe(self):
        engine = make_engine()
        info = engine.describe()
        assert info["documents"] == len(SITE)
        assert info["location"] == "home:8001"


class TestReplicationServing:
    def test_redirect_spreads_across_replicas(self):
        engine = make_engine(max_replicas=3)
        coop2 = Location("coop2", 8003)
        engine.glt.register(coop2)
        engine.graph.add_replica("/d.html", COOP, now=1.0)
        engine.graph.add_replica("/d.html", coop2, now=1.0)
        locations = set()
        for index in range(40):
            reply = get(engine, f"/d.html?r={index}")
            locations.add(reply.response.headers.get("Location"))
        assert len(locations) == 2  # both replicas are used


class TestDecisionHistoryBound:
    def test_decisions_keep_only_the_last_thousand(self):
        # A long-lived server must not keep one object per migration,
        # revocation and repair for ever: 1,001 documents on a co-op
        # that dies are 1,001 booked revocations.
        site = {f"/f{i}.txt": b"x" for i in range(1001)}
        engine = make_engine(site=site)
        for name in site:
            engine.policy.force_migrate(name, COOP, 1.0)
        ping = OutboundAction(kind="ping", peer=COOP,
                              request=Request(method="HEAD", target="/"))
        for attempt in range(engine.config.ping_failure_limit):
            engine.complete_action(ping, None, 2.0 + attempt)
        assert engine.stats.revocations == 1001
        assert len(engine.stats.decisions) == 1000


# Replica choice in rewritten links and a hosted copy's first validation
# deadline are hashes of strings; printed by a fresh interpreter so the
# per-process salt of the builtin ``hash`` would show.
SALT_SCRIPT = """
from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.http.messages import Request, Response
from repro.server.engine import DCWSEngine
from repro.server.filestore import MemoryStore

HOME, COOP, COOP_2 = (Location(name, 8000 + n) for n, name in
                      enumerate(("home", "coop", "coop2"), start=1))
site = {f"/p{n}.html": b'<html><a href="d.html">D</a></html>'
        for n in range(12)}
site["/d.html"] = b"<html>leaf</html>"
home = DCWSEngine(HOME, ServerConfig(max_replicas=3), MemoryStore(site),
                  peers=[COOP, COOP_2])
home.initialize(0.0)
home.graph.add_replica("/d.html", COOP, now=1.0)
home.graph.add_replica("/d.html", COOP_2, now=1.0)
for name in sorted(site)[1:]:
    reply = home.handle_request(Request(method="GET", target=name), 1.0)
    print(name, reply.response.body.decode("latin-1"))

coop = DCWSEngine(COOP, ServerConfig(), MemoryStore({}), peers=[HOME])
coop.initialize(0.0)
coop.seed_hosted(HOME, "/d.html", site["/d.html"], 0, 5.0)
print(coop.hosted["/~migrate/home/8001/d.html"].validated_at)

key = "/~migrate/home/8001/p0.html"
pull = coop.handle_request(Request(method="GET", target=key), 6.0)
coop.complete_pull(pull, Response(status=200, body=site["/p0.html"]), 6.0)
print(coop.hosted[key].validated_at)
"""


class TestProcessIndependence:
    def test_same_links_and_deadlines_under_any_hash_seed(self):
        import repro

        outputs = []
        for seed in ("1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.path.dirname(os.path.dirname(
                           os.path.abspath(repro.__file__))))
            outputs.append(subprocess.run(
                [sys.executable, "-c", SALT_SCRIPT], env=env, check=True,
                capture_output=True, text=True).stdout)
        assert outputs[0] == outputs[1]
        lines = outputs[0].splitlines()
        assert len(lines) == 14
        # Both replicas are linked to, and the deadlines are jittered.
        assert any("coop:8002/~migrate" in line for line in lines[:12])
        assert any("coop2:8003/~migrate" in line for line in lines[:12])
        assert {float(lines[12]), float(lines[13])} != {5.0, 6.0}
