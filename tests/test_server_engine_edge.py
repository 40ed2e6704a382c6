"""Engine edge cases beyond the main behavioural suite."""

import pytest

from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.http.messages import Request
from repro.http.piggyback import SENDER_HEADER
from repro.server.engine import (
    DCWSEngine,
    EngineReply,
    PURPOSE_HEADER,
    PullFromHome,
)
from repro.server.filestore import DiskStore, MemoryStore

HOME = Location("home", 8001)
COOP = Location("coop", 8002)

SITE = {
    "/index.html": b'<html><a href="sub/d.html">D</a></html>',
    "/sub/d.html": b'<html><a href="../index.html">up</a>'
                   b'<a href="e.html">sib</a></html>',
    "/sub/e.html": b"<html>leaf</html>",
}


def make_engine(store=None, **config_kwargs):
    engine = DCWSEngine(HOME, ServerConfig(**config_kwargs),
                        store if store is not None else MemoryStore(SITE),
                        entry_points=["/index.html"], peers=[COOP])
    engine.initialize(0.0)
    return engine


class TestRelativeLinkResolution:
    def test_subdirectory_links_resolved(self):
        engine = make_engine()
        record = engine.graph.get("/sub/d.html")
        assert record.link_to == {"/index.html", "/sub/e.html"}

    def test_rewrite_of_parent_relative_link(self):
        engine = make_engine()
        engine.policy.force_migrate("/sub/e.html", COOP, 0.5)
        reply = engine.handle_request(Request("GET", "/sub/d.html"), 1.0)
        assert b"http://coop:8002/~migrate/home/8001/sub/e.html" in \
            reply.response.body
        # The parent-relative link is absolutized but stays home.
        assert b"http://home:8001/index.html" in reply.response.body


class TestMethodHandling:
    def test_head_on_migrated_document_redirects(self):
        engine = make_engine()
        engine.policy.force_migrate("/sub/d.html", COOP, 0.5)
        reply = engine.handle_request(Request("HEAD", "/sub/d.html"), 1.0)
        assert reply.response.status == 301

    def test_post_treated_like_get_for_static_content(self):
        engine = make_engine()
        reply = engine.handle_request(
            Request("POST", "/sub/e.html", body=b"x=1"), 1.0)
        assert reply.response.status == 200


class TestDiskStoreEngine:
    def test_engine_over_disk_store(self, tmp_path):
        store = DiskStore(str(tmp_path))
        for name, data in SITE.items():
            store.put(name, data)
        engine = DCWSEngine(HOME, ServerConfig(), store,
                            entry_points=["/index.html"], peers=[COOP])
        engine.initialize(0.0)
        assert len(engine.graph) == len(SITE)
        reply = engine.handle_request(Request("GET", "/sub/d.html"), 1.0)
        assert reply.response.status == 200
        # Regeneration writes back to disk.
        engine.policy.force_migrate("/sub/e.html", COOP, 2.0)
        reply = engine.handle_request(Request("GET", "/sub/d.html"), 3.0)
        assert reply.reconstructed
        assert b"~migrate" in store.get("/sub/d.html")


class TestAccounting:
    def test_bytes_sent_accumulates(self):
        engine = make_engine()
        engine.handle_request(Request("GET", "/sub/e.html"), 1.0)
        assert engine.stats.bytes_sent == len(SITE["/sub/e.html"])

    def test_redirect_costs_no_body_bytes_of_document(self):
        engine = make_engine()
        engine.policy.force_migrate("/sub/e.html", COOP, 0.5)
        before = engine.stats.bytes_sent
        reply = engine.handle_request(Request("GET", "/sub/e.html"), 1.0)
        assert reply.response.status == 301
        # The redirect body is small (no document payload).
        assert engine.stats.bytes_sent - before < 300

    def test_hosted_hits_reported_once(self):
        coop = DCWSEngine(COOP, ServerConfig(validation_interval=5.0),
                          MemoryStore(), peers=[HOME])
        coop.initialize(0.0)
        home = make_engine()
        home.policy.force_migrate("/sub/e.html", COOP, 0.5)
        pull = coop.handle_request(
            Request("GET", "/~migrate/home/8001/sub/e.html"), 1.0)
        assert isinstance(pull, PullFromHome)
        upstream = home.handle_request(pull.request, 1.1)
        coop.complete_pull(pull, upstream.response, 1.2)
        for __ in range(5):
            coop.handle_request(
                Request("GET", "/~migrate/home/8001/sub/e.html"), 1.3)
        first = [a for a in coop.tick(30.0) if a.kind == "validate"]
        reported = first[0].request.headers.get_int("X-DCWS-Hosted-Hits")
        assert reported == 6  # pull + five serves
        # Once the home has answered, re-validating reports nothing new.
        answer = home.handle_request(first[0].request, 30.0)
        coop.complete_action(first[0], answer.response, 30.0)
        second = [a for a in coop.tick(60.0) if a.kind == "validate"]
        assert second[0].request.headers.get("X-DCWS-Hosted-Hits") is None

    def test_an_unanswered_validation_keeps_its_hit_report(self):
        """Regression: hits ride a validation the home never answers;
        the next validation carries them again, and the home credits
        them once it answers."""
        coop = DCWSEngine(COOP, ServerConfig(validation_interval=5.0),
                          MemoryStore(), peers=[HOME])
        coop.initialize(0.0)
        home = make_engine()
        home.policy.force_migrate("/sub/e.html", COOP, 0.5)
        key = "/~migrate/home/8001/sub/e.html"
        pull = coop.handle_request(Request("GET", key), 1.0)
        coop.complete_pull(pull, home.handle_request(pull.request, 1.1)
                           .response, 1.2)
        for __ in range(5):
            coop.handle_request(Request("GET", key), 1.3)

        def validation(now):
            return next(a for a in coop.tick(now) if a.kind == "validate")

        lost = validation(30.0)
        assert lost.request.headers.get_int("X-DCWS-Hosted-Hits") == 6
        coop.complete_action(lost, None, 30.5)  # the home never answered
        retry = validation(60.0)
        assert retry.request.headers.get_int("X-DCWS-Hosted-Hits") == 6
        credited = home.graph.get("/sub/e.html").hits
        answer = home.handle_request(retry.request, 60.1)
        assert home.graph.get("/sub/e.html").hits == credited + 1 + 6
        coop.complete_action(retry, answer.response, 60.2)
        after = validation(90.0)
        assert after.request.headers.get("X-DCWS-Hosted-Hits") is None


class TestHostedHitsCredit:
    """``X-DCWS-Hosted-Hits`` steers Algorithm 1: only a validation from
    the document's assigned co-op may move ``hits`` by more than one."""

    NAME = "/sub/e.html"

    def validation(self, sender, reported):
        request = Request("GET", self.NAME)
        request.headers.set(PURPOSE_HEADER, "validation")
        request.headers.set(SENDER_HEADER, str(sender))
        request.headers.set("X-DCWS-Hosted-Hits", reported)
        return request

    @pytest.mark.parametrize("value", ["100000", "abc", "-5", ""])
    def test_a_plain_client_cannot_move_hits(self, value):
        engine = make_engine()
        request = Request("GET", self.NAME)
        request.headers.set("X-DCWS-Hosted-Hits", value)
        reply = engine.handle_request(request, 1.0)
        assert reply.response.status == 200
        assert engine.graph.get(self.NAME).hits == 1    # the request itself

    def test_the_assigned_coop_is_credited(self):
        engine = make_engine()
        engine.policy.force_migrate(self.NAME, COOP, 0.5)
        reply = engine.handle_request(self.validation(COOP, "41"), 1.0)
        assert reply.response.status == 200     # the home keeps serving it
        record = engine.graph.get(self.NAME)
        assert (record.hits, record.window_hits) == (42, 42)

    @pytest.mark.parametrize("value", ["abc", "+7", "1_0", "\u0663"])
    def test_a_malformed_count_from_the_coop_is_ignored(self, value):
        engine = make_engine()
        engine.policy.force_migrate(self.NAME, COOP, 0.5)
        reply = engine.handle_request(self.validation(COOP, value), 1.0)
        assert reply.response.status == 200
        assert engine.graph.get(self.NAME).hits == 1

    def test_a_peer_that_does_not_hold_the_document_is_ignored(self):
        engine = make_engine()
        stranger = Location("other", 8003)
        reply = engine.handle_request(self.validation(stranger, "500"), 1.0)
        assert reply.response.status == 301     # at home, yet no copy of it
        engine.policy.force_migrate(self.NAME, COOP, 1.5)
        reply = engine.handle_request(self.validation(stranger, "500"), 2.0)
        assert reply.response.status == 301     # as for any non-holder
        assert engine.graph.get(self.NAME).hits == 2

    def test_only_a_validation_carries_the_count(self):
        engine = make_engine()
        engine.policy.force_migrate(self.NAME, COOP, 0.5)
        pull = self.validation(COOP, "9")
        pull.headers.set(PURPOSE_HEADER, "migration-pull")
        assert engine.handle_request(pull, 1.0).response.status == 200
        assert engine.graph.get(self.NAME).hits == 1


class TestPathEdgeCases:
    def test_query_string_ignored_for_lookup(self):
        engine = make_engine()
        reply = engine.handle_request(
            Request("GET", "/sub/e.html?utm=x"), 1.0)
        assert reply.response.status == 200

    def test_dot_segments_cannot_escape(self):
        engine = make_engine()
        reply = engine.handle_request(
            Request("GET", "/../../etc/passwd"), 1.0)
        assert reply.response.status == 404

    def test_trailing_garbage_is_404_not_error(self):
        engine = make_engine()
        reply = engine.handle_request(Request("GET", "/sub/"), 1.0)
        assert isinstance(reply, EngineReply)
        assert reply.response.status == 404
