"""Stateful property: no stale 304, no stale gzip variant.

A home document's rendition — validators, framed 304 blocks, the gzip
variant — outlives its response-cache entry, so everything that changes
what a GET returns must replace it.  Hypothesis interleaves author
updates, migrations and revocations (which dirty referrers), eager
regeneration, cache eviction and GETs carrying the ETag a browser saw
last, the one it saw before that, or none, with and without
``Accept-Encoding: gzip``, each through the short-circuit where it
applies and the slow path where it does not.  The oracle is the server's
own next unconditional GET:

- a conditional request is answered 304 iff its validator is the ETag
  that GET returns;
- every 200 carries the author's latest revision, and its body — after
  gunzipping when it says gzip — hashes to its ``X-DCWS-Digest``.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.errors import MigrationError
from repro.http.content import DIGEST_HEADER, body_digest, gunzip_bytes
from repro.http.messages import Request
from repro.server.engine import DCWSEngine, VERSION_HEADER
from repro.server.filestore import MemoryStore
from tests.test_server_engine_fastpath import dispatch

HOME = Location("home", 8001)
COOP = Location("coop", 8002)
NAMES = [f"/p{i}.html" for i in range(4)]

_doc = st.sampled_from(NAMES)


def page(name: str, revision: int) -> bytes:
    """A compressible page linking to every other page."""
    links = "".join(f'<a href="{other}">{other}</a>'
                    for other in NAMES if other != name)
    filler = "<p>lorem ipsum dolor sit amet</p>" * 12
    return (f"<html><!-- {name} rev {revision} -->{links}{filler}</html>"
            ).encode("latin-1")


class RenditionMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        # Two cache entries for four pages: GETs evict one another.
        config = ServerConfig(response_cache_entries=2, lock_stripes=1)
        self.engine = DCWSEngine(
            HOME, config, MemoryStore({n: page(n, 0) for n in NAMES}),
            entry_points=[NAMES[0]], peers=[COOP])
        self.engine.initialize(0.0)
        self.revision = dict.fromkeys(NAMES, 0)
        self.seen = {name: [] for name in NAMES}    # ETags, oldest first
        self.clock = 0.0

    def dispatch(self, request):
        self.clock += 1.0
        return dispatch(self.engine, request, self.clock).response

    def check_200(self, name, response):
        body = response.body
        if response.headers.get("Content-Encoding") == "gzip":
            body = gunzip_bytes(body)
        assert body_digest(body) == response.headers.get(DIGEST_HEADER)
        assert f"<!-- {name} rev {self.revision[name]} -->".encode() in body
        assert response.headers.get(VERSION_HEADER) == \
            str(self.engine.graph.get(name).version)
        etag = response.headers.get("ETag")
        if etag not in self.seen[name]:
            self.seen[name].append(etag)

    @rule(name=_doc)
    def update(self, name):
        self.revision[name] += 1
        self.engine.update_document(name, page(name, self.revision[name]))

    @rule(name=_doc)
    def migrate_or_revoke(self, name):
        self.clock += 1.0
        record = self.engine.graph.get(name)
        try:
            if record.location == HOME:
                self.engine.policy.force_migrate(name, COOP, self.clock)
            else:
                self.engine.policy.revoke(name)
        except MigrationError:
            pass    # the entry point stays home

    @rule()
    def regenerate(self):
        self.engine.regenerate_dirty()

    @rule()
    def evict(self):
        self.engine.response_cache.clear()

    @rule(name=_doc, which=st.sampled_from(["latest", "older", "none"]),
          gzip=st.booleans(), head=st.booleans())
    def get(self, name, which, gzip, head):
        seen = self.seen[name]
        validator = None
        if which == "latest" and seen:
            validator = seen[-1]
        elif which == "older" and len(seen) > 1:
            validator = seen[-2]
        request = Request(method="HEAD" if head else "GET", target=name)
        if gzip:
            request.headers.set("Accept-Encoding", "gzip")
        if validator is not None:
            request.headers.set("If-None-Match", validator)
        response = self.dispatch(request)
        truth = self.dispatch(Request(method="GET", target=name))
        if self.engine.graph.get(name).location != HOME:
            assert response.status == truth.status == 301
            return
        assert truth.status == 200
        self.check_200(name, truth)
        if validator is not None and validator == truth.headers.get("ETag"):
            assert response.status == 304
            assert response.body == b""
            assert response.headers.get("ETag") == validator
        else:
            assert response.status == 200
            assert response.headers.get("ETag") == truth.headers.get("ETag")
            if not head:
                self.check_200(name, response)


RenditionMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
TestRenditionMachine = RenditionMachine.TestCase
