"""Stateful property: no stale 304, no stale gzip variant.

A home document's copy-cache entry — bytes, validators, framed heads,
the gzip variant — is stamped with the copy's ``(version, digest)``, so
everything that changes what a GET returns must either drop it or leave
it under a stamp no lookup asks for.  Hypothesis interleaves author
updates, migrations and revocations (which dirty referrers), eager
regeneration, cache eviction and GETs carrying the ETag a browser saw
last, the one it saw before that, or none, with and without
``Accept-Encoding: gzip``, each through the short-circuit where it
applies and the slow path where it does not — under a byte budget of
about two pages, so fills evict one another.  The oracle is the
server's own next unconditional GET:

- a conditional request is answered 304 iff its validator is the ETag
  that GET returns;
- every 200 carries the author's latest revision, and its body — after
  gunzipping when it says gzip — hashes to its ``X-DCWS-Digest``;

and, after every step, the cache itself: every variant is the deflate
of bytes that hash to its entry's digest, and ``used_bytes`` is the sum
of the entries' sizes, within the budget.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.errors import MigrationError
from repro.http.content import DIGEST_HEADER, body_digest, gunzip_bytes
from repro.http.messages import Request
from repro.server.dispatch import serve
from repro.server.engine import DCWSEngine, VERSION_HEADER
from repro.server.filestore import MemoryStore

HOME = Location("home", 8001)
COOP = Location("coop", 8002)
NAMES = [f"/p{i}.html" for i in range(4)]
# About two pages with their variants (~640 bytes each): a third fill
# evicts the least recently used.
BUDGET = 1400

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
        # Room for two of four pages: GETs evict one another.
        config = ServerConfig(byte_cache_bytes=BUDGET)
        self.engine = DCWSEngine(
            HOME, config, MemoryStore({n: page(n, 0) for n in NAMES}),
            entry_points=[NAMES[0]], peers=[COOP])
        self.engine.initialize(0.0)
        self.revision = dict.fromkeys(NAMES, 0)
        self.seen = {name: [] for name in NAMES}    # ETags, oldest first
        self.clock = 0.0

    def dispatch(self, request):
        self.clock += 1.0
        return serve(self.engine, request, self.clock).response

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

    @invariant()
    def entries_hold_what_their_stamps_say(self):
        if not hasattr(self, "engine"):
            return
        cache = self.engine.response_cache
        sizes = 0
        for entry in cache.entries():
            assert body_digest(entry.body) == entry.digest
            if entry.gzip_body is not None:
                assert gunzip_bytes(entry.gzip_body) == entry.body
            sizes += entry.size
        assert cache.used_bytes == sizes <= BUDGET

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
        if truth.status == 200:
            # The 200 just served is the entry's, stamped as it is now.
            record = self.engine.graph.get(name)
            entry = self.engine.response_cache.peek(name)
            assert (entry.version, entry.digest) == \
                (record.version, record.digest)
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
