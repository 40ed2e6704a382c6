"""The engine's index path against the one it replaced.

``ReferenceIndexEngine`` is ``DCWSEngine`` with ``_index_html``,
``_resolve_to_name``, ``_rewrite_value`` and the lazy template build as
they stood at commit f3279a0, over the reference tokenizer, serializer,
``build_link_template`` and ``extract_links`` kept in
``tests/property/test_html_index_model.py``.  Twin engines over SBLog and
LOD take the same script — initialize, fifty author updates each followed
by a migration (or a recall) of one of the page's link targets and reads
of the page and of another referrer, a checkpoint half way, a restart
from snapshot + journal — and must agree on every counter, record,
template, served byte and journal record.

The table at the bottom pins what a raw link value resolves and rewrites
to, shape by shape, including the shapes the resolver's short cut must
decline.
"""

import dataclasses
import random

import pytest

from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.core.naming import (decode_migrated_path, home_url,
                               is_migrated_path, migrated_url)
from repro.datasets import build_lod, build_sblog
from repro.errors import DocumentNotFound, NamingError
from repro.http.content import DIGEST_HEADER, body_digest
from repro.http.messages import Request
from repro.http.urls import URL, join_url, normalize_path, strip_fragment
from repro.server.engine import DCWSEngine
from repro.server.filestore import MemoryStore
from repro.server.fsck import check_engine
from repro.server.persistence import checkpoint, recover
from repro.server.wal import WriteAheadJournal, scan_journal
from tests.property.test_html_index_model import (
    reference_build_link_template,
    reference_extract_links,
    reference_parse_html,
)

HOME = Location("home", 8001)
COOP = Location("coop", 8002)


class ReferenceIndexEngine(DCWSEngine):
    """The index path of commit f3279a0, verbatim but for the
    ``link_templates`` knob it consulted, which is gone."""

    def _index_html(self, base_name, data):
        document = reference_parse_html(data.decode("latin-1"))
        self._templates[base_name] = reference_build_link_template(document)
        self.stats.template_builds += 1
        names = []
        for link in reference_extract_links(document):
            resolved = self._resolve_to_name(base_name, link.value)
            if resolved is not None:
                names.append(resolved)
        return names

    def _resolve_to_name(self, base_name, raw):
        raw = strip_fragment(raw).strip()
        if not raw:
            return None
        base = URL(self.location.host, self.location.port, base_name)
        try:
            resolved = join_url(base, raw)
        except Exception:
            return None
        path = normalize_path(resolved.path)
        if is_migrated_path(path):
            try:
                home, original = decode_migrated_path(path)
            except NamingError:
                return None
            return original if home == self.location else None
        if resolved.host == self.location.host \
                and resolved.port == self.location.port:
            return path
        return None

    def _rewrite_value(self, base_name, raw):
        name = self._resolve_to_name(base_name, raw)
        if name is None:
            return None
        record = self.graph.find(name)
        if record is None:
            return None
        if record.location == self.location and not record.replicas:
            return str(home_url(self.location, name))
        target = self._pick_location(record, salt=base_name)
        if target == self.location:
            return str(home_url(self.location, name))
        return str(migrated_url(target, self.location, name))

    def _template_for(self, record):
        template = self._templates.get(record.name)
        if template is None:
            if self.integrity.is_quarantined(record.name):
                return None
            try:
                source = self.store.get(record.name).decode("latin-1")
            except DocumentNotFound:
                return None
            template = reference_build_link_template(
                reference_parse_html(source))
            self._templates[record.name] = template
            self.stats.template_builds += 1
        return template


# ----------------------------------------------------------------------
# Twin engines, one script
# ----------------------------------------------------------------------

def launch(kind, site, store, journal_path):
    engine = kind(HOME, ServerConfig(), store,
                  entry_points=site.entry_points, peers=[COOP])
    journal = WriteAheadJournal(journal_path, location=str(HOME),
                                fsync_policy="off")
    engine.attach_journal(journal)
    engine.initialize(0.0)
    return engine


def templates_of(engine):
    """Every HTML document's template, built if it is not there."""
    return {record.name: (template.source, template.spans)
            for record in engine.graph.documents() if record.is_html
            for template in [engine._template_for(record)]}


def durable_state(engine):
    return {record.name: (sorted(record.link_to), sorted(record.link_from),
                          record.version, record.digest, record.dirty,
                          str(record.location), record.size)
            for record in engine.graph.documents()}


def read(engine, name, now):
    reply = engine.handle_request(Request("GET", name), now)
    response = reply.response
    assert response.status in (200, 301), (name, response.status)
    if response.status == 200:
        assert response.headers.get(DIGEST_HEADER) == \
            body_digest(response.body)
    return response.serialize_head(), bytes(response.body)


def author_cycles(engine, site, cycles, on_checkpoint):
    """Fifty update → migrate-or-recall → read cycles; returns every
    served (head, body) in order."""
    rng = random.Random(21)
    pages = sorted(name for name in site.documents
                   if name.endswith(".html") and name not in site.entry_points)
    served = []
    away = []
    for cycle in range(cycles):
        now = 10.0 + cycle
        engine._clock = now
        name = rng.choice([page for page in pages if page not in away])
        donor = rng.choice(pages)
        # An author's save: another page's markup (so the edges change)
        # with a revision stamp, an entity-bearing link and a fragment.
        engine.update_document(name, site.documents[donor] + (
            f'<!-- rev {cycle} --><a href="{donor}?rev={cycle}&amp;x=1#top">'
            f'prev</a><a href="#top">top</a>').encode("latin-1"))
        record = engine.graph.get(name)
        targets = sorted(target for target in record.link_to - {name}
                         if target not in site.entry_points)
        if cycle % 5 == 4 and away:
            moved = away.pop(0)
            engine.policy.revoke(moved)     # the migrated URL comes home
        else:
            moved = rng.choice(targets)
            if moved not in away:
                engine.policy.force_migrate(moved, COOP, now=now)
                away.append(moved)
        served.append(read(engine, name, now + 0.25))
        assert served[-1][0].startswith(b"HTTP/1.0 200"), name
        referrers = sorted(engine.graph.get(moved).link_from - {name})
        if referrers:
            served.append(read(engine, rng.choice(referrers), now + 0.5))
        if cycle == cycles // 2:
            on_checkpoint(engine, now + 0.75)
    return served


@pytest.mark.parametrize("build_site", [build_sblog, build_lod])
def test_twin_engines_agree_from_initialize_to_restart(build_site, tmp_path):
    site = build_site()
    twins = []
    for label, kind in (("new", DCWSEngine), ("old", ReferenceIndexEngine)):
        store = MemoryStore(dict(site.documents))
        journal_path = str(tmp_path / f"{label}.wal")
        snapshot_path = str(tmp_path / f"{label}.snapshot")
        engine = launch(kind, site, store, journal_path)
        fresh = dict(stats=dataclasses.asdict(engine.stats),
                     state=durable_state(engine),
                     templates=templates_of(engine))
        served = author_cycles(
            engine, site, 50,
            lambda engine, now: checkpoint(engine, snapshot_path, now))
        engine.journal.close()
        before = dict(stats=dataclasses.asdict(engine.stats),
                      state=durable_state(engine),
                      templates=templates_of(engine),
                      journal=[dataclasses.astuple(record) for record
                               in scan_journal(journal_path).records])
        restarted = kind(HOME, ServerConfig(), store,
                         entry_points=site.entry_points, peers=[COOP])
        recovery = recover(restarted, snapshot_path, journal_path, now=100.0)
        assert recovery.snapshot_loaded and recovery.records_replayed > 0
        after = dict(state=durable_state(restarted),
                     templates=templates_of(restarted),
                     served=[read(restarted, name, 101.0)
                             for name in sorted(before["templates"])])
        assert check_engine(restarted) == []
        # A restart loses nothing the journal recorded ...
        assert after["state"].keys() == before["state"].keys()
        for name, facts in before["state"].items():
            assert after["state"][name][:4] == facts[:4], name
        # ... and a template rebuilt from the stored bytes is the one
        # fifty splices arrived at.
        assert after["templates"] == before["templates"]
        twins.append((fresh, served, before, after))
    (new_fresh, new_served, new_before, new_after), \
        (old_fresh, old_served, old_before, old_after) = twins
    assert new_fresh["stats"] == old_fresh["stats"]
    assert new_fresh["state"] == old_fresh["state"]
    assert new_fresh["templates"] == old_fresh["templates"]
    assert len(new_served) >= 50
    assert new_served == old_served
    assert any(b"~migrate" in body for __, body in new_served)
    assert new_before == old_before
    assert len(new_before["journal"]) > 50
    assert new_after == old_after


# ----------------------------------------------------------------------
# What a link value resolves to, shape by shape
# ----------------------------------------------------------------------

CORNER_SITE = {
    name: b"<html>x</html>" for name in (
        "/index.html", "/x.html", "/dir/a.html", "/dir/b.html",
        "/dir/x.html", "/dir/sub/y.html", "/.hidden.html", "/a b.html")}

A, B = "/dir/a.html", "/dir/b.html"
AWAY = "http://coop:8002/~migrate/home/8001/x.html"
# (base document, raw value, name it resolves to, what it is rewritten to
# once /x.html has migrated to the co-op)
CORNERS = [
    # same document, whichever document that is: a query-only reference
    # read from two pages of one directory
    (A, "?page=2", A, "http://home:8001/dir/a.html"),
    (B, "?page=2", B, "http://home:8001/dir/b.html"),
    (A, "#top", None, None),
    (A, "", None, None),
    (A, "   ", None, None),
    # relative, from both pages
    (A, "x.html", "/dir/x.html", "http://home:8001/dir/x.html"),
    (B, "x.html", "/dir/x.html", "http://home:8001/dir/x.html"),
    (A, "./x.html", "/dir/x.html", "http://home:8001/dir/x.html"),
    (A, "../x.html", "/x.html", AWAY),
    (B, "../x.html#frag", "/x.html", AWAY),
    (A, "sub/y.html?q=1", "/dir/sub/y.html", "http://home:8001/dir/sub/y.html"),
    (A, "../../../x.html", "/x.html", AWAY),
    (A, "b.html", B, "http://home:8001/dir/b.html"),
    # root-relative: the common shape, and its near misses
    (A, "/x.html", "/x.html", AWAY),
    (A, "/dir/x.html", "/dir/x.html", "http://home:8001/dir/x.html"),
    (A, "/x.html ", "/x.html", AWAY),
    (A, "/x.html\n", "/x.html", AWAY),
    (A, "/x.html?q=1", "/x.html", AWAY),
    (A, "/x.html#frag", "/x.html", AWAY),
    (A, "/dir/../x.html", "/x.html", AWAY),
    (A, "/dir/./x.html", "/dir/x.html", "http://home:8001/dir/x.html"),
    (A, "/dir//x.html", "/dir/x.html", "http://home:8001/dir/x.html"),
    (A, "/dir/x.html/.", "/dir/x.html", "http://home:8001/dir/x.html"),
    (A, "/.hidden.html", "/.hidden.html", "http://home:8001/.hidden.html"),
    (A, "/a b.html", "/a b.html", "http://home:8001/a b.html"),
    (A, "/missing.html", "/missing.html", None),
    (A, "/dir/", "/dir/", None),
    (A, "/", "/", None),
    (A, "/~migrate/home/8001/x.html", "/x.html", AWAY),
    (A, "/~migrate/other/80/x.html", None, None),
    (A, "/~migrate/home/x.html", None, None),
    # network-path and absolute references to this server
    (A, "//home:8001/x.html", "/x.html", AWAY),
    (A, "//other:9/x.html", None, None),
    (A, "http://home:8001/x.html", "/x.html", AWAY),
    (A, "http://home:8001/dir/x.html", "/dir/x.html",
     "http://home:8001/dir/x.html"),
    (A, "http://HOME:8001/dir/x.html", "/dir/x.html",
     "http://home:8001/dir/x.html"),
    (A, "http://home:8001/dir/../x.html", "/x.html", AWAY),
    (A, "http://home:8001/x.html?q=1#f", "/x.html", AWAY),
    (A, "http://home:8001/x.html ", "/x.html", AWAY),
    (A, "http://home:8001", "/", None),
    (A, "http://home:8001/", "/", None),
    # a longer port or host that merely starts like ours
    (A, "http://home:80010/x.html", None, None),
    (A, "http://home:8001.example/x.html", None, None),
    (A, "http://home/x.html", None, None),
    # a migrated URL pointing back home, and one that does not
    (A, AWAY, "/x.html", AWAY),
    (B, "http://coop:8002/~migrate/home/8001/dir/x.html", "/dir/x.html",
     "http://home:8001/dir/x.html"),
    (A, "http://coop:8002/~migrate/other/80/x.html", None, None),
    (A, "http://home:8001/~migrate/home/8001/x.html", "/x.html", AWAY),
    # off-site, and what join_url cannot parse
    (A, "http://elsewhere.example/x.html", None, None),
    (A, "http://coop:8002/x.html", None, None),
    (A, "http://:8001/x.html", None, None),
    (A, "http://home:port/x.html", None, None),
    (A, "HTTP://home:8001/x.html", "/dir/HTTP:/home:8001/x.html", None),
]


def corner_engine(kind, location=HOME):
    engine = kind(location, ServerConfig(), MemoryStore(dict(CORNER_SITE)),
                  entry_points=["/index.html"], peers=[COOP])
    engine.initialize(0.0)
    engine.policy.force_migrate("/x.html", COOP, now=1.0)
    return engine


@pytest.mark.parametrize("kind", [DCWSEngine, ReferenceIndexEngine])
@pytest.mark.parametrize("base,raw,name,rewritten", CORNERS)
def test_resolver_corners(kind, base, raw, name, rewritten):
    engine = corner_engine(kind)
    assert engine._resolve_to_name(base, raw) == name
    assert engine._rewrite_value(base, raw) == rewritten


def test_resolver_on_the_default_port():
    """``http://www`` has no port to end the prefix: the character after
    it decides."""
    www = Location("www", 80)
    for kind in (DCWSEngine, ReferenceIndexEngine):
        engine = corner_engine(kind, www)
        for raw, name in [("http://www/dir/x.html", "/dir/x.html"),
                          ("http://www:80/dir/x.html", "/dir/x.html"),
                          ("http://www:8080/dir/x.html", None),
                          ("http://www.example/dir/x.html", None),
                          ("http://wwww/dir/x.html", None),
                          ("http://www", "/")]:
            assert engine._resolve_to_name(A, raw) == name, (kind, raw)
        assert engine._rewrite_value(A, "/dir/x.html") == \
            "http://www/dir/x.html"
        assert engine._rewrite_value(A, "/x.html") == \
            "http://coop:8002/~migrate/www/80/x.html"
