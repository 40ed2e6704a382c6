"""When a dirty page is spliced, and when it is served as it is.

A dirty page is reconstructed "so their hyperlinks point at the new
location" (the paper, section 4.3).  When none of its links has a new
location — the page is at home, unreplicated and not quarantined, and
every link it holds names a site document at home in its plain form —
the regeneration writes nothing: the dirty bit is cleared over the bytes
already on disk, journaled as a ``regenerate`` record, and the page is
served as its author saved it.  Every other dirty page is spliced and
written as before.  Each case ends in ``fsck.check_engine``.
"""

from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.http.content import body_digest, digest_matches
from repro.http.messages import Request
from repro.server.engine import DCWSEngine, PURPOSE_HEADER, VERSION_HEADER
from repro.server.filestore import MemoryStore
from repro.server.fsck import check_engine
from repro.server.wal import WriteAheadJournal, scan_journal

HOME = Location("home", 8001)
COOP = Location("coop", 8002)
SITE = {
    "/index.html": b'<html><a href="d.html">D</a><a href="e.html">E</a>'
                   b'</html>',
    "/d.html": b'<html><a href="e.html">E</a></html>',
    "/e.html": b"<html>leaf</html>",
}
MIGRATED_D = "http://coop:8002/~migrate/home/8001/d.html"


class CountingStore(MemoryStore):
    """A memory store that lists the names it was asked to write."""

    def __init__(self, initial):
        super().__init__(initial)
        self.puts = []

    def put(self, name, data):
        self.puts.append(name)
        super().put(name, data)


def make_engine(tmp_path):
    engine = DCWSEngine(HOME, ServerConfig(), CountingStore(SITE),
                        entry_points=["/index.html"], peers=[COOP])
    engine.initialize(0.0)
    engine.attach_journal(WriteAheadJournal(
        str(tmp_path / "home.wal"), location=str(HOME), fsync_policy="off"))
    return engine


def get(engine, path, now=1.0, **headers):
    request = Request(method="GET", target=path)
    for name, value in headers.items():
        request.headers.set(name, value)
    return engine.handle_request(request, now)


def pull(engine, path, now=1.0):
    """The assigned co-op's migration pull of *path*."""
    return get(engine, path, now, **{PURPOSE_HEADER: "migration-pull",
                                     "X-DCWS-Sender": str(COOP)})


def records_since(engine, lsn):
    engine.journal.sync()
    return [(record.kind, record.fields)
            for record in scan_journal(engine.journal.path).records
            if record.lsn > lsn]


def test_a_save_whose_links_stay_home_is_served_as_saved(tmp_path):
    engine = make_engine(tmp_path)
    saved = b'<html><a href="e.html">E, again</a><a href="d.html">D</a>' \
            b'</html>'
    lsn, engine.store.puts = engine.journal.last_lsn, []
    engine.update_document("/index.html", saved)
    assert engine.graph.get("/index.html").dirty

    reply = get(engine, "/index.html")
    assert reply.response.status == 200
    assert reply.response.body == saved
    assert reply.response.headers.get(VERSION_HEADER) == "1"
    assert not reply.reconstructed and engine.stats.reconstructions == 0
    assert engine.store.puts == ["/index.html"]      # the save's own
    record = engine.graph.get("/index.html")
    assert not record.dirty and record.digest == body_digest(saved)
    assert [kind for kind, _ in records_since(engine, lsn)] == \
        ["content_update", "regenerate"]
    assert records_since(engine, lsn)[1][1] == {
        "name": "/index.html", "version": 1, "size": len(saved),
        "digest": body_digest(saved)}
    assert check_engine(engine) == []


def test_a_save_linking_a_force_migrated_page_is_spliced_with_its_url(
        tmp_path):
    engine = make_engine(tmp_path)
    engine.policy.force_migrate("/d.html", COOP, now=0.5)
    engine.update_document("/index.html",
                           b'<html><a href="d.html">D, new</a></html>')
    engine.store.puts = []
    reply = get(engine, "/index.html")
    assert reply.reconstructed
    assert f'href="{MIGRATED_D}"'.encode() in reply.response.body
    assert engine.store.puts == ["/index.html"]      # the splice's
    assert check_engine(engine) == []


def test_a_saved_page_that_is_itself_migrated_is_spliced_absolute(tmp_path):
    engine = make_engine(tmp_path)
    engine.policy.force_migrate("/d.html", COOP, now=0.5)
    assert pull(engine, "/d.html").reconstructed
    engine.update_document("/d.html",
                           b'<html><a href="e.html">E, new</a></html>')
    reply = pull(engine, "/d.html", now=2.0)
    assert reply.response.status == 200 and reply.reconstructed
    assert b'href="http://home:8001/e.html"' in reply.response.body
    assert check_engine(engine) == []


def test_a_stale_migrate_link_to_a_page_now_home_is_spliced_back(tmp_path):
    engine = make_engine(tmp_path)
    # The author saved a copy of the page as it was served while /d.html
    # was away; /d.html is at home now.
    engine.update_document(
        "/index.html", f'<html><a href="{MIGRATED_D}">D</a></html>'.encode())
    reply = get(engine, "/index.html")
    assert reply.reconstructed
    assert b"~migrate" not in reply.response.body
    assert b'href="http://home:8001/d.html"' in reply.response.body
    assert check_engine(engine) == []


def test_a_quarantined_dirty_page_repairs_by_a_full_splice(tmp_path):
    engine = make_engine(tmp_path)
    saved = b'<html><a href="d.html">D, saved</a></html>'
    engine.update_document("/index.html", saved)
    rotten = bytearray(saved)
    rotten[len(rotten) // 2] ^= 0xFF
    engine.store.put("/index.html", bytes(rotten))
    engine._scrub_one("/index.html", 1.0)
    assert engine.integrity.is_quarantined("/index.html")
    assert engine.graph.get("/index.html").dirty

    engine.store.puts = []
    reply = get(engine, "/index.html", now=2.0)
    assert reply.response.status == 200 and reply.reconstructed
    assert reply.response.body != bytes(rotten)
    assert b'href="http://home:8001/d.html"' in reply.response.body
    assert digest_matches(reply.response.body,
                          engine.graph.get("/index.html").digest)
    assert engine.store.get("/index.html") == reply.response.body
    assert engine.store.puts == ["/index.html"]
    assert not engine.integrity.is_quarantined("/index.html")
    assert check_engine(engine) == []
