"""Replay regressions, the fsck oracle that catches the first, and a
journal written by an older build.

- A relocated HTML page is dirty after replay, as it was live: a
  recovered home regenerates it (absolute links) before the co-op's pull
  instead of handing over its raw relative links under the bumped
  version.
- A save after a regeneration recovers the digest of the bytes on disk:
  the first scrub of the recovered engine quarantines nothing, whether
  the save's write landed or a crash ate it.
- fsck's invariant 4 flags a clean relocated page that still links
  relatively: the state the first regression left behind.
- A peer an older build stored as ``"forgotten"`` (its name for a peer
  dead for 300 s, read everywhere exactly like dead) recovers as dead and
  out of the load table, from a snapshot row and from a journal record.
- ``tests/golden/replay_compat/`` holds the journals and snapshots of a
  home + co-op run recorded at commit 2066337, with the state that build
  recovered from them; this build must recover the same state.
  Re-record (only at a commit whose recovery is the reference) with
  ``PYTHONPATH=src python -m tests.test_replay_regressions``.
"""

import json
import os
import pathlib

import pytest

from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.core.membership import DEAD
from repro.faults import FaultPlan, FaultRule, InjectedDiskError
from repro.http.content import digest_matches
from repro.http.messages import Request
from repro.server.engine import DCWSEngine, PullFromHome
from repro.server.filestore import DiskStore, MemoryStore
from repro.server.fsck import check_engine
from repro.server.persistence import (
    _payload_checksum,
    checkpoint,
    recover,
    snapshot_engine,
)
from repro.server.wal import WriteAheadJournal
from tests.test_replay_differential import durable_state

HOME = Location("home", 8001)
COOP = Location("coop", 8002)
SITE = {
    "/index.html": b'<html><a href="d.html">D</a><a href="f.html">F</a>'
                   b'<img src="img.gif"></html>',
    "/d.html": b'<html><a href="e.html">E</a></html>',
    "/e.html": b"<html>leaf</html>",
    "/f.html": b'<html><a href="e.html">E</a><a href="d.html">D</a></html>',
    "/img.gif": b"GIF89a" + bytes(range(32)),
}
MIGRATED_D = "/~migrate/home/8001/d.html"
CONFIG = ServerConfig(validation_interval=30.0)
GOLDEN = pathlib.Path(__file__).parent / "golden" / "replay_compat"


def make_engine(location, store):
    return DCWSEngine(location, CONFIG, store,
                      entry_points=["/index.html"] if location == HOME
                      else [],
                      peers=[COOP if location == HOME else HOME])


def journaled(location, store, path):
    engine = make_engine(location, store)
    engine.initialize(0.0)
    engine.attach_journal(WriteAheadJournal(str(path), location=str(location),
                                            fsync_policy="off"))
    return engine


def copy_of(store):
    return MemoryStore({name: store.get(name) for name in store.names()})


def test_a_recovered_home_serves_a_relocated_page_with_absolute_links(
        tmp_path):
    live = journaled(HOME, MemoryStore(SITE), tmp_path / "home.wal")
    live.policy.force_migrate("/d.html", COOP, now=1.0)
    recovered = make_engine(HOME, copy_of(live.store))
    recover(recovered, None, live.journal.path, now=2.0)
    assert recovered.graph.get("/d.html").dirty

    coop = make_engine(COOP, MemoryStore())
    coop.initialize(0.0)
    pull = coop.handle_request(Request("GET", MIGRATED_D), 3.0)
    assert isinstance(pull, PullFromHome)
    bodies = [engine.handle_request(pull.request, 3.0).response.body
              for engine in (live, recovered)]
    assert bodies[0] == bodies[1]
    assert b'href="http://home:8001/e.html"' in bodies[1]
    served = coop.complete_pull(pull, recovered.handle_request(
        pull.request, 3.0).response, 3.0).response
    assert served.status == 200 and served.body == bodies[0]
    assert check_engine(recovered) == []


@pytest.mark.parametrize("write_lands", [True, False],
                         ids=["write-lands", "write-lost"])
def test_a_save_after_a_regeneration_recovers_the_digest_on_disk(
        tmp_path, write_lands):
    store = DiskStore(str(tmp_path / "docs"))
    for name, data in SITE.items():
        store.put(name, data)
    live = journaled(HOME, store, tmp_path / "home.wal")
    live.policy.force_migrate("/d.html", COOP, now=1.0)
    assert live.regenerate_dirty() >= 1
    if not write_lands:
        store.faults = FaultPlan([FaultRule(kind="disk_write_error",
                                            name="/d.html")])
    try:
        live.update_document("/d.html", b'<html><a href="f.html">F</a>'
                                        b'</html>')
    except InjectedDiskError:
        assert not write_lands      # journaled, then the crash ate it
    live.journal.close()

    recovered = make_engine(HOME, DiskStore(str(tmp_path / "docs")))
    recover(recovered, None, live.journal.path, now=2.0)
    record = recovered.graph.get("/d.html")
    assert digest_matches(recovered.store.get("/d.html"), record.digest)
    if write_lands:
        assert record.digest == live.graph.get("/d.html").digest
    assert record.version == 2 and record.dirty
    recovered._scrub_one("/d.html", 3.0)
    assert not recovered.integrity.active()


def test_fsck_flags_a_clean_relocated_page_with_relative_links():
    engine = make_engine(HOME, MemoryStore(SITE))
    engine.initialize(0.0)
    engine.policy.force_migrate("/d.html", COOP, now=1.0)
    engine.regenerate_dirty()
    assert check_engine(engine) == []
    # What replay used to leave: relocated, version bumped, never dirtied.
    engine.store.put("/d.html", SITE["/d.html"])
    violations = check_engine(engine)
    assert len(violations) == 1
    assert "/d.html" in violations[0] and "relatively" in violations[0]


# ----------------------------------------------------------------------
# A journal and snapshot written by an older build
# ----------------------------------------------------------------------

def recorded_run(directory):
    """The home + co-op run whose journals and snapshots are recorded:
    every record kind, a checkpoint half way, and (deliberately) no
    relocated page left unregenerated and no save after a regeneration
    left unregenerated — the two shapes the recording build replayed
    wrongly.  Returns the two engines."""
    home = journaled(HOME, MemoryStore(SITE), directory / "home.wal")
    coop = journaled(COOP, MemoryStore(), directory / "coop.wal")

    def get(engine, path, now):
        reply = engine.handle_request(Request("GET", path), now)
        if isinstance(reply, PullFromHome):
            reply = engine.complete_pull(reply, home.handle_request(
                reply.request, now).response, now)
        return reply.response

    def tick(engine, now, answered=True):
        peer = home if engine is coop else coop
        for action in engine.tick(now):
            engine.complete_action(action, peer.handle_request(
                action.request, now).response if answered else None, now)

    get(home, "/index.html", 1.0)
    home.policy.force_migrate("/d.html", COOP, now=2.0)
    home.policy.force_migrate("/f.html", COOP, now=2.5)
    get(coop, MIGRATED_D, 3.0)                       # pull, regenerate
    get(coop, "/~migrate/home/8001/f.html", 3.2)
    get(home, "/index.html", 3.5)
    for engine in (home, coop):
        checkpoint(engine, str(directory / f"{engine.location.host}"
                                           f".snapshot"), 5.0)
    home._clock = 6.0
    home.update_document("/e.html", b'<html><a href="d.html">D</a></html>')
    get(home, "/e.html", 6.5)
    home.update_document("/d.html", b'<html>d, v2</html>')
    home.policy.revoke("/f.html")
    get(home, "/f.html", 7.0)
    get(home, "/index.html", 7.2)
    tick(home, 20.0)                                 # glt_row, pings
    tick(coop, 40.0, answered=False)                 # suspect home
    tick(coop, 80.0)       # alive; d refreshed, f dropped (301)
    get(home, "/e.html", 80.5)
    # Rot on both sides, caught by the scrub: quarantines that stay.
    home.store.put("/img.gif", b"GIF89a rotten")
    home._scrub_one("/img.gif", 81.0)
    coop.store.put(MIGRATED_D, b"rotten")
    coop._scrub_one(MIGRATED_D, 81.5)
    for engine in (home, coop):
        engine.journal.close()
    return home, coop


def recovered_state(directory, location, stored, now=100.0):
    store = MemoryStore({name: data.encode("latin-1")
                         for name, data in stored.items()})
    engine = make_engine(location, store)
    recover(engine, str(directory / f"{location.host}.snapshot"),
            str(directory / f"{location.host}.wal"), now)
    assert check_engine(engine) == []
    return json.loads(json.dumps(durable_state(engine)))


def record(directory=GOLDEN):
    directory.mkdir(parents=True, exist_ok=True)
    engines = recorded_run(directory)
    expected = {}
    for engine in engines:
        stored = {name: engine.store.get(name).decode("latin-1")
                  for name in engine.store.names()}
        expected[engine.location.host] = {
            "store": stored,
            "recovered": recovered_state(directory, engine.location, stored)}
    (directory / "expected.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n")


def test_a_peer_stored_as_forgotten_recovers_dead(tmp_path):
    coop_2 = Location("coop2", 8003)

    def home_engine():
        return DCWSEngine(HOME, CONFIG, MemoryStore(SITE),
                          entry_points=["/index.html"], peers=[COOP, coop_2])

    old = home_engine()
    old.initialize(0.0)
    snapshot = snapshot_engine(old, 1.0)
    snapshot["membership"] = [
        {"peer": str(COOP), "state": "forgotten", "since": 1.0}]
    snapshot["checksum"] = _payload_checksum(snapshot)
    (tmp_path / "home.snapshot").write_text(json.dumps(snapshot))
    journal = WriteAheadJournal(str(tmp_path / "home.wal"),
                                location=str(HOME), fsync_policy="off")
    journal.append("membership", 2.0, peer=str(coop_2), state="forgotten")
    journal.close()

    engine = home_engine()
    assert engine.glt.get(COOP) and engine.glt.get(coop_2)
    stats = recover(engine, str(tmp_path / "home.snapshot"),
                    str(tmp_path / "home.wal"), 3.0)
    assert stats.snapshot_loaded and stats.records_replayed == 1
    for peer in (COOP, coop_2):
        assert engine.membership.state(str(peer)) == DEAD, peer
        assert engine.glt.get(peer) is None, peer
    assert check_engine(engine) == []


def test_a_journal_and_snapshot_from_2066337_recover_identically():
    expected = json.loads((GOLDEN / "expected.json").read_text())
    for location in (HOME, COOP):
        saved = expected[location.host]
        assert recovered_state(GOLDEN, location, saved["store"]) \
            == saved["recovered"], location


if __name__ == "__main__":
    record()
    print(f"recorded {sorted(os.listdir(GOLDEN))}")
