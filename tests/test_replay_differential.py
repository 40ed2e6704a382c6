"""Differential check of the one write path: live engine vs. its recovery.

A seeded home + co-op pair takes a random mix of client GETs (routed
through 301s and lazy pulls), forced migrations, revocations, author
updates, checkpoints and ticks whose transfers are routed to the other
engine.  After every step each engine is recovered — snapshot plus
journal, over a copy of its store — and the recovered engine must hold
the live one's durable state, up to the replay weakenings named in
:func:`expected_after_replay`, and pass fsck.

Seeds are ``REPRO_FAULT_SEED`` + 0..19; a failure names the base seed,
the case and the step, so ``REPRO_FAULT_SEED=<base> pytest
tests/test_replay_differential.py -k 'seed<case>'`` replays it.
"""

import os
import random

import pytest

from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.http.messages import Request
from repro.http.status import StatusCode
from repro.http.urls import parse_url
from repro.server.engine import DCWSEngine, PullFromHome
from repro.server.filestore import MemoryStore
from repro.server.fsck import check_engine
from repro.server.persistence import checkpoint, recover
from repro.server.wal import WriteAheadJournal

BASE_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))
SEEDS = 20
STEPS = 30

HOME = Location("home", 8001)
COOP = Location("coop", 8002)
PAGES = ["/a.html", "/b.html", "/c.html", "/d.html", "/e.html"]
SITE = {
    "/index.html": b'<html><a href="a.html">A</a><a href="b.html">B</a>'
                   b'<a href="c.html">C</a></html>',
    "/a.html": b'<html><a href="b.html">B</a><img src="pic.gif"></html>',
    "/b.html": b'<html><a href="c.html">C</a><a href="/d.html">D</a></html>',
    "/c.html": b'<html><a href="a.html">A</a><a href="e.html">E</a></html>',
    "/d.html": b'<html><a href="e.html">E</a></html>',
    "/e.html": b"<html>leaf</html>",
    "/pic.gif": b"GIF89a" + bytes(range(64)),
}
CONFIG = ServerConfig(stats_interval=10.0, validation_interval=30.0,
                      pinger_interval=20.0)


def make_engine(location, store, peer):
    return DCWSEngine(location, CONFIG, store, peers=[peer],
                      entry_points=["/index.html"] if location == HOME
                      else [])


def durable_state(engine):
    """What a restart must not lose (see :func:`expected_after_replay`
    for what it may weaken)."""
    return {
        "documents": {
            record.name: (str(record.location),
                          sorted(str(r) for r in record.replicas),
                          record.version, record.dirty, record.digest,
                          record.migrated_at)
            for record in engine.graph.documents()},
        "hosted": {
            key: (entry.fetched, entry.size, str(entry.home),
                  entry.original, entry.validated_at, entry.version,
                  entry.digest)
            for key, entry in engine.hosted.items()},
        "quarantined": [record.key for record in engine.integrity.active()],
        "membership": engine.membership.snapshot(),
        "replication": [[record.name, engine.replication.state(record)]
                        for record in engine.replication.groups()],
    }


def expected_after_replay(live, recovered, not_refreshed):
    """*live*'s state as a recovery may legitimately return it — the
    replay weakenings, all of them, named:

    - a hosted copy's version and digest may come back blank: ``pull``
      and ``validate_refreshed`` are journaled before their byte write,
      so replay cannot vouch for the bytes on disk;
    - a hosted copy whose last validation brought no new bytes (a 304)
      may replay an *earlier* ``validated_at``: such answers are not
      journaled (keys in *not_refreshed*);
    - hit counts are not journaled, so :func:`durable_state` leaves
      them out.
    """
    expected = dict(live, hosted=dict(live["hosted"]))
    for key, got in recovered["hosted"].items():
        want = expected["hosted"].get(key)
        if want is None:
            continue
        fetched, size, home, original, validated_at, version, digest = want
        if key in not_refreshed and got[4] <= validated_at:
            validated_at = got[4]
        expected["hosted"][key] = (
            fetched, size, home, original, validated_at,
            "" if got[5] == "" else version, "" if got[6] == "" else digest)
    return expected


class Pair:
    """A journaled home and co-op whose transfers reach each other."""

    def __init__(self, tmp_path, rng):
        self.rng = rng
        self.now = 1.0
        self.not_refreshed = set()
        self.snapshots = {}
        self.home = self.launch(tmp_path, HOME, SITE, COOP)
        self.coop = self.launch(tmp_path, COOP, {}, HOME)

    def launch(self, tmp_path, location, site, peer):
        engine = make_engine(location, MemoryStore(site), peer)
        engine.initialize(0.0)
        engine.attach_journal(WriteAheadJournal(
            str(tmp_path / f"{location.host}.wal"), location=str(location),
            fsync_policy="off"))
        self.snapshots[engine] = str(tmp_path / f"{location.host}.snapshot")
        return engine

    def other(self, engine):
        return self.coop if engine is self.home else self.home

    def serve(self, engine, request):
        """One request to *engine*; a lazy pull goes to the other."""
        reply = engine.handle_request(request, self.now)
        if isinstance(reply, PullFromHome):
            upstream = self.serve(self.other(engine), reply.request)
            reply = engine.complete_pull(reply, upstream, self.now)
        return reply.response

    # -- the steps ------------------------------------------------------

    def get(self):
        """A client GET at the home, following one 301 to the co-op."""
        response = self.serve(self.home, Request(
            "GET", self.rng.choice(["/index.html", "/pic.gif"] + PAGES)))
        if response.status == StatusCode.MOVED_PERMANENTLY:
            url = parse_url(response.headers.get("Location"))
            assert (url.host, url.port) == (COOP.host, COOP.port)
            self.serve(self.coop, Request("GET", url.path))

    def migrate(self):
        home_pages = [name for name in PAGES + ["/pic.gif"]
                      if self.home.graph.get(name).location == HOME]
        if home_pages:
            self.home.policy.force_migrate(self.rng.choice(home_pages),
                                           COOP, self.now)

    def revoke(self):
        away = sorted(r.name for r in self.home.graph.migrated_documents())
        if away:
            self.home.policy.revoke(self.rng.choice(away))

    def update(self):
        name = self.rng.choice(PAGES)
        links = "".join(f'<a href="{target[1:]}">x</a>' for target in
                        self.rng.sample(PAGES, self.rng.randint(0, 3)))
        self.home._clock = self.now
        self.home.update_document(
            name, f"<html><!-- {self.now} -->{links}</html>".encode())

    def checkpoint(self):
        for engine in (self.home, self.coop):
            checkpoint(engine, self.snapshots[engine], self.now)

    def tick(self):
        self.now += self.rng.uniform(5.0, 15.0)
        for engine in (self.home, self.coop):
            for action in engine.tick(self.now):
                response = self.serve(self.other(engine), action.request)
                engine.complete_action(action, response, self.now)
                if action.kind == "validate":
                    if response.status == StatusCode.OK:
                        self.not_refreshed.discard(action.key)
                    else:
                        self.not_refreshed.add(action.key)

    ACTIONS = ("get", "get", "get", "migrate", "revoke", "update",
               "checkpoint", "tick", "tick")

    def step(self):
        action = self.rng.choice(self.ACTIONS)
        self.now += self.rng.uniform(0.1, 2.0)
        getattr(self, action)()
        return action

    # -- the check ------------------------------------------------------

    def recovered(self, engine):
        """*engine* restarted from its snapshot and journal, over a copy
        of its store (replay may delete bytes the live run still
        uses)."""
        store = MemoryStore({name: engine.store.get(name)
                             for name in engine.store.names()})
        fresh = make_engine(engine.location, store,
                            self.other(engine).location)
        recover(fresh, self.snapshots[engine], engine.journal.path,
                self.now)
        return fresh

    def check(self, where):
        for engine in (self.home, self.coop):
            assert check_engine(engine) == [], where
            fresh = self.recovered(engine)
            assert check_engine(fresh) == [], where
            live, got = durable_state(engine), durable_state(fresh)
            want = expected_after_replay(live, got, self.not_refreshed)
            for part in want:
                assert got[part] == want[part], (
                    f"{where}: {engine.location} recovers a different "
                    f"{part}")


@pytest.mark.parametrize("offset", range(SEEDS),
                         ids=[f"seed{i}" for i in range(SEEDS)])
def test_recovery_holds_the_live_state_after_every_step(offset, tmp_path):
    seed = BASE_SEED + offset
    pair = Pair(tmp_path, random.Random(seed))
    for index in range(STEPS):
        action = pair.step()
        pair.check(f"REPRO_FAULT_SEED={BASE_SEED} -k seed{offset} "
                   f"(rng seed {seed}), step {index} ({action})")
