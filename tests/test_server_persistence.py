"""Unit tests for engine state snapshots (restart recovery)."""

import json
import os

import pytest

from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.http.messages import Request
from repro.http.piggyback import LoadReport
from repro.server.engine import DCWSEngine, PURPOSE_HEADER, PullFromHome
from repro.server.filestore import MemoryStore
from repro.server.persistence import (
    SnapshotError,
    load_snapshot,
    restore_engine,
    restore_from_file,
    save_snapshot,
    snapshot_engine,
)

HOME = Location("home", 8001)
COOP = Location("coop", 8002)

SITE = {
    "/index.html": b'<html><a href="d.html">D</a></html>',
    "/d.html": b'<html><a href="e.html">E</a></html>',
    "/e.html": b"<html>leaf</html>",
}


def make_engine(location=HOME, site=None):
    engine = DCWSEngine(location, ServerConfig(migration_hit_threshold=1.0),
                        MemoryStore(SITE if site is None else site),
                        entry_points=["/index.html"] if site is None else [],
                        peers=[COOP if location == HOME else HOME])
    engine.initialize(0.0)
    return engine


def busy_engine():
    """An engine with migrations, hits, and GLT state worth saving."""
    engine = make_engine()
    engine.graph.record_hit("/d.html", 42)
    engine.policy.force_migrate("/d.html", COOP, now=5.0)
    engine.glt.update_own(17.0, 6.0)
    engine.glt.observe(LoadReport("coop:8002", 3.0, 6.0))
    return engine


class TestSnapshotRoundTrip:
    def test_snapshot_captures_migration_state(self):
        snapshot = snapshot_engine(busy_engine(), now=10.0)
        assert snapshot["documents"]["/d.html"]["location"] == "coop:8002"
        assert snapshot["migrations"] == {
            "/d.html": {"coop": "coop:8002", "migrated_at": 5.0}}
        assert any(row["server"] == "home:8001" and row["metric"] == 17.0
                   for row in snapshot["glt"])

    def test_restore_recreates_behaviour(self):
        original = busy_engine()
        snapshot = snapshot_engine(original, now=10.0)
        restarted = make_engine()
        restored = restore_engine(restarted, snapshot, now=20.0)
        assert restored == len(SITE)
        # The restarted server still redirects for the migrated document.
        reply = restarted.handle_request(Request("GET", "/d.html"), 21.0)
        assert reply.response.status == 301
        assert "coop:8002" in reply.response.headers.get("Location")
        # And its policy can still revoke it.
        assert restarted.policy.migrated_names() == ["/d.html"]

    def test_restore_preserves_hits_and_versions(self):
        original = busy_engine()
        snapshot = snapshot_engine(original, now=10.0)
        restarted = make_engine()
        restore_engine(restarted, snapshot, now=20.0)
        assert restarted.graph.get("/d.html").hits == \
            original.graph.get("/d.html").hits
        assert restarted.graph.get("/d.html").version == \
            original.graph.get("/d.html").version

    def test_snapshot_is_json_serializable(self):
        json.dumps(snapshot_engine(busy_engine(), now=1.0))

    def test_documents_missing_from_disk_skipped(self):
        snapshot = snapshot_engine(busy_engine(), now=10.0)
        smaller = dict(SITE)
        del smaller["/e.html"]
        restarted = DCWSEngine(HOME, ServerConfig(),
                               MemoryStore(smaller),
                               entry_points=["/index.html"])
        restarted.initialize(0.0)
        restored = restore_engine(restarted, snapshot, now=20.0)
        assert restored == len(smaller)


class TestHostedState:
    def coop_with_copy(self):
        coop = make_engine(location=COOP, site={})
        home = make_engine()
        pull = coop.handle_request(
            Request("GET", "/~migrate/home/8001/d.html"), 1.0)
        pull.request.headers.set(PURPOSE_HEADER, "migration-pull")
        upstream = home.handle_request(pull.request, 1.1)
        coop.complete_pull(pull, upstream.response, 1.2)
        return coop

    def test_hosted_copies_survive_restart(self, tmp_path):
        coop = self.coop_with_copy()
        path = str(tmp_path / "coop.snapshot")
        save_snapshot(coop, path, now=2.0)
        restarted = DCWSEngine(COOP, ServerConfig(),
                               coop.store,  # same disk
                               peers=[HOME])
        restarted.initialize(0.0)
        restored = restore_from_file(restarted, path, now=3.0)
        assert restored >= 0
        key = "/~migrate/home/8001/d.html"
        assert restarted.hosted[key].fetched
        reply = restarted.handle_request(Request("GET", key), 4.0)
        assert reply.response.status == 200

    def test_hosted_without_content_restored_unfetched(self, tmp_path):
        coop = self.coop_with_copy()
        path = str(tmp_path / "coop.snapshot")
        save_snapshot(coop, path, now=2.0)
        fresh = DCWSEngine(COOP, ServerConfig(), MemoryStore(),  # empty disk
                           peers=[HOME])
        fresh.initialize(0.0)
        restore_from_file(fresh, path, now=3.0)
        # The hosted entry survives without its bytes: it comes back
        # unfetched and re-pulls from home on demand instead of 404ing
        # (the home server still redirects here).
        key = "/~migrate/home/8001/d.html"
        assert key in fresh.hosted
        assert not fresh.hosted[key].fetched
        assert fresh.hosted[key].version == ""
        retry = fresh.handle_request(Request("GET", key), 4.0)
        assert isinstance(retry, PullFromHome)


class TestInFlightState:
    """Snapshots taken while work is in flight must round-trip safely:
    a crash can land between any two steps of a pull or a splice."""

    def test_mid_flight_pull_restarts_as_a_fresh_pull(self, tmp_path):
        coop = make_engine(location=COOP, site={})
        key = "/~migrate/home/8001/d.html"
        pull = coop.handle_request(Request("GET", key), 1.0)
        assert isinstance(pull, PullFromHome)
        # Crash before complete_pull: the hosted entry is unfetched.
        path = str(tmp_path / "coop.snapshot")
        save_snapshot(coop, path, now=1.5)
        snapshot = load_snapshot(path)
        assert key not in snapshot["hosted"]  # nothing durable to save
        restarted = DCWSEngine(COOP, ServerConfig(), coop.store,
                               peers=[HOME])
        restarted.initialize(0.0)
        restore_from_file(restarted, path, now=2.0)
        # The restarted co-op re-pulls on demand instead of serving a
        # half-transferred copy.
        retry = restarted.handle_request(Request("GET", key), 3.0)
        assert isinstance(retry, PullFromHome)

    def test_dirty_documents_survive_restart(self):
        original = busy_engine()
        # Migrating /d.html dirtied its referrer (the link must be
        # rewritten to point at the co-op).
        assert original.graph.get("/index.html").dirty
        snapshot = snapshot_engine(original, now=10.0)
        restarted = make_engine()
        restore_engine(restarted, snapshot, now=20.0)
        assert restarted.graph.get("/index.html").dirty

    def test_snapshot_with_open_breaker_round_trips(self, tmp_path):
        engine = busy_engine()
        for __ in range(engine.config.ping_failure_limit):
            engine.membership.failure(str(COOP), 5.0)  # death unapplied
        assert engine.membership.describe(str(COOP))["circuit"] == "open"
        path = str(tmp_path / "home.snapshot")
        save_snapshot(engine, path, now=10.0)
        restarted = make_engine()
        restore_from_file(restarted, path, now=20.0)
        # The circuit is runtime-only: a restarted server reaches for its
        # live peers afresh rather than inheriting a stale open circuit.
        assert restarted.membership.describe(str(COOP))["circuit"] == \
            "closed"
        assert restarted.policy.migrated_names() == ["/d.html"]


class TestFileHandling:
    def test_save_then_load(self, tmp_path):
        path = str(tmp_path / "state" / "engine.snapshot")
        save_snapshot(busy_engine(), path, now=1.0)
        snapshot = load_snapshot(path)
        assert snapshot["location"] == "home:8001"

    def test_missing_file_returns_zero(self, tmp_path):
        engine = make_engine()
        assert restore_from_file(engine, str(tmp_path / "nope"), 1.0) == 0

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "bad.snapshot"
        path.write_text("{not json")
        with pytest.raises(SnapshotError):
            load_snapshot(str(path))

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "old.snapshot"
        path.write_text(json.dumps({"snapshot_version": 99}))
        with pytest.raises(SnapshotError):
            load_snapshot(str(path))

    def test_wrong_server_raises(self):
        snapshot = snapshot_engine(busy_engine(), now=1.0)
        other = make_engine(location=Location("other", 9000), site={})
        with pytest.raises(SnapshotError):
            restore_engine(other, snapshot, now=2.0)

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "engine.snapshot")
        save_snapshot(busy_engine(), path, now=1.0)
        save_snapshot(busy_engine(), path, now=2.0)  # overwrite
        leftovers = [f for f in os.listdir(tmp_path) if f != "engine.snapshot"]
        assert leftovers == []
