"""Write-ahead journal: framing, torn tails, replay, checkpoint, fsck.

Covers the durability subsystem end to end at the unit level:

- record framing round-trips and a scan stops cleanly at damage;
- torn-tail fuzz: truncating the journal at *every byte offset* of its
  final record must recover without raising (satellite of the crash
  suite — the same property the SIGKILL harness exercises end to end);
- replay is idempotent: applying any journal prefix twice leaves the
  engine exactly as applying it once;
- recovery refuses a journal from another server and skips mispaired
  epochs; a corrupt snapshot degrades to journal-only replay;
- checkpointing truncates the journal but never reuses LSNs, including
  across a full stop/start cycle (the empty-journal resume case);
- the crash-atomic DiskStore.put survives an injected torn write;
- fsck catches the inconsistencies recovery is supposed to prevent.
"""

import json
import os

import pytest

from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.errors import DocumentNotFound
from repro.faults import FaultPlan, FaultRule, InjectedDiskError
from repro.http.messages import Request, Response
from repro.server.engine import DCWSEngine, PURPOSE_HEADER
from repro.server.filestore import DiskStore, MemoryStore
from repro.server.fsck import FsckError, assert_clean, check_engine
from repro.server.persistence import (
    apply_record,
    checkpoint,
    load_snapshot,
    recover,
    save_snapshot,
)
from repro.server.wal import (
    WALError,
    WriteAheadJournal,
    scan_journal,
)

HOME = Location("home", 8001)
COOP = Location("coop", 8002)

SITE = {
    "/index.html": b'<html><a href="d.html">D</a><a href="e.html">E</a></html>',
    "/d.html": b'<html><a href="e.html">E</a></html>',
    "/e.html": b"<html>leaf</html>",
}


def make_engine(location=HOME, site=None, store=None):
    engine = DCWSEngine(location, ServerConfig(migration_hit_threshold=1.0),
                        store if store is not None
                        else MemoryStore(SITE if site is None else site),
                        entry_points=["/index.html"] if site is None
                        and store is None else [],
                        peers=[COOP if location == HOME else HOME])
    engine.initialize(0.0)
    return engine


def journaled_engine(tmp_path, **journal_kwargs):
    journal = WriteAheadJournal(str(tmp_path / "home.wal"),
                                location=str(HOME), fsync_policy="off",
                                **journal_kwargs)
    engine = make_engine()
    engine.attach_journal(journal)
    return engine, journal


def run_workload(engine):
    """A realistic mutation mix: hits, a migration, a content update, a
    revocation — every kind the policy callback and direct hooks emit."""
    engine.handle_request(Request("GET", "/index.html"), 1.0)
    engine.graph.record_hit("/d.html", 40)
    engine.policy.force_migrate("/d.html", COOP, now=2.0)
    engine.handle_request(Request("GET", "/e.html"), 3.0)
    engine.update_document("/e.html", b"<html>leaf v2</html>")
    engine.policy.force_migrate("/e.html", COOP, now=4.0)
    engine.handle_request(Request("GET", "/index.html"), 5.0)
    engine.policy.revoke("/e.html")


def engine_state(engine):
    """The comparable durable state of an engine (replay target)."""
    documents = {
        record.name: (str(record.location),
                      tuple(sorted(str(r) for r in record.replicas)),
                      record.version, record.dirty)
        for record in engine.graph.documents()}
    migrations = {
        record.name: (str(record.location),
                      tuple(sorted(str(r) for r in record.replicas)),
                      record.migrated_at)
        for record in engine.graph.migrated_documents()}
    hosted = {
        key: (entry.fetched, entry.size, entry.version,
              str(entry.home), entry.original, entry.validated_at)
        for key, entry in engine.hosted.items()}
    return documents, migrations, hosted


class TestFraming:
    def test_append_scan_round_trip(self, tmp_path):
        path = str(tmp_path / "a.wal")
        journal = WriteAheadJournal(path, location="home:8001")
        first = journal.append("migrate", 1.0, name="/d.html",
                               location="coop:8002")
        second = journal.append("glt_row", 2.0, metric=17.5)
        journal.close()
        scan = scan_journal(path)
        assert not scan.torn_tail
        assert [r.lsn for r in scan.records] == [first, second] == [1, 2]
        assert scan.records[0].kind == "migrate"
        assert scan.records[0].location == "home:8001"
        assert scan.records[0].fields == {"name": "/d.html",
                                          "location": "coop:8002"}
        assert scan.records[1].fields["metric"] == 17.5
        assert scan.valid_bytes == os.path.getsize(path)

    def test_missing_file_scans_empty(self, tmp_path):
        scan = scan_journal(str(tmp_path / "nope.wal"))
        assert scan.records == [] and not scan.torn_tail

    def test_reopen_continues_lsns(self, tmp_path):
        path = str(tmp_path / "a.wal")
        with WriteAheadJournal(path, location="x") as journal:
            journal.append("glt_row", 1.0, metric=1.0)
        with WriteAheadJournal(path, location="x") as journal:
            assert journal.append("glt_row", 2.0, metric=2.0) == 2
        assert [r.lsn for r in scan_journal(path).records] == [1, 2]

    def test_interior_corruption_stops_at_last_good_prefix(self, tmp_path):
        path = str(tmp_path / "a.wal")
        with WriteAheadJournal(path, location="x") as journal:
            for i in range(3):
                journal.append("glt_row", float(i), metric=float(i))
        data = open(path, "rb").read()
        # Flip one payload byte of the middle record.
        import struct
        length0 = struct.unpack(">I", data[:4])[0]
        middle_payload_at = 8 + length0 + 8
        corrupt = bytearray(data)
        corrupt[middle_payload_at] ^= 0xFF
        open(path, "wb").write(bytes(corrupt))
        scan = scan_journal(path)
        assert [r.lsn for r in scan.records] == [1]
        assert scan.torn_tail  # decoding stopped early

    def test_garbage_length_treated_as_torn(self, tmp_path):
        path = str(tmp_path / "a.wal")
        open(path, "wb").write(b"\xff\xff\xff\xff\x00\x00\x00\x00payload")
        scan = scan_journal(path)
        assert scan.records == [] and scan.torn_tail

    def test_closed_journal_refuses_appends(self, tmp_path):
        journal = WriteAheadJournal(str(tmp_path / "a.wal"), location="x")
        journal.close()
        with pytest.raises(WALError):
            journal.append("glt_row", 1.0, metric=0.0)


class TestTornTailFuzz:
    """Satellite: truncate at every byte offset of the last record."""

    def build(self, tmp_path):
        engine, journal = journaled_engine(tmp_path)
        run_workload(engine)
        journal.close()
        return engine, journal.path

    def test_every_truncation_recovers_without_raising(self, tmp_path):
        source, path = self.build(tmp_path)
        scan = scan_journal(path)
        assert len(scan.records) >= 4
        data = open(path, "rb").read()
        # Byte offset where the final record begins.
        import struct
        offset, last_start = 0, 0
        while offset < len(data):
            last_start = offset
            length = struct.unpack_from(">I", data, offset)[0]
            offset += 8 + length
        for cut in range(last_start, len(data) + 1):
            torn = str(tmp_path / "torn.wal")
            open(torn, "wb").write(data[:cut])
            fresh = make_engine(store=source.store)
            stats = recover(fresh, None, torn, now=10.0)
            expected = (len(scan.records) if cut == len(data)
                        else len(scan.records) - 1)
            assert stats.records_replayed == expected, f"cut={cut}"
            assert stats.torn_tail_truncated == (last_start < cut < len(data))
            # Structural invariants always hold on the recovered engine.
            violations = check_engine(fresh, check_links=False)
            assert violations == [], f"cut={cut}: {violations}"

    def test_reopening_truncates_torn_tail_and_appends(self, tmp_path):
        __, path = self.build(tmp_path)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:-3])  # tear the last record
        journal = WriteAheadJournal(path, location=str(HOME))
        assert journal.torn_tail_truncated
        before = scan_journal(path)
        assert not before.torn_tail  # open() truncated the damage
        lsn = journal.append("glt_row", 9.0, metric=9.0)
        journal.close()
        after = scan_journal(path)
        assert after.records[-1].lsn == lsn
        assert lsn > before.last_lsn  # torn record's LSN is not reused


class TestReplayIdempotent:
    """Satellite: replaying any journal prefix twice == once."""

    def test_prefix_twice_equals_once(self, tmp_path):
        source, journal = journaled_engine(tmp_path)
        run_workload(source)
        journal.close()
        records = scan_journal(journal.path).records
        assert len(records) >= 4
        for cut in range(len(records) + 1):
            prefix = records[:cut]
            once = make_engine(store=source.store)
            for record in prefix:
                apply_record(once, record)
            twice = make_engine(store=source.store)
            for record in prefix + prefix:
                apply_record(twice, record)
            assert engine_state(once) == engine_state(twice), f"cut={cut}"

    def test_full_replay_matches_live_engine(self, tmp_path):
        source, journal = journaled_engine(tmp_path)
        run_workload(source)
        journal.close()
        replayed = make_engine(store=source.store)
        recover(replayed, None, journal.path, now=10.0)
        live_docs, live_migrations, __ = engine_state(source)
        got_docs, got_migrations, __ = engine_state(replayed)
        assert got_migrations == live_migrations
        for name, (location, replicas, version, dirty) in live_docs.items():
            got_location, got_replicas, got_version, got_dirty = \
                got_docs[name]
            assert got_location == location
            assert got_replicas == replicas
            assert got_version >= version  # replay only moves forward
        assert_clean(replayed)


class TestCoopReplay:
    def test_replayed_validation_deadlines_match_live(self, tmp_path):
        """Regression: replay gives a pulled or seeded copy the jittered
        first validation deadline the live engine gave it, and a
        refreshed copy one never earlier than the live one."""
        site = dict(SITE, **{"/f.html": b"<html>gone soon</html>"})
        home = make_engine(site=site)
        for name in ("/index.html", "/d.html"):
            home.policy.force_migrate(name, COOP, 5.0)
        journal = WriteAheadJournal(str(tmp_path / "coop.wal"),
                                    location=str(COOP), fsync_policy="off")
        coop = DCWSEngine(COOP, ServerConfig(validation_interval=120.0),
                          MemoryStore(), peers=[HOME])
        coop.initialize(0.0)
        coop.attach_journal(journal)
        key = "/~migrate/home/8001{}".format
        pull = coop.handle_request(Request("GET", key("/index.html")), 6.0)
        coop.complete_pull(pull, home.handle_request(pull.request, 6.0)
                           .response, 6.0)
        for name in ("/d.html", "/e.html", "/f.html"):
            coop.seed_hosted(HOME, name, site[name], 0, 8.0)
        # /d.html and /f.html fall due first: one is refreshed, the
        # other answered 404 and dropped.
        home.update_document("/d.html", b"<html>d v2</html>")
        validations = [a for a in coop.tick(20.0) if a.kind == "validate"]
        assert [a.key for a in validations] == [key("/d.html"),
                                                key("/f.html")]
        coop.complete_action(validations[0], home.handle_request(
            validations[0].request, 20.0).response, 21.0)
        coop.complete_action(validations[1], Response(status=404), 21.0)
        journal.close()

        replayed = DCWSEngine(COOP, ServerConfig(validation_interval=120.0),
                              coop.store, peers=[HOME])
        recover(replayed, None, journal.path, now=30.0)
        live, got = engine_state(coop)[2], engine_state(replayed)[2]
        assert sorted(got) == sorted(live) == [
            key("/d.html"), key("/e.html"), key("/index.html")]
        for name in ("/index.html", "/e.html"):
            assert got[key(name)][-1] == live[key(name)][-1]
        assert live[key("/index.html")][-1] < 6.0
        assert got[key("/d.html")][-1] >= live[key("/d.html")][-1] == 20.0
        assert_clean(replayed)


class TestRecoveryRefusals:
    def test_foreign_journal_refused(self, tmp_path):
        path = str(tmp_path / "other.wal")
        with WriteAheadJournal(path, location="other:9999") as journal:
            journal.append("glt_row", 1.0, metric=1.0)
        engine = make_engine()
        with pytest.raises(WALError):
            recover(engine, None, path, now=2.0)

    def test_mispaired_epoch_skipped(self, tmp_path):
        journal_path = str(tmp_path / "home.wal")
        snapshot_path = str(tmp_path / "home.snapshot")
        engine = make_engine()
        save_snapshot(engine, snapshot_path, now=1.0, epoch=7, last_lsn=0)
        with WriteAheadJournal(journal_path, location=str(HOME),
                               epoch=3) as journal:
            journal.append("content_update", 2.0, name="/e.html",
                           version=9, size=3, dirty=False)
        fresh = make_engine()
        stats = recover(fresh, snapshot_path, journal_path, now=3.0)
        assert stats.records_skipped == 1
        assert stats.records_replayed == 0
        assert fresh.graph.get("/e.html").version == 0

    def test_corrupt_snapshot_degrades_to_journal_only(self, tmp_path):
        journal_path = str(tmp_path / "home.wal")
        snapshot_path = str(tmp_path / "home.snapshot")
        source, journal = journaled_engine(tmp_path)
        run_workload(source)
        journal.close()
        save_snapshot(source, snapshot_path, now=6.0, epoch=1,
                      last_lsn=journal.last_lsn)
        # Corrupt one byte of the snapshot payload.
        data = json.load(open(snapshot_path))
        data["taken_at"] = data["taken_at"] + 1.0  # checksum now stale
        json.dump(data, open(snapshot_path, "w"))
        fresh = make_engine(store=source.store)
        stats = recover(fresh, snapshot_path, journal_path, now=10.0)
        assert not stats.snapshot_loaded
        assert "checksum" in stats.snapshot_error
        assert stats.records_replayed == len(scan_journal(journal_path).records)
        # Journal-only replay still lands the durable facts.
        assert [r.name for r in fresh.graph.migrated_documents()] \
            == ["/d.html"]
        assert_clean(fresh)

    def test_snapshot_checksum_detects_corruption(self, tmp_path):
        snapshot_path = str(tmp_path / "home.snapshot")
        save_snapshot(make_engine(), snapshot_path, now=1.0)
        data = json.load(open(snapshot_path))
        data["location"] = "evil:6666"
        json.dump(data, open(snapshot_path, "w"))
        from repro.server.persistence import SnapshotError
        with pytest.raises(SnapshotError):
            load_snapshot(snapshot_path)


class TestCheckpoint:
    def test_checkpoint_truncates_and_bumps_epoch(self, tmp_path):
        snapshot_path = str(tmp_path / "home.snapshot")
        engine, journal = journaled_engine(tmp_path)
        run_workload(engine)
        pre_lsn = journal.last_lsn
        epoch = checkpoint(engine, snapshot_path, now=7.0)
        assert epoch == 1
        assert journal.size_bytes == 0
        assert journal.records_since_checkpoint == 0
        assert journal.last_lsn == pre_lsn  # LSNs never reused
        snapshot = load_snapshot(snapshot_path)
        assert snapshot["epoch"] == 1
        assert snapshot["last_lsn"] == pre_lsn
        assert engine.log.count("checkpoint") == 1

    def test_recovery_after_checkpoint_replays_only_the_tail(self, tmp_path):
        snapshot_path = str(tmp_path / "home.snapshot")
        engine, journal = journaled_engine(tmp_path)
        run_workload(engine)
        checkpoint(engine, snapshot_path, now=7.0)
        engine._clock = 8.0
        engine.update_document("/index.html",
                               b'<html><a href="d.html">D</a>'
                               b'<a href="e.html">E</a>!</html>')
        tail_records = journal.records_since_checkpoint
        journal.close()
        fresh = make_engine(store=engine.store)
        stats = recover(fresh, snapshot_path, journal.path, now=10.0)
        assert stats.snapshot_loaded
        assert stats.records_replayed == tail_records
        assert engine_state(fresh)[1] == engine_state(engine)[1]
        assert fresh.graph.get("/index.html").version == \
            engine.graph.get("/index.html").version

    def test_empty_journal_restart_resumes_epoch_and_lsn(self, tmp_path):
        """Clean shutdown right after a checkpoint must not reset the
        epoch/LSN — otherwise the next incarnation's records would be
        filtered out by the snapshot's position stamp."""
        snapshot_path = str(tmp_path / "home.snapshot")
        engine, journal = journaled_engine(tmp_path)
        run_workload(engine)
        checkpoint(engine, snapshot_path, now=7.0)
        journal.close()

        second = make_engine(store=engine.store)
        stats = recover(second, snapshot_path, journal.path, now=10.0)
        reopened = WriteAheadJournal(journal.path, location=str(HOME),
                                     fsync_policy="off",
                                     epoch=stats.resume_epoch,
                                     start_lsn=stats.resume_lsn)
        assert reopened.epoch == 1
        assert reopened.last_lsn == journal.last_lsn
        second.attach_journal(reopened)
        second._clock = 11.0
        second.update_document("/e.html", b"<html>leaf v3</html>")
        reopened.close()

        third = make_engine(store=engine.store)
        final = recover(third, snapshot_path, journal.path, now=20.0)
        assert final.records_replayed >= 1
        assert final.records_skipped == 0
        assert third.graph.get("/e.html").version == \
            second.graph.get("/e.html").version


class TestFsyncPolicies:
    def test_always_fsyncs_each_acknowledged_append(self, tmp_path):
        journal = WriteAheadJournal(str(tmp_path / "a.wal"), location="x",
                                    fsync_policy="always")
        journal.append("glt_row", 1.0, metric=1.0)
        journal.append("glt_row", 2.0, metric=2.0)
        assert journal.syncs >= 2
        journal.close()

    def test_interval_defers_to_maybe_sync(self, tmp_path):
        journal = WriteAheadJournal(str(tmp_path / "a.wal"), location="x",
                                    fsync_policy="interval",
                                    fsync_interval=0.05)
        journal.append("glt_row", 1.0, metric=1.0)
        assert journal.syncs == 0
        assert journal.maybe_sync(now=100.0)      # overdue: fsyncs
        assert journal.syncs == 1
        assert not journal.maybe_sync(now=100.01)  # within interval
        assert not journal.maybe_sync(now=200.0)   # nothing new to sync
        journal.close()

    def test_off_never_fsyncs_on_append(self, tmp_path):
        journal = WriteAheadJournal(str(tmp_path / "a.wal"), location="x",
                                    fsync_policy="off")
        journal.append("glt_row", 1.0, metric=1.0)
        assert not journal.maybe_sync(now=100.0)
        assert journal.syncs == 0
        journal.close()

    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(WALError):
            WriteAheadJournal(str(tmp_path / "a.wal"), location="x",
                              fsync_policy="sometimes")


class TestJournalFaults:
    def test_torn_append_recovers_cleanly(self, tmp_path):
        plan = FaultPlan([FaultRule(kind="torn_write", skip_first=2)])
        path = str(tmp_path / "a.wal")
        journal = WriteAheadJournal(path, location="x", faults=plan)
        journal.append("glt_row", 1.0, metric=1.0)
        journal.append("glt_row", 2.0, metric=2.0)
        with pytest.raises(InjectedDiskError):
            journal.append("glt_row", 3.0, metric=3.0)
        journal.close()
        scan = scan_journal(path)
        assert [r.lsn for r in scan.records] == [1, 2]
        assert scan.torn_tail
        reopened = WriteAheadJournal(path, location="x")
        assert reopened.torn_tail_truncated
        assert reopened.append("glt_row", 4.0, metric=4.0) == 3
        reopened.close()

    def test_disk_write_error_fails_append(self, tmp_path):
        plan = FaultPlan([FaultRule(kind="disk_write_error")])
        journal = WriteAheadJournal(str(tmp_path / "a.wal"), location="x",
                                    faults=plan)
        with pytest.raises(InjectedDiskError):
            journal.append("glt_row", 1.0, metric=1.0)
        journal.close()
        assert scan_journal(journal.path).records == []


class TestDiskStoreCrashAtomicity:
    """Satellite: DiskStore.put is temp + fsync + rename + dir fsync."""

    def test_torn_put_preserves_old_bytes(self, tmp_path):
        store = DiskStore(str(tmp_path / "docs"))
        store.put("/a.html", b"version one")
        plan = FaultPlan([FaultRule(kind="torn_write", name="/a.html")])
        store.faults = plan
        with pytest.raises(InjectedDiskError):
            store.put("/a.html", b"version two, longer")
        # The visible file still holds the complete old version …
        assert store.get("/a.html") == b"version one"
        # … and the torn temp file is invisible to listings.
        assert store.names() == ["/a.html"]

    def test_torn_first_put_leaves_no_document(self, tmp_path):
        store = DiskStore(str(tmp_path / "docs"))
        plan = FaultPlan([FaultRule(kind="torn_write", name="/a.html")])
        store.faults = plan
        with pytest.raises(InjectedDiskError):
            store.put("/a.html", b"never lands")
        assert "/a.html" not in store
        with pytest.raises(DocumentNotFound):
            store.get("/a.html")

    def test_write_error_put_preserves_old_bytes(self, tmp_path):
        store = DiskStore(str(tmp_path / "docs"))
        store.put("/a.html", b"version one")
        plan = FaultPlan([FaultRule(kind="disk_write_error",
                                    name="/a.html")])
        store.faults = plan
        with pytest.raises(InjectedDiskError):
            store.put("/a.html", b"version two")
        assert store.get("/a.html") == b"version one"


class TestFsck:
    def coop_with_copy(self):
        coop = make_engine(location=COOP, site={})
        home = make_engine()
        home.policy.force_migrate("/d.html", COOP, 0.5)
        pull = coop.handle_request(
            Request("GET", "/~migrate/home/8001/d.html"), 1.0)
        pull.request.headers.set(PURPOSE_HEADER, "migration-pull")
        upstream = home.handle_request(pull.request, 1.1)
        coop.complete_pull(pull, upstream.response, 1.2)
        return coop

    def test_clean_engines_pass(self):
        assert check_engine(make_engine()) == []
        assert check_engine(self.coop_with_copy()) == []
        busy = make_engine()
        busy.policy.force_migrate("/d.html", COOP, now=1.0)
        assert check_engine(busy) == []

    def test_fetched_hosted_entry_without_bytes_detected(self):
        coop = self.coop_with_copy()
        key = "/~migrate/home/8001/d.html"
        coop.store.delete(key)
        assert any("no bytes" in v for v in check_engine(coop))

    def test_unfetched_entry_with_version_detected(self):
        coop = self.coop_with_copy()
        key = "/~migrate/home/8001/d.html"
        coop.hosted[key].fetched = False
        assert any("carries version" in v for v in check_engine(coop))

    def test_stale_rewritten_link_detected(self):
        engine = make_engine()
        # A clean document whose on-disk bytes link to a co-op that the
        # graph does not list as /d.html's location: a forgotten revoke.
        engine.store.put(
            "/index.html",
            b'<html><a href="http://coop:8002/~migrate/home/8001/d.html">'
            b'D</a></html>')
        engine.graph.get("/index.html").dirty = False
        violations = check_engine(engine)
        assert any("stale rewritten link" in v for v in violations)
        with pytest.raises(FsckError):
            assert_clean(engine)

    def test_entry_point_migrated_detected(self):
        engine = make_engine()
        engine.graph.get("/index.html").location = COOP
        assert any("entry point" in v for v in check_engine(engine))


class TestDurabilityObservability:
    def test_cluster_sample_reports_wal_posture(self, tmp_path):
        from repro.server.stats import sample_cluster

        engine, journal = journaled_engine(tmp_path)
        run_workload(engine)
        sample = sample_cluster(10.0, [engine])
        assert sample.wal_bytes == journal.size_bytes > 0
        assert sample.wal_last_lsn == journal.last_lsn
        assert sample.wal_records_since_checkpoint == \
            journal.records_since_checkpoint
        journal.close()

    def test_durability_endpoint_renders(self, tmp_path):
        engine, journal = journaled_engine(tmp_path)
        run_workload(engine)
        reply = engine.handle_request(Request("GET", "/~dcws/durability"),
                                      6.0)
        body = reply.response.body.decode()
        assert "fsync policy        off" in body
        assert f"last lsn            {journal.last_lsn}" in body
        assert "recovery: none this incarnation" in body
        journal.close()

    def test_durability_endpoint_after_recovery(self, tmp_path):
        source, journal = journaled_engine(tmp_path)
        run_workload(source)
        journal.close()
        fresh = make_engine(store=source.store)
        recover(fresh, None, journal.path, now=10.0)
        reply = fresh.handle_request(Request("GET", "/~dcws/durability"),
                                     11.0)
        body = reply.response.body.decode()
        assert "recovery (last):" in body
        assert "records replayed" in body
        assert "recoveries  1" in body
