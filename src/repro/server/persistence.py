"""Engine state persistence: survive a server restart — or a crash.

The prototype recomputes the Local Document Graph from disk at startup
(paper section 3.3), but a restart would forget *migration state* — which
documents live on which co-ops — and every hyperlink already rewritten on
disk would point at co-ops the restarted server no longer knows about.
This module saves and restores the mutable half of an engine's state:

- per-document location, replicas, version, hits and dirty bit;
- the migration policy's bookkeeping (who hosts what, since when);
- hosted foreign documents (the co-op role), with validation deadlines;
- the last known global load table.

The snapshot format is a single JSON document with an embedded CRC32
checksum, written crash-atomically (temp file, fsync, rename, parent-dir
fsync).  Document *content* is not snapshotted — it already lives in the
store.

Durability beyond the snapshot interval comes from the write-ahead
journal (:mod:`repro.server.wal`):

- :func:`recover` = snapshot + replay.  Load the newest snapshot
  (verifying its checksum; a corrupt snapshot degrades to journal-only
  replay rather than refusing to start), then replay the journal tail
  past the snapshot's LSN.  Records from a different server location are
  refused outright; records from a different checkpoint epoch (a journal
  mispaired with a snapshot) are skipped and counted.
- :func:`checkpoint` writes a snapshot stamped with the journal's
  position and the *next* epoch, then truncates the journal — callers
  hold the engine lock across both so no append can land in between.

Replay is a plain state install (journal records carry resulting
locations and versions, not operations), which makes it idempotent:
replaying a prefix twice leaves the same engine as replaying it once —
the property ``tests/test_wal.py`` fuzzes.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.core.document import Location
from repro.errors import ReproError
from repro.http.piggyback import LoadReport
from repro.server.engine import DCWSEngine, HostedDocument
from repro.server.filestore import fsync_directory, guess_content_type
from repro.server.wal import JournalRecord, WALError, scan_journal

SNAPSHOT_VERSION = 2
_CHECKSUM_KEY = "checksum"


class SnapshotError(ReproError):
    """A snapshot could not be written, read, or applied."""


def _payload_checksum(data: Dict[str, Any]) -> str:
    """CRC32 of the canonical JSON encoding, checksum field excluded."""
    payload = {k: v for k, v in data.items() if k != _CHECKSUM_KEY}
    canonical = json.dumps(payload, sort_keys=True,
                           separators=(",", ":")).encode("utf-8")
    return f"crc32:{zlib.crc32(canonical):08x}"


def snapshot_engine(engine: DCWSEngine, now: float, *,
                    epoch: int = 0, last_lsn: int = 0) -> Dict[str, Any]:
    """Capture the engine's mutable state as a JSON-serializable dict.

    ``epoch``/``last_lsn`` stamp the journal position this snapshot
    covers, so recovery knows which journal tail still applies.
    """
    documents = {}
    for record in engine.graph.documents():
        documents[record.name] = {
            "location": str(record.location),
            "replicas": sorted(str(r) for r in record.replicas),
            "version": record.version,
            "hits": record.hits,
            "dirty": record.dirty,
            "digest": record.digest,
        }
    hosted = {}
    for key, entry in engine.hosted.items():
        if not entry.fetched and not engine.integrity.is_quarantined(key):
            # Unfetched entries re-register lazily — except quarantined
            # ones, which must survive so the home notification (and the
            # quarantine itself) is not forgotten by a restart.
            continue
        hosted[key] = {
            "home": str(entry.home),
            "original": entry.original,
            "size": entry.size,
            "hits": entry.hits,
            "version": entry.version,
            "content_type": entry.content_type,
            "digest": entry.digest,
            "last_validated": engine.validation.last_serviced(key),
        }
    migrations = {}
    for name in engine.policy.migrated_names():
        restored = engine.policy.restored(name)
        if restored is not None:
            entry = {"coop": str(restored[0]), "migrated_at": restored[1]}
            replicas = engine.policy.restored_replicas(name)
            if replicas:  # absent key == no replicas (seed-format compatible)
                entry["replicas"] = replicas
            migrations[name] = entry
    glt = [{"server": row.server, "metric": row.metric,
            "ts": row.timestamp}
           for row in engine.glt.snapshot()
           if row.timestamp != float("-inf")]
    data = {
        "snapshot_version": SNAPSHOT_VERSION,
        "location": str(engine.location),
        "taken_at": now,
        "epoch": epoch,
        "last_lsn": last_lsn,
        "documents": documents,
        "hosted": hosted,
        "migrations": migrations,
        "replication": engine.replication.snapshot()
        if engine.replication is not None else [],
        "glt": glt,
        # Non-alive membership rows only; absent peers restore as alive.
        "membership": engine.membership.snapshot(),
        # Active quarantine records (content-integrity subsystem).
        "integrity": engine.integrity.snapshot(),
    }
    data[_CHECKSUM_KEY] = _payload_checksum(data)
    return data


def save_snapshot(engine: DCWSEngine, path: str, now: float, *,
                  epoch: int = 0, last_lsn: int = 0) -> None:
    """Write the snapshot crash-atomically.

    Temp file in the target directory, fsync, ``os.replace``, parent
    directory fsync — the same discipline as :meth:`DiskStore.put`.
    Without the fsyncs the "atomic" rename could land an empty file
    after power loss, which is precisely the failure this snapshot
    exists to survive.
    """
    data = json.dumps(snapshot_engine(engine, now, epoch=epoch,
                                      last_lsn=last_lsn),
                      indent=1, sort_keys=True)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    descriptor, temp_path = tempfile.mkstemp(dir=directory,
                                             suffix=".snapshot.tmp")
    try:
        with os.fdopen(descriptor, "w") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
        fsync_directory(directory)
    except OSError as exc:
        try:
            os.remove(temp_path)
        except OSError:
            pass
        raise SnapshotError(f"cannot write snapshot {path}: {exc}") from exc


def load_snapshot(path: str) -> Dict[str, Any]:
    """Read, checksum-verify, and structurally validate a snapshot."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise SnapshotError(f"unsupported snapshot format in {path}")
    version = data.get("snapshot_version")
    if version not in (1, SNAPSHOT_VERSION):
        raise SnapshotError(f"unsupported snapshot format in {path}")
    if version >= 2:
        stored = data.get(_CHECKSUM_KEY)
        computed = _payload_checksum(data)
        if stored != computed:
            raise SnapshotError(
                f"snapshot checksum mismatch in {path}: "
                f"stored {stored!r}, computed {computed!r}")
    return data


def restore_engine(engine: DCWSEngine, snapshot: Dict[str, Any],
                   now: float) -> int:
    """Apply *snapshot* to a freshly initialized engine.

    The engine must already be initialized (its LDG built from the
    store).  Documents present in the snapshot but no longer on disk are
    skipped; new documents keep their fresh state.  Hosted entries whose
    bytes are missing from the store are re-registered *unfetched* — the
    next request lazily re-pulls from the home instead of 404ing a
    document the home still believes migrated here.  Returns the number
    of restored document records.
    """
    if snapshot.get("location") != str(engine.location):
        raise SnapshotError(
            f"snapshot belongs to {snapshot.get('location')}, "
            f"not {engine.location}")
    restored = 0
    for name, saved in snapshot.get("documents", {}).items():
        record = engine.graph.find(name)
        if record is None:
            continue
        record.location = Location.parse(saved["location"])
        record.replicas = {Location.parse(r) for r in saved["replicas"]}
        record.version = int(saved["version"])
        record.hits = int(saved["hits"])
        record.dirty = bool(saved["dirty"])
        # The snapshot carries the digest of the *authored* bytes; when
        # present it overrides the one initialize() computed from disk,
        # so rot that happened while the server was down is caught by
        # the first scrub instead of being blessed at startup.
        saved_digest = str(saved.get("digest", ""))
        if saved_digest:
            record.digest = saved_digest
        restored += 1
    for name, saved in snapshot.get("migrations", {}).items():
        if name not in engine.graph:
            continue
        if isinstance(saved, str):  # version-1 snapshots: target only
            coop, migrated_at = Location.parse(saved), now
            replicas: Dict[str, float] = {}
        else:
            coop = Location.parse(saved["coop"])
            migrated_at = float(saved.get("migrated_at", now))
            replicas = {str(k): float(v)
                        for k, v in saved.get("replicas", {}).items()}
        engine.policy.restore(name, coop, migrated_at, replicas=replicas)
    for key, saved in snapshot.get("hosted", {}).items():
        fetched = key in engine.store
        entry = HostedDocument(
            key=key,
            home=Location.parse(saved["home"]),
            original=saved["original"],
            fetched=fetched,
            size=int(saved["size"]) if fetched else 0,
            hits=int(saved["hits"]),
            version=str(saved["version"]) if fetched else "",
            digest=str(saved.get("digest", "")) if fetched else "",
            content_type=saved.get("content_type")
            or guess_content_type(saved["original"]))
        engine.hosted[key] = entry
        if fetched:
            last = saved.get("last_validated")
            if last is not None:
                # Keep the real deadline: a document overdue at crash
                # time validates immediately, not one interval late.
                engine.validation.restore(key, float(last))
            else:
                engine.validation.register(key, now)
    engine.glt.merge(LoadReport(server=row["server"],
                                metric=float(row["metric"]),
                                timestamp=float(row["ts"]))
                     for row in snapshot.get("glt", []))
    if engine.replication is not None:
        engine.replication.restore(snapshot.get("replication", []))
    for row in snapshot.get("membership", []):
        _install_membership(engine, str(row.get("peer", "")),
                            str(row.get("state", "")), now)
    engine.integrity.restore(snapshot.get("integrity", []))
    for entry in snapshot.get("integrity", []):
        if entry.get("kind") == "home":
            # A restored home quarantine must not regenerate from a
            # template initialize() built out of the (possibly corrupt)
            # disk bytes; the quarantine then holds until re-authored.
            engine._templates.pop(str(entry.get("key", "")), None)
    return restored


def _install_membership(engine: DCWSEngine, peer: str, state: str,
                        now: float) -> None:
    """Install one membership state (snapshot restore / journal replay).

    Idempotent like every other resulting-state record.  Dead and
    forgotten peers are also removed from the GLT — the constructor
    re-registers every configured peer, so without this a recovered
    engine would ping a peer it had already declared dead — and alive
    peers are re-registered so the pinger resumes after a replayed
    rejoin.
    """
    if not peer or not state:
        return
    engine.membership.install(peer, state, now)
    try:
        location = Location.parse(peer)
    except ValueError:
        return
    if state in ("dead", "forgotten"):
        engine.glt.remove(location)
    elif engine.glt.get(location) is None:
        engine.glt.register(location)


def restore_from_file(engine: DCWSEngine, path: str, now: float) -> int:
    """Convenience wrapper: load + restore; 0 restored if file is absent."""
    if not os.path.exists(path):
        return 0
    return restore_engine(engine, load_snapshot(path), now)


# ----------------------------------------------------------------------
# Journal replay (snapshot + tail = recovered engine)
# ----------------------------------------------------------------------


@dataclass
class RecoveryStats:
    """What one :func:`recover` run did, for operators and fsck."""

    recovered_at: float = 0.0
    snapshot_loaded: bool = False
    snapshot_error: str = ""
    documents_restored: int = 0
    records_replayed: int = 0
    records_skipped: int = 0       # wrong-epoch records (mispaired journal)
    torn_tail_truncated: bool = False
    last_lsn: int = 0
    # Where a reopened journal must resume so the snapshot's LSN filter
    # keeps working: the snapshot's epoch and the highest LSN consumed
    # anywhere (snapshot stamp or surviving journal records).
    resume_epoch: int = 0
    resume_lsn: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "recovered_at": self.recovered_at,
            "snapshot_loaded": self.snapshot_loaded,
            "snapshot_error": self.snapshot_error,
            "documents_restored": self.documents_restored,
            "records_replayed": self.records_replayed,
            "records_skipped": self.records_skipped,
            "torn_tail_truncated": self.torn_tail_truncated,
            "last_lsn": self.last_lsn,
            "resume_epoch": self.resume_epoch,
            "resume_lsn": self.resume_lsn,
        }


def apply_record(engine: DCWSEngine, record: JournalRecord) -> None:
    """Install one journal record's resulting state into *engine*.

    Versions only ever move forward (``max``), locations and flags are
    set outright — so applying any prefix of the journal twice equals
    applying it once, and a record for a document that no longer exists
    on disk is a no-op rather than an error.
    """
    fields = record.fields
    if record.kind in ("migrate", "remigrate", "revoke", "replicate",
                       "replica_drop", "repair"):
        name = str(fields["name"])
        location = Location.parse(str(fields["location"]))
        replicas = [str(r) for r in fields.get("replicas", [])]
        document = engine.graph.find(name)
        if document is not None:
            document.location = location
            document.replicas = {Location.parse(r) for r in replicas}
            document.version = max(document.version,
                                   int(fields.get("version", 0)))
            for touched_name, touched_version in fields.get("dirtied", []):
                touched = engine.graph.find(str(touched_name))
                if touched is not None:
                    touched.version = max(touched.version,
                                          int(touched_version))
                    touched.dirty = True
        if location == engine.location and not replicas:
            engine.policy.discard(name)
        else:
            migrated_at = fields.get("migrated_at")
            engine.policy.restore(
                name, location,
                float(migrated_at) if migrated_at is not None
                else record.time,
                replicas={r: record.time for r in replicas})
        return
    if record.kind == "pull":
        key = str(fields["key"])
        original = str(fields.get("original", key))
        fetched = key in engine.store
        entry = HostedDocument(
            key=key, home=Location.parse(str(fields["home"])),
            original=original, fetched=fetched,
            size=int(fields.get("size", 0)) if fetched else 0,
            # Version intentionally dropped even when bytes exist: the
            # journal is written before the byte write, so the on-disk
            # copy might be an older complete pull.  A blank version
            # makes the first validation an unconditional refresh
            # instead of a 304 that would pin a stale copy forever.
            # The digest is dropped for the same reason: claiming the
            # journaled digest for bytes that may belong to an older
            # pull would quarantine a legitimately stale copy.
            version="",
            digest="",
            content_type=str(fields.get("content_type", ""))
            or guess_content_type(original))
        existing = engine.hosted.get(key)
        if existing is not None:
            entry.hits = existing.hits
            entry.hits_reported = existing.hits_reported
        engine.hosted[key] = entry
        if fetched:
            engine.validation.restore(key, record.time)
        return
    if record.kind == "hosted_dropped":
        key = str(fields["key"])
        engine.hosted.pop(key, None)
        engine.validation.forget(key)
        engine.response_cache.invalidate(key)
        engine.store.delete(key)
        engine.integrity.clear(key)
        return
    if record.kind == "validate_refreshed":
        key = str(fields["key"])
        entry = engine.hosted.get(key)
        if entry is not None:
            if key in engine.store:
                entry.size = int(fields.get("size", entry.size))
                entry.version = ""  # same staleness argument as "pull"
                entry.digest = ""
            else:
                entry.fetched = False
                entry.version = ""
                entry.digest = ""
                entry.size = 0
            engine.validation.restore(key, record.time)
        return
    if record.kind == "content_update":
        document = engine.graph.find(str(fields["name"]))
        if document is not None:
            document.version = max(document.version,
                                   int(fields.get("version", 0)))
            if fields.get("dirty"):
                document.dirty = True
        return
    if record.kind == "regenerate":
        document = engine.graph.find(str(fields["name"]))
        if document is not None and \
                document.version == int(fields.get("version", -1)):
            document.dirty = False
            # Journaled *after* the byte write, so the digest names the
            # bytes that are (or were) on disk: installing it lets the
            # scrub catch rot that happened while the server was down.
            # ("content_update" replay deliberately does NOT install its
            # digest — that record precedes the write, and the crash may
            # have left the previous, legitimate bytes on disk.)
            digest = str(fields.get("digest", ""))
            if digest:
                document.digest = digest
        return
    if record.kind == "glt_row":
        engine.glt.update_own(float(fields.get("metric", 0.0)), record.time)
        return
    if record.kind == "quarantine":
        key = str(fields["key"])
        copy_kind = str(fields.get("copy", "home"))
        engine.integrity.quarantine(
            key, copy_kind, str(fields.get("reason", "scrub")),
            str(fields.get("expected", "")), str(fields.get("actual", "")),
            record.time)
        if copy_kind == "hosted":
            entry = engine.hosted.get(key)
            if entry is not None:
                entry.fetched = False
                entry.version = ""
                entry.digest = ""
                entry.size = 0
            engine.store.delete(key)
        else:
            # Never regenerate from a template built out of the corrupt
            # disk bytes at initialize time.
            engine._templates.pop(key, None)
            document = engine.graph.find(key)
            if document is not None:
                document.version = max(document.version,
                                       int(fields.get("version", 0)))
        engine.response_cache.invalidate(key)
        return
    if record.kind == "quarantine_cleared":
        engine.integrity.clear(str(fields["key"]))
        return
    if record.kind == "membership":
        # Membership transitions journal the *resulting* state, so any
        # replay prefix lands on the same table: a peer declared dead,
        # rediscovered, and re-declared replays to its final state.
        _install_membership(engine, str(fields.get("peer", "")),
                            str(fields.get("state", "")), record.time)
        return
    # Unknown kinds (a newer writer) are skipped: replay applies what it
    # understands and fsck judges the result.


def recover(engine: DCWSEngine, snapshot_path: Optional[str],
            journal_path: Optional[str], now: float) -> RecoveryStats:
    """Snapshot + journal-tail replay; the one true crash-restart path.

    Initializes the engine from its store, restores the newest snapshot
    if one loads cleanly (a corrupt or missing snapshot degrades to
    journal-only replay), then replays every journal record past the
    snapshot's LSN.  Raises :class:`WALError` only for a journal that
    belongs to a *different server* — everything else recovers.
    """
    stats = RecoveryStats(recovered_at=now)
    engine.initialize(now)
    snapshot: Optional[Dict[str, Any]] = None
    if snapshot_path and os.path.exists(snapshot_path):
        try:
            snapshot = load_snapshot(snapshot_path)
        except SnapshotError as exc:
            stats.snapshot_error = str(exc)
    after_lsn = 0
    expected_epoch: Optional[int] = None
    if snapshot is not None:
        stats.documents_restored = restore_engine(engine, snapshot, now)
        stats.snapshot_loaded = True
        after_lsn = int(snapshot.get("last_lsn", 0))
        expected_epoch = int(snapshot.get("epoch", 0))
    stats.resume_epoch = expected_epoch or 0
    stats.resume_lsn = after_lsn
    if journal_path:
        scan = scan_journal(journal_path)
        stats.torn_tail_truncated = scan.torn_tail
        stats.resume_lsn = max(after_lsn, scan.last_lsn)
        if expected_epoch is None:
            stats.resume_epoch = max((r.epoch for r in scan.records),
                                     default=0)
        for record in scan.records:
            if record.lsn <= after_lsn:
                continue
            if record.location and record.location != str(engine.location):
                raise WALError(
                    f"journal {journal_path} belongs to {record.location}, "
                    f"not {engine.location}")
            if expected_epoch is not None and record.epoch != expected_epoch:
                stats.records_skipped += 1
                continue
            apply_record(engine, record)
            stats.records_replayed += 1
            stats.last_lsn = record.lsn
    engine.recovery = stats
    engine.log.record(now, "recover",
                      replayed=stats.records_replayed,
                      skipped=stats.records_skipped,
                      snapshot=int(stats.snapshot_loaded),
                      torn=int(stats.torn_tail_truncated))
    return stats


def checkpoint(engine: DCWSEngine, snapshot_path: str, now: float) -> int:
    """Durable snapshot, then truncate the journal; returns the epoch.

    The caller must hold the engine lock (the host's serialization of
    engine access) so no journal append can slip between the snapshot
    and the truncation.  A crash between the two is safe: the old-epoch
    records left in the journal all have ``lsn <= last_lsn`` and are
    filtered out by the snapshot's LSN at the next recovery.
    """
    journal = engine.journal
    if journal is None:
        save_snapshot(engine, snapshot_path, now)
        return 0
    epoch = journal.epoch + 1
    save_snapshot(engine, snapshot_path, now, epoch=epoch,
                  last_lsn=journal.last_lsn)
    journal.start_epoch(epoch, now)
    engine.log.record(now, "checkpoint", epoch=epoch,
                      lsn=journal.last_lsn)
    return epoch
