"""Engine state persistence: survive a server restart — or a crash.

The prototype recomputes the Local Document Graph from disk at startup
(paper section 3.3), but a restart would forget *migration state* — which
documents live on which co-ops — and every hyperlink already rewritten on
disk would point at co-ops the restarted server no longer knows about.
This module saves and restores the mutable half of an engine's state:

- per-document location, replicas, migration time, version, hits and
  dirty bit — the LDG record is the one holder ledger;
- hosted foreign documents (the co-op role), with validation deadlines
  and how many of their hits the home has credited;
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
the property ``tests/test_wal.py`` fuzzes.  There is one write path: a
record replays through the install method the live engine ran when it
wrote the record (:data:`_INSTALLS`), and a snapshot restores through
the same methods.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.core.document import Location
from repro.errors import ReproError
from repro.http.piggyback import LoadReport
from repro.server.engine import DCWSEngine
from repro.server.filestore import fsync_directory
from repro.server.wal import JournalRecord, WALError, scan_journal

# Version 3 keeps ``migrated_at`` on each document entry; versions 1 and
# 2 kept it in a separate ``migrations`` section, still read on restore.
SNAPSHOT_VERSION = 3
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
        if record.migrated_at is not None:
            documents[record.name]["migrated_at"] = record.migrated_at
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
            "hits_reported": entry.hits_reported,
            "version": entry.version,
            "content_type": entry.content_type,
            "digest": entry.digest,
            "last_validated": entry.validated_at,
        }
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
    if version not in (1, 2, SNAPSHOT_VERSION):
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
    skipped; new documents keep their fresh state.  Each entry goes in
    through the engine's install methods, as a replayed record does
    (:meth:`DCWSEngine._restore_document`,
    :meth:`DCWSEngine._restore_hosted`).  Returns the number of restored
    document records.
    """
    if snapshot.get("location") != str(engine.location):
        raise SnapshotError(
            f"snapshot belongs to {snapshot.get('location')}, "
            f"not {engine.location}")
    restored = 0
    # Versions 1 and 2 kept the migration time apart: {name: {"coop",
    # "migrated_at", ...}} in version 2, {name: "host:port"} in version 1
    # (time unknown: the restart's).
    migrations = snapshot.get("migrations", {})
    for name, saved in snapshot.get("documents", {}).items():
        migrated_at = saved.get("migrated_at")
        if migrated_at is None and isinstance(migrations.get(name), dict):
            migrated_at = migrations[name].get("migrated_at")
        restored += engine._restore_document(
            name, Location.parse(saved["location"]),
            [Location.parse(r) for r in saved["replicas"]],
            float(now if migrated_at is None else migrated_at),
            int(saved["version"]), bool(saved["dirty"]), int(saved["hits"]),
            str(saved.get("digest", "")))
    for key, saved in snapshot.get("hosted", {}).items():
        last = saved.get("last_validated")
        engine._restore_hosted(
            key, Location.parse(saved["home"]), saved["original"],
            saved.get("content_type") or "", int(saved["size"]),
            str(saved["version"]), str(saved.get("digest", "")),
            int(saved["hits"]),
            # Older snapshots did not keep it: count every hit reported
            # rather than report a credited one twice.
            int(saved.get("hits_reported", saved["hits"])),
            now if last is None else float(last))
    engine.glt.merge(LoadReport(server=row["server"],
                                metric=float(row["metric"]),
                                timestamp=float(row["ts"]))
                     for row in snapshot.get("glt", []))
    for row in snapshot.get("membership", []):
        engine._install_membership(str(row.get("peer", "")),
                                   str(row.get("state", "")), now)
    engine.integrity.restore(snapshot.get("integrity", []))
    for entry in snapshot.get("integrity", []):
        if entry.get("kind") == "home":
            # A restored home quarantine must not regenerate from a
            # template initialize() built out of the (possibly corrupt)
            # disk bytes; the quarantine then holds until re-authored.
            engine._templates.pop(str(entry.get("key", "")), None)
    return restored


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


def _relocated(engine: DCWSEngine, when: float, fields: Dict) -> None:
    migrated_at = fields.get("migrated_at")
    engine.graph.install_holders(
        str(fields["name"]), Location.parse(str(fields["location"])),
        [Location.parse(str(r)) for r in fields.get("replicas", [])],
        float(when if migrated_at is None else migrated_at),
        int(fields.get("version", 0)),
        dirtied=[(str(name), int(version))
                 for name, version in fields.get("dirtied", [])])


def _pulled(engine: DCWSEngine, when: float, fields: Dict) -> None:
    key = str(fields["key"])
    engine._install_pulled(
        engine._hosted_entry(key, Location.parse(str(fields["home"])),
                             str(fields.get("original", key))),
        str(fields.get("content_type", "")), None,
        int(fields.get("size", 0)), str(fields.get("version", "")),
        str(fields.get("digest", "")), when, replayed=True)


def _refreshed(engine: DCWSEngine, when: float, fields: Dict) -> None:
    hosted = engine.hosted.get(str(fields["key"]))
    if hosted is not None:
        # When the validation was sent is not journaled: a replayed
        # refresh counts as validated at its own, later, time.
        engine._install_copy(
            hosted, None, int(fields.get("size", 0)),
            str(fields.get("version", "")), str(fields.get("digest", "")),
            validated_at=when, replayed=True)


def _updated(engine: DCWSEngine, when: float, fields: Dict) -> None:
    record = engine.graph.find(str(fields["name"]))
    if record is not None:
        engine._install_update(
            record, engine.store.get(record.name),
            int(fields.get("version", 0)), str(fields.get("digest", "")),
            bool(fields.get("dirty")), replayed=True)


def _regenerated(engine: DCWSEngine, when: float, fields: Dict) -> None:
    record = engine.graph.find(str(fields["name"]))
    if record is not None:
        engine._commit_bytes(record, int(fields.get("version", -1)),
                             int(fields.get("size", record.size)),
                             str(fields.get("digest", "")))


def _quarantined(engine: DCWSEngine, when: float, fields: Dict) -> None:
    engine._install_quarantine(
        str(fields["key"]), str(fields.get("copy", "home")),
        str(fields.get("reason", "scrub")), str(fields.get("expected", "")),
        str(fields.get("actual", "")), when,
        version=int(fields.get("version", 0)), replayed=True)


#: Each journal record kind and the install method that replays it: the
#: one the live engine ran when it wrote the record.
_INSTALLS: Dict[str, Callable[[DCWSEngine, float, Dict], None]] = {
    **dict.fromkeys(("migrate", "remigrate", "revoke", "replicate",
                     "replica_drop", "repair"), _relocated),
    "pull": _pulled,
    "validate_refreshed": _refreshed,
    "hosted_dropped": lambda engine, when, fields:
        engine._drop_hosted(str(fields["key"])),
    "content_update": _updated,
    "regenerate": _regenerated,
    "glt_row": lambda engine, when, fields:
        engine.glt.update_own(float(fields.get("metric", 0.0)), when),
    "quarantine": _quarantined,
    "quarantine_cleared": lambda engine, when, fields:
        engine._clear_quarantine(str(fields["key"])),
    "membership": lambda engine, when, fields: engine._install_membership(
        str(fields.get("peer", "")), str(fields.get("state", "")), when),
}


def apply_record(engine: DCWSEngine, record: JournalRecord) -> None:
    """Install one journal record's resulting state into *engine*, which
    has no journal attached (the install methods journal as they go).

    Versions only ever move forward (``max``), locations and flags are
    set outright — so applying any prefix of the journal twice equals
    applying it once, and a record for a document that no longer exists
    on disk is a no-op rather than an error.  Unknown kinds (a newer
    writer) are skipped: replay applies what it understands and fsck
    judges the result.
    """
    install = _INSTALLS.get(record.kind)
    if install is not None:
        engine._clock = record.time
        install(engine, record.time, record.fields)


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
