"""The Local Document Graph (paper section 3.3, Figure 2).

Each server maintains one LDG for the documents it is the *home* of: a
hash table from document name to its
``(Name, Location, Size, Hits, LinkTo, LinkFrom, Dirty)`` tuple.  The graph
is computed at server start by scanning the disk and parsing every HTML
document, and mutated afterwards by migrations, revocations, and content
updates.

Maintained invariants (property-tested in ``tests/property``):

- ``LinkFrom`` is the exact transpose of ``LinkTo`` over documents present
  in the graph;
- migrating a document sets ``Dirty`` on precisely its ``LinkFrom``
  documents and nothing else;
- entry points always have ``Location == home``;
- ``migrated_at`` is set exactly while ``Location != home``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.document import DocumentRecord, Location
from repro.errors import DocumentNotFound, MigrationError


class LocalDocumentGraph:
    """Hash-indexed document tuples plus transpose-maintained link edges."""

    def __init__(self, home: Location, *,
                 enforce_entry_home: bool = True) -> None:
        self.home = home
        # Algorithm 1 step 2 invariant; relaxed only by the entry-point
        # ablation (ServerConfig.protect_entry_points=False).
        self.enforce_entry_home = enforce_entry_home
        self._records: Dict[str, DocumentRecord] = {}

    # ------------------------------------------------------------------
    # Construction and structure maintenance
    # ------------------------------------------------------------------

    def add_document(self, name: str, size: int, *,
                     content_type: str = "text/html",
                     entry_point: bool = False,
                     link_to: Iterable[str] = ()) -> DocumentRecord:
        """Register a document homed on this server.

        ``link_to`` may name documents added later; transpose edges are
        (re)established as soon as both endpoints exist.
        """
        if name in self._records:
            raise MigrationError(f"document already in graph: {name!r}")
        record = DocumentRecord(name=name, location=self.home, size=size,
                                content_type=content_type,
                                entry_point=entry_point)
        self._records[name] = record
        self.set_links(name, link_to)
        # Documents added earlier may already point at this one.
        for other in self._records.values():
            if name in other.link_to:
                record.link_from.add(other.name)
        return record

    def set_links(self, name: str, link_to: Iterable[str]) -> None:
        """Replace *name*'s outgoing edges, keeping transposes exact.

        Called at build time and again when an administrator edits a page
        (the LDG "is intended to be a dynamic structure").
        """
        record = self.get(name)
        new_targets: Set[str] = {t for t in link_to if t != name}
        for removed in record.link_to - new_targets:
            removed_record = self._records.get(removed)
            if removed_record is not None:
                removed_record.link_from.discard(name)
        for added in new_targets - record.link_to:
            added_record = self._records.get(added)
            if added_record is not None:
                added_record.link_from.add(name)
        record.link_to = new_targets

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get(self, name: str) -> DocumentRecord:
        record = self._records.get(name)
        if record is None:
            raise DocumentNotFound(name)
        return record

    def find(self, name: str) -> Optional[DocumentRecord]:
        return self._records.get(name)

    def __contains__(self, name: object) -> bool:
        return name in self._records

    def __len__(self) -> int:
        return len(self._records)

    def documents(self) -> Iterator[DocumentRecord]:
        return iter(self._records.values())

    def names(self) -> List[str]:
        return sorted(self._records)

    def entry_points(self) -> List[DocumentRecord]:
        return [r for r in self._records.values() if r.entry_point]

    def migrated_documents(self) -> List[DocumentRecord]:
        """Documents currently hosted away from home."""
        return [r for r in self._records.values() if r.location != self.home]

    # ------------------------------------------------------------------
    # Hits
    # ------------------------------------------------------------------

    def record_hit(self, name: str, count: int = 1) -> None:
        self.get(name).record_hit(count)

    def reset_windows(self) -> None:
        """Zero the per-window hit counters (each stats interval)."""
        for record in self._records.values():
            record.reset_window()

    # ------------------------------------------------------------------
    # Migration bookkeeping (paper section 4.2)
    # ------------------------------------------------------------------

    def mark_migrated(self, name: str, coop: Location,
                      now: float) -> List[str]:
        """Logically migrate *name* to *coop* at time *now*.

        Updates ``Location`` and ``migrated_at``, sets ``Dirty`` on every
        ``LinkFrom`` document so referrers are regenerated with rewritten
        hyperlinks on their next request, and bumps referrer versions so
        co-op-hosted referrers are refreshed by validation.  Returns the
        dirtied names.
        """
        record = self.get(name)
        if record.entry_point and self.enforce_entry_home:
            raise MigrationError(f"cannot migrate entry point: {name!r}")
        if coop == self.home:
            raise MigrationError(f"cannot migrate {name!r} to its own home")
        return self._relocate(record, coop, record.replicas, now)

    def mark_revoked(self, name: str) -> List[str]:
        """Return *name* to its home server, dirtying referrers again."""
        record = self.get(name)
        if record.location == self.home and not record.replicas:
            raise MigrationError(f"document is not migrated: {name!r}")
        return self._relocate(record, self.home, (), None)

    def add_replica(self, name: str, coop: Location,
                    now: float) -> List[str]:
        """Replication extension: host *name* on an additional co-op."""
        record = self.get(name)
        if record.entry_point:
            raise MigrationError(f"cannot replicate entry point: {name!r}")
        if coop == self.home or coop in record.locations():
            raise MigrationError(f"replica location invalid for {name!r}: {coop}")
        if record.location == self.home:
            # First replica: treat like a primary migration.
            return self._relocate(record, coop, record.replicas, now)
        return self._relocate(record, record.location,
                              record.replicas | {coop}, record.migrated_at)

    def drop_holder(self, name: str, dead: Location) -> List[str]:
        """Replication groups: remove *dead* from *name*'s holder set.

        When the primary died the lowest-sorted surviving replica is
        promoted to primary, so the document stays migrated (keeping its
        ``migrated_at``) instead of bouncing home.  Raises
        :class:`MigrationError` when *dead* is not a holder or no live
        holder would survive (callers revoke then).
        Returns the dirtied referrer names; the version bump invalidates
        cached responses whose rewritten links may still point at the
        dead holder.
        """
        record = self.get(name)
        if dead not in record.locations():
            raise MigrationError(f"{dead} does not hold {name!r}")
        survivors = sorted(
            (loc for loc in record.locations() if loc != dead), key=str)
        if not survivors or survivors == [self.home]:
            raise MigrationError(f"no surviving holder for {name!r}")
        primary = survivors[0] if record.location == dead \
            else record.location
        return self._relocate(record, primary,
                              record.replicas - {primary, dead},
                              record.migrated_at)

    def _relocate(self, record: DocumentRecord, location: Location,
                  replicas: Iterable[Location],
                  migrated_at: Optional[float]) -> List[str]:
        """The live half of every relocation: the versions it leaves
        behind, then :meth:`install_holders`.  Returns the dirtied names.

        A referrer that is dirty already keeps its version: a dirty
        document is regenerated before any response carries its version,
        so nobody holds the one it has, and an author who has just saved
        the page reads it back under the version the save gave it
        whatever migrated in between.
        """
        referrers = [referrer for referrer in map(
            self._records.get, sorted(record.link_from))
            if referrer is not None]
        dirtied = [(r.name, r.version if r.dirty else r.version + 1)
                   for r in referrers]
        self.install_holders(record.name, location, replicas, migrated_at,
                             record.version + 1, dirtied=dirtied)
        return [name for name, _version in dirtied]

    def install_holders(self, name: str, location: Location,
                        replicas: Iterable[Location],
                        migrated_at: Optional[float], version: int, *,
                        dirty: bool = True,
                        dirtied: Iterable[Tuple[str, int]] = ()) -> bool:
        """Install who holds *name*, and since when: the one write every
        relocation ends in, live, replayed from its journal record, or
        restored from a snapshot.

        The document itself is left dirty (an HTML page's own links
        must be rewritten absolute, since it may now be served from a
        foreign path; a snapshot passes its saved bit instead) at
        *version*, so co-op copies refresh at validation, and so is each
        ``(referrer, version)`` of *dirtied*.  Versions only move
        forward, so installing twice is installing once.  ``False``, with
        nothing touched, for a document no longer in the graph.
        """
        record = self._records.get(name)
        if record is None:
            return False
        record.location = location
        record.replicas = set(replicas)
        record.migrated_at = None if location == self.home else migrated_at
        record.dirty = dirty and record.is_html
        record.version = max(record.version, version)
        for referrer_name, referrer_version in dirtied:
            referrer = self._records.get(referrer_name)
            if referrer is not None:
                referrer.dirty = True
                referrer.version = max(referrer.version, referrer_version)
        return True

    def remote_linkfrom_count(self, name: str) -> int:
        """How many referrers of *name* are not currently on this server
        (Algorithm 1 step 4 minimizes this)."""
        record = self.get(name)
        count = 0
        for referrer_name in record.link_from:
            referrer = self._records.get(referrer_name)
            if referrer is not None and referrer.location != self.home:
                count += 1
        return count

    # ------------------------------------------------------------------
    # Invariant checking (used by property tests and the simulator's
    # self-checks)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise :class:`AssertionError` on any violated LDG invariant."""
        for record in self._records.values():
            for target in record.link_to:
                target_record = self._records.get(target)
                if target_record is not None:
                    assert record.name in target_record.link_from, (
                        f"missing transpose edge {record.name} -> {target}")
            for source in record.link_from:
                source_record = self._records.get(source)
                if source_record is not None:
                    assert record.name in source_record.link_to, (
                        f"dangling transpose edge {source} -> {record.name}")
            if record.entry_point and self.enforce_entry_home:
                assert record.location == self.home, (
                    f"entry point {record.name} migrated to {record.location}")
            assert (record.migrated_at is None) == \
                (record.location == self.home), (
                    f"{record.name} at {record.location} has migrated_at "
                    f"{record.migrated_at}")
