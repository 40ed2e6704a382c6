"""The one replica rule: a round that holds every migrated document at
its target holder count, and the pick that spreads requesters over the
holders.

The paper defers hot-document replication to future work (section 6);
this module is the only code that adds holders (``LDG.add_replica``,
through :meth:`~repro.core.migration.MigrationPolicy.add_holder`):

- each migrated document has one *target holder count*.  Its floor is
  ``ServerConfig.replication_k``; while the co-op holding the document
  runs hot (its GLT row above ``imbalance_tolerance`` x the cluster
  mean) the round raises it by one holder per round, up to the ceiling
  ``max(replication_k, max_replicas)``;
- the round — a round of the engine tick's schedule at the migration
  round's cadence (T_st), run at once when a holder is lost — works in
  one order: drop the holders the peer ledger
  (:class:`~repro.core.membership.MembershipTable`) says no longer
  ``holds`` (promoting a surviving replica when the primary died); fill
  floor deficits, critical documents first, bypassing T_coop (decision
  kind ``repair``); then add heat-driven holders, hottest document
  first, keeping T_coop spacing (kind ``replicate``).  Both kinds of
  addition go to the least-loaded ``placeable`` peer and share one
  ``max_replications_per_interval`` budget.  Because migration is
  logical and co-ops pull bytes lazily from home, an addition is pure
  bookkeeping: no bulk copy, no availability gap;
- serving is replica-aware, whatever k is: requesters are spread over
  the live holders with *power of two choices* (DistCache,
  arXiv:1901.08200) — two candidates chosen by a deterministic digest of
  (name, salt), the less-loaded one (by GLT row) wins.

Nothing is stored per document.  With k above 1 every migrated document
is a *group*, and its state is read off its LDG record and k::

    healthy (live >= k)  ->  degraded (0 < live < k)
                         ->  critical (no live holder)

The manager has no I/O and no locking of its own: the engine calls it
under the same write bracket as the migration round, and its changes
surface as :class:`~repro.core.migration.MigrationDecision` records so
the write-ahead journal and snapshot machinery cover them like any other
relocation.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Optional

from repro.core.config import ServerConfig
from repro.core.document import DocumentRecord, Location
from repro.core.glt import GlobalLoadTable
from repro.core.ldg import LocalDocumentGraph
from repro.core.membership import MembershipTable
from repro.core.migration import MigrationDecision, MigrationPolicy

STATE_HEALTHY = "healthy"
STATE_DEGRADED = "degraded"
STATE_CRITICAL = "critical"


def _digest(name: str, salt: str) -> int:
    """Deterministic (cross-run) pick digest.

    ``hash()`` is salted per process; crc32 makes replica choice, and so
    simulator runs, reproducible."""
    return zlib.crc32(f"{name}|{salt}".encode("utf-8", "replace"))


@dataclass
class ReplicationCounters:
    """Monotonic counters the admin endpoint and stats sampling read
    (repairs, heat additions and replica drops are counted once, in
    ``EngineStats``)."""

    two_choices_picks: int = 0
    two_choices_alternates: int = 0


class ReplicationManager:
    """The replica round and the replica pick for one home.

    Constructed by every engine with its peer ledger as *peers*.
    Placement is stricter than custody:
    ``peers.holds`` (not declared dead, circuit closed) keeps holders
    serving, ``peers.placeable`` (strictly alive — not even *suspect*)
    gates where the round may place new holders.
    """

    def __init__(self, config: ServerConfig, graph: LocalDocumentGraph,
                 glt: GlobalLoadTable, policy: MigrationPolicy, *,
                 peers: MembershipTable) -> None:
        self.config = config
        self.graph = graph
        self.glt = glt
        self.policy = policy
        self.peers = peers
        self.counters = ReplicationCounters()

    # ------------------------------------------------------------------
    # The round
    # ------------------------------------------------------------------

    def repair_round(self, now: float) -> List[MigrationDecision]:
        """One pass toward every migrated document's target.

        Drops dead holders, fills floor deficits (critical first), then
        adds one heat-driven holder per hot document (hottest first),
        within one per-round budget.  Returns the applied decisions
        (kinds ``replica_drop``, ``repair`` and ``replicate``) — the
        caller journals and counts them exactly like migration-round
        output.  With a ceiling of one holder it returns at once.
        """
        k = self.config.replication_k
        ceiling = max(k, self.config.max_replicas)
        if ceiling <= 1:
            return []
        decisions: List[MigrationDecision] = []
        migrated = sorted(self.graph.migrated_documents(),
                          key=lambda r: r.name)
        # 1. Shed holders the cluster considers dead.  Purely logical:
        # home always keeps the permanent copy, so no bytes need to move
        # for the survivors to keep serving.
        for document in migrated:
            for dead in sorted(document.locations(), key=str):
                if not self.peers.holds(dead):
                    dropped = self.policy.drop_holder(document.name, dead)
                    if dropped is not None:
                        decisions.append(dropped)
        budget = self.config.max_replications_per_interval
        # 2. The groups' floor deficits, critical (no live holder) first.
        short = [d for d in self.groups() if len(self.live_holders(d)) < k]
        for document in sorted(short, key=lambda d: bool(self.live_holders(d))):
            while budget > 0 and len(self.live_holders(document)) < k:
                target = self._target(document)
                if target is None:
                    break
                decisions.append(self.policy.add_holder(
                    document.name, target, now, kind="repair"))
                budget -= 1
        # 3. Heat: one more holder for each document whose co-op runs
        # hot, hottest first, T_coop-spaced.
        mean = self.glt.mean_metric()
        if mean <= 0.0:
            return decisions
        for document in sorted(migrated, key=lambda r: (-r.hits, r.name)):
            if budget <= 0:
                break
            if len(document.locations()) >= ceiling:
                continue
            row = self.glt.get(document.location)
            if row is None or \
                    row.metric <= self.config.imbalance_tolerance * mean:
                continue
            target = self._target(document)
            if target is None or self.policy.cooling(target, now):
                continue
            decisions.append(self.policy.add_holder(
                document.name, target, now, kind="replicate"))
            budget -= 1
        return decisions

    def _target(self, document: DocumentRecord) -> Optional[Location]:
        """Where the next holder of *document* goes: the least-loaded
        peer that is ``placeable`` (so suspects never receive new
        holders) and does not hold it yet."""
        unavailable = [p for p in self.glt.peers()
                       if not self.peers.placeable(p)]
        return self.glt.least_loaded(
            exclude=list(document.locations()) + unavailable)

    # ------------------------------------------------------------------
    # Group state, derived (admin endpoint, stats sampling, fsck, rejoin)
    # ------------------------------------------------------------------

    def live_holders(self, record: DocumentRecord) -> List[Location]:
        """The holders of *record* the peer ledger says still hold it —
        also the replica set the engine stamps onto redirects."""
        return [loc for loc in sorted(record.locations(), key=str)
                if loc != self.graph.home and self.peers.holds(loc)]

    def groups(self) -> List[DocumentRecord]:
        """The managed documents, by name: every migrated one while k is
        above 1, none otherwise."""
        if self.config.replication_k <= 1:
            return []
        return sorted(self.graph.migrated_documents(), key=lambda r: r.name)

    def state(self, record: DocumentRecord) -> str:
        live = len(self.live_holders(record))
        if live >= self.config.replication_k:
            return STATE_HEALTHY
        return STATE_DEGRADED if live else STATE_CRITICAL

    # ------------------------------------------------------------------
    # Replica choice (requester-facing)
    # ------------------------------------------------------------------

    def pick(self, record: DocumentRecord, salt: str) -> Location:
        """Power-of-two-choices over the live holders of *record*.

        Two candidates are drawn from a deterministic digest of
        ``(name, salt)``; the one with the lower last-known GLT load
        wins (dead and open-circuit peers were already filtered out by
        ``peers.holds``).  A single holder is the pick; falls back to
        every holder when the whole group looks dead — the requester's
        own retry-at-home fallback handles the rest.
        """
        if not record.replicas:
            return record.location
        holders = sorted(record.locations(), key=str)
        candidates = self.live_holders(record) or holders
        if len(candidates) == 1:
            return candidates[0]
        digest = _digest(record.name, salt)
        first = digest % len(candidates)
        second = (digest >> 16) % (len(candidates) - 1)
        if second >= first:
            second += 1
        chosen = first
        if self._load_of(candidates[second]) < self._load_of(candidates[first]):
            chosen = second
            self.counters.two_choices_alternates += 1
        self.counters.two_choices_picks += 1
        return candidates[chosen]

    def _load_of(self, server: Location) -> float:
        row = self.glt.get(server)
        return row.metric if row is not None else float("inf")
