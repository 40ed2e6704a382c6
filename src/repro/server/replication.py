"""Replication groups with autonomous repair.

The paper defers hot-document replication to future work (section 6);
this subsystem makes the vestigial hooks (``LDG.add_replica``, the
``replicate`` decision kind) a first-class availability mechanism:

- with ``ServerConfig.replication_k`` above 1, every hot migrated
  document gets a *replication group* with target holder count k and a
  sufficiency threshold (``replication_sufficient``).  The group set is
  derived from the LDG: a group exists while its document is away from
  home, and k is read from the config, never stored per group;
- a *repair loop*, a round of the engine tick's schedule at the
  migration round's cadence (T_st), run at once when a holder is lost,
  proactively tops groups up to k holders and — when the peer ledger
  (:class:`~repro.core.membership.MembershipTable`) says a holder no
  longer ``holds``: declared dead, or its circuit open — drops the holder
  (promoting a surviving replica when the primary died) and re-replicates
  onto the least-loaded ``placeable`` peer.  Because migration is logical
  and co-ops pull bytes lazily from home, repair is pure bookkeeping: no
  bulk copy, no 302-storm, no availability gap;
- serving is replica-aware, whatever k is: requesters are spread over
  the live holders with *power of two choices* (DistCache,
  arXiv:1901.08200) — two candidates chosen by a deterministic digest of
  (name, salt), the less-loaded one (by GLT row) wins.  This is the one
  pick rule for every migrated document, so the engine always has a
  manager, and one with k = 1 simply keeps no groups.

Group state machine::

    healthy (live >= k)  ->  degraded (sufficient <= live < k)
                         ->  critical (live < sufficient)
    any deficit  --repair loop-->  repaired back to healthy

The manager deliberately has no I/O and no locking of its own: the
engine calls it under the same write bracket as the migration round, and
repairs surface as :class:`~repro.core.migration.MigrationDecision`
records (kinds ``replica_drop`` / ``repair``) so the write-ahead journal
and snapshot machinery cover them like any other relocation.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.config import ServerConfig
from repro.core.document import DocumentRecord, Location
from repro.core.glt import GlobalLoadTable
from repro.core.ldg import LocalDocumentGraph
from repro.core.membership import MembershipTable
from repro.core.migration import MigrationDecision, MigrationPolicy

STATE_HEALTHY = "healthy"
STATE_DEGRADED = "degraded"
STATE_CRITICAL = "critical"

_STATE_PRIORITY = {STATE_CRITICAL: 0, STATE_DEGRADED: 1, STATE_HEALTHY: 2}


def _digest(name: str, salt: str) -> int:
    """Deterministic (cross-process, cross-run) pick digest.

    ``hash()`` is salted per process; crc32 keeps replica choice stable
    under multiproc sharding and makes simulator runs reproducible."""
    return zlib.crc32(f"{name}|{salt}".encode("utf-8", "replace"))


@dataclass
class ReplicationGroup:
    """Home-side bookkeeping for one replicated document."""

    name: str
    created_at: float
    state: str = STATE_HEALTHY
    repaired_at: float = 0.0
    repairs: int = 0


@dataclass
class ReplicationCounters:
    """Monotonic counters the admin endpoint and stats sampling read
    (repairs and replica drops are counted once, in ``EngineStats``)."""

    two_choices_picks: int = 0
    two_choices_alternates: int = 0
    state_changes: int = 0


class ReplicationManager:
    """Per-home replication groups, their repair loop, and replica choice.

    Constructed by every engine with its peer ledger as *peers*.
    Placement is stricter than custody:
    ``peers.holds`` (not declared dead, circuit closed) keeps holders
    serving, ``peers.placeable`` (strictly alive — not even *suspect*)
    gates where the repair loop may place new replicas.
    """

    def __init__(self, config: ServerConfig, graph: LocalDocumentGraph,
                 glt: GlobalLoadTable, policy: MigrationPolicy, *,
                 peers: MembershipTable,
                 log: Optional[Callable[[str], None]] = None) -> None:
        self.config = config
        self.graph = graph
        self.glt = glt
        self.policy = policy
        self.peers = peers
        self._log = log or (lambda _msg: None)
        self.groups: Dict[str, ReplicationGroup] = {}
        self.counters = ReplicationCounters()

    # ------------------------------------------------------------------
    # Group membership
    # ------------------------------------------------------------------

    def sync(self, now: float) -> None:
        """Derive the group set from the LDG.

        With k above 1, migrated documents at or above the heat
        threshold gain a group; documents revoked back home (or deleted)
        lose theirs.  With k = 1 there are none.  Idempotent and cheap —
        called at the top of every repair round.
        """
        migrated = {r.name: r for r in self.graph.migrated_documents()} \
            if self.config.replication_k > 1 else {}
        for name in [g for g in self.groups if g not in migrated]:
            del self.groups[name]
        for name in sorted(migrated):
            document = migrated[name]
            if name in self.groups or \
                    document.hits < self.config.replication_heat_threshold:
                continue
            group = ReplicationGroup(name=name, created_at=now)
            group.state = self._classify(self._live_holders(document))
            self.groups[name] = group

    # ------------------------------------------------------------------
    # Repair loop
    # ------------------------------------------------------------------

    def repair_round(self, now: float) -> List[MigrationDecision]:
        """One pass of the repair daemon.

        Drops dead holders from every group (promoting a surviving
        replica when the primary died), then tops under-replicated
        groups back up to their target, critical groups first, within
        the per-round replication budget.  Returns the applied
        decisions (kinds ``replica_drop`` and ``repair``) — the caller
        journals and counts them exactly like migration-round output.
        """
        self.sync(now)
        decisions: List[MigrationDecision] = []
        budget = self.config.max_replications_per_interval
        orderd = sorted(
            self.groups,
            key=lambda n: (_STATE_PRIORITY.get(self.groups[n].state, 3), n))
        for name in orderd:
            group = self.groups[name]
            document = self.graph.find(name)
            if document is None:
                continue
            # 1. Shed holders the cluster considers dead.  Purely
            # logical: home always keeps the permanent copy, so no bytes
            # need to move for the survivors to keep serving.
            for dead in sorted(document.locations(), key=str):
                if self.peers.holds(dead):
                    continue
                dropped = self.policy.drop_holder(name, dead)
                if dropped is not None:
                    decisions.append(dropped)
            # 2. Top the group back up to k live holders.
            while budget > 0:
                live = self._live_holders(document)
                if len(live) >= self.config.replication_k:
                    break
                target = self.glt.least_loaded(
                    exclude=list(document.locations()) +
                    self._unavailable_peers())
                if target is None:
                    break
                decisions.append(
                    self.policy.repair_replica(name, target, now))
                group.repairs += 1
                group.repaired_at = now
                budget -= 1
            self._transition(group, self._classify(
                self._live_holders(document)))
        return decisions

    def _live_holders(self, document: DocumentRecord) -> List[Location]:
        return [loc for loc in sorted(document.locations(), key=str)
                if loc != self.graph.home and self.peers.holds(loc)]

    def _unavailable_peers(self) -> List[Location]:
        """Peers excluded from repair *placement* — the stricter
        ``placeable`` predicate, so suspects never receive new replicas."""
        return [p for p in self.glt.peers() if not self.peers.placeable(p)]

    def _classify(self, live: List[Location]) -> str:
        if len(live) >= self.config.replication_k:
            return STATE_HEALTHY
        if len(live) >= self.config.replication_sufficient:
            return STATE_DEGRADED
        return STATE_CRITICAL

    def _transition(self, group: ReplicationGroup, state: str) -> None:
        if state == group.state:
            return
        self.counters.state_changes += 1
        self._log(f"replication group {group.name}: "
                  f"{group.state} -> {state}")
        group.state = state

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
        candidates = self._live_holders(record) or holders
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

    # ------------------------------------------------------------------
    # Introspection (admin endpoint, stats sampling, fsck)
    # ------------------------------------------------------------------

    def live_holders(self, name: str) -> List[Location]:
        """Live holders of *name* (empty when unknown) — used by the
        engine to stamp the replica set onto redirects."""
        document = self.graph.find(name)
        if document is None:
            return []
        return self._live_holders(document)

    def groups_below_target(self) -> int:
        return sum(1 for g in self.groups.values()
                   if g.state != STATE_HEALTHY)

    def copies_histogram(self) -> Dict[int, int]:
        """live-holder-count -> number of groups."""
        histogram: Dict[int, int] = {}
        for name in self.groups:
            document = self.graph.find(name)
            live = len(self._live_holders(document)) if document else 0
            histogram[live] = histogram.get(live, 0) + 1
        return histogram

    # ------------------------------------------------------------------
    # Durability (snapshot round-trip; decisions are journaled upstream)
    # ------------------------------------------------------------------

    def snapshot(self) -> List[Dict[str, object]]:
        return [
            {"name": g.name, "created_at": g.created_at,
             "repaired_at": g.repaired_at, "repairs": g.repairs,
             "state": g.state}
            for _, g in sorted(self.groups.items())
        ]

    def restore(self, groups: List[Dict[str, object]]) -> None:
        """Install snapshot groups (an older snapshot's per-group
        ``target`` is ignored: k is the config's); none when k = 1."""
        self.groups.clear()
        if self.config.replication_k <= 1:
            return
        for entry in groups:
            name = str(entry["name"])
            self.groups[name] = ReplicationGroup(
                name=name,
                created_at=float(entry.get("created_at", 0.0)),
                state=str(entry.get("state", STATE_HEALTHY)),
                repaired_at=float(entry.get("repaired_at", 0.0)),
                repairs=int(entry.get("repairs", 0)))
