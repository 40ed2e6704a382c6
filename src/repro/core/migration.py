"""Migration policy: when to migrate, where to, and rate limiting.

Implements the decision procedure of paper section 4.2 on top of
Algorithm 1 (:mod:`repro.core.selection`):

- at each statistics re-calculation interval (T_st) an overloaded home
  server migrates at most ``MAX_MIGRATIONS_PER_INTERVAL`` documents
  (section 5.2: "a maximum of one file per 10 seconds");
- the target is the server with the lowest ``LoadMetric`` in the global
  load table, skipping co-ops that accepted a migration within the last
  T_coop seconds (60 s) so a co-op is never swamped before it can
  recalculate its own statistics;
- after T_home seconds (300 s) a home server may abandon a migration and
  re-migrate the document to a different co-op;
- all migrations are *logical*: only the LDG changes here; document bytes
  move lazily when the co-op first needs them.

Holders beyond the first (paper future work, section 6) are added by
one round only, :class:`repro.server.replication.ReplicationManager`,
through :meth:`MigrationPolicy.add_holder`; the policy keeps the T_coop
spacing both draw on, and the drop and revocation primitives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.config import ServerConfig
from repro.core.document import DocumentRecord, Location
from repro.core.glt import GlobalLoadTable
from repro.core.ldg import LocalDocumentGraph
from repro.core.selection import (
    eligible_candidates,
    select_documents_for_migration,
)
from repro.errors import DocumentNotFound, MigrationError

#: Section 5.2: a home migrates "a maximum of one file per 10 seconds",
#: one per statistics interval.
MAX_MIGRATIONS_PER_INTERVAL = 1


@dataclass(frozen=True)
class MigrationDecision:
    """One applied (logical) migration, revocation, or holder change.

    ``replica_drop`` removes a dead holder (promoting a surviving
    replica to primary when the primary died); ``repair`` adds a holder
    toward the availability floor and ``replicate`` one for a hot
    co-op — all three are issued by the replica round rather than the
    periodic load round.
    """

    name: str
    target: Location
    kind: str  # "migrate" | "revoke" | "remigrate" | "replicate"
               # | "replica_drop" | "repair"
    dirtied: Sequence[str] = ()


class MigrationPolicy:
    """Stateful migration decision-maker for one home server.

    Who holds a document, and since when, is the LDG record's
    (``location``, ``replicas``, ``migrated_at``); the policy keeps only
    its rate-limit bookkeeping and walks the graph for everything else.
    """

    def __init__(self, config: ServerConfig, graph: LocalDocumentGraph,
                 glt: GlobalLoadTable) -> None:
        self.config = config
        self.graph = graph
        self.glt = glt
        self._coop_last_accept: Dict[str, float] = {}
        # Optional availability predicate (the engine sets its peer
        # ledger's ``placeable``): peers not strictly alive, or whose
        # circuit is open, receive no new migrations, re-migrations, or
        # replicas.
        self.peer_available: Optional[Callable[[Location], bool]] = None
        # Fired for every applied decision, from every decision site — the
        # engine hangs its write-ahead journal here so no migration can be
        # acknowledged without first being durable.
        self.on_decision: Optional[Callable[[MigrationDecision], None]] = None

    def _note(self, decision: MigrationDecision) -> MigrationDecision:
        if self.on_decision is not None:
            self.on_decision(decision)
        return decision

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _by_demand(self) -> List[DocumentRecord]:
        """Migrated documents hottest first (co-ops report hosted hits
        back on validations), so the one heating a co-op goes first."""
        return sorted(self.graph.migrated_documents(),
                      key=lambda r: (-r.hits, r.name))

    def force_migrate(self, name: str, target: Location,
                      now: float) -> MigrationDecision:
        """Migrate *name* to *target* immediately, bypassing rate limits.

        Used by operators and by benchmark pre-warming (simulating a
        cluster that has already balanced itself); all bookkeeping matches
        a policy-driven migration, so revocation and re-migration work.
        """
        dirtied = self.graph.mark_migrated(name, target, now)
        return self._note(MigrationDecision(
            name=name, target=target, kind="migrate", dirtied=tuple(dirtied)))

    # ------------------------------------------------------------------
    # Periodic decisions (driven by the statistics interval)
    # ------------------------------------------------------------------

    def consider(self, now: float, own_metric: float) -> List[MigrationDecision]:
        """Run one round of migration decisions.

        Called once per statistics interval with the server's current load
        metric.  Returns the decisions applied to the LDG (possibly none).
        """
        decisions = self._consider_remigration(now)
        if not self._overloaded(own_metric):
            return decisions
        for _ in range(max(0, MAX_MIGRATIONS_PER_INTERVAL - len(decisions))):
            decision = self._migrate_one(now, own_metric)
            if decision is None:
                break
            decisions.append(decision)
        return decisions

    def _overloaded(self, own_metric: float) -> bool:
        """Home migrates only when its load exceeds the cluster mean by the
        configured tolerance — with equal load nothing should move."""
        if len(self.glt) < 2:
            return False
        mean = self.glt.mean_metric()
        if mean <= 0.0:
            return own_metric > 0.0
        return own_metric > self.config.imbalance_tolerance * mean

    def _available(self, peer: Location) -> bool:
        return self.peer_available is None or self.peer_available(peer)

    def _unavailable_peers(self) -> List[Location]:
        """Peers the availability predicate currently rules out."""
        if self.peer_available is None:
            return []
        return [p for p in self.glt.peers() if not self.peer_available(p)]

    def _eligible_coops(self, now: float, own_metric: float) -> List[Location]:
        """Peers outside their T_coop cooldown, less loaded than we are,
        and currently reachable (closed circuit, not suspected dead)."""
        eligible: List[Location] = []
        for peer in self.glt.peers():
            if not self._available(peer) or self.cooling(peer, now):
                continue
            row = self.glt.get(peer)
            if row is not None and row.metric < own_metric:
                eligible.append(peer)
        return eligible

    def cooling(self, peer: Location, now: float) -> bool:
        """Whether *peer* accepted a migration or a heat-driven holder
        within the last T_coop seconds."""
        last = self._coop_last_accept.get(str(peer))
        return last is not None and \
            now - last < self.config.coop_migration_spacing

    def _migrate_one(self, now: float,
                     own_metric: float) -> Optional[MigrationDecision]:
        eligible = self._eligible_coops(now, own_metric)
        if not eligible:
            return None
        target = self.glt.least_loaded(
            exclude=[p for p in self.glt.peers() if p not in eligible])
        if target is None:
            return None
        document = self._choose_document(now)
        if document is None:
            return None
        dirtied = self.graph.mark_migrated(document.name, target, now)
        self._coop_last_accept[str(target)] = now
        return self._note(MigrationDecision(
            name=document.name, target=target, kind="migrate",
            dirtied=tuple(dirtied)))

    def _choose_document(self, now: float):
        """Pick the document to migrate per the configured policy.

        ``"paper"`` is Algorithm 1; ``"hottest"`` and ``"random"`` ablate
        the link-locality heuristics of steps 4-5 (the candidate filtering
        of steps 1-3 still applies to all policies).
        """
        config = self.config
        if config.selection_policy == "paper":
            chosen = select_documents_for_migration(
                self.graph, config.migration_hit_threshold,
                protect_entry_points=config.protect_entry_points)
            return chosen[0] if chosen else None
        candidates = eligible_candidates(
            self.graph, config.migration_hit_threshold,
            protect_entry_points=config.protect_entry_points)
        if not candidates:
            return None
        if config.selection_policy == "hottest":
            return max(candidates, key=lambda r: (r.window_hits, r.name))
        # "random": deterministic pseudo-random pick keyed by time so runs
        # stay reproducible without a mutable RNG in the policy.
        index = hash((round(now, 6), len(candidates))) % len(candidates)
        return sorted(candidates, key=lambda r: r.name)[index]

    # ------------------------------------------------------------------
    # Re-migration after T_home (section 4.5, case 2)
    # ------------------------------------------------------------------

    def _consider_remigration(self, now: float) -> List[MigrationDecision]:
        """Abandon migrations whose co-op became the hot spot.

        A document is re-migrated when its migration is older than T_home
        and its current co-op's load exceeds the cluster mean by the
        imbalance tolerance while some other peer is below the mean.
        """
        decisions: List[MigrationDecision] = []
        mean = self.glt.mean_metric()
        if mean <= 0.0:
            return decisions
        # Hottest first: abandoning the migration of a document nobody
        # requests would not relieve the overloaded co-op.
        for document in self._by_demand():
            if now - document.migrated_at < \
                    self.config.home_remigration_interval:
                continue
            coop_row = self.glt.get(document.location)
            if coop_row is None:
                continue
            if coop_row.metric <= self.config.imbalance_tolerance * mean:
                continue
            target = self.glt.least_loaded(
                exclude=[document.location] + self._unavailable_peers())
            target_row = self.glt.get(target) if target else None
            if target is None or target_row is None or target_row.metric >= mean:
                continue
            name = document.name
            dirtied = self.graph.mark_revoked(name)
            dirtied_again = self.graph.mark_migrated(name, target, now)
            self._coop_last_accept[str(target)] = now
            decisions.append(self._note(MigrationDecision(
                name=name, target=target, kind="remigrate",
                dirtied=tuple(sorted(set(dirtied) | set(dirtied_again))))))
            # Re-migration is cheaper than first migration (the revoked
            # co-op simply drops its copy), so it gets twice the budget.
            if len(decisions) >= 2 * MAX_MIGRATIONS_PER_INTERVAL:
                break
        return decisions

    # ------------------------------------------------------------------
    # Holders: death and addition (driven by the replica round)
    # ------------------------------------------------------------------

    def drop_holder(self, name: str, dead: Location) -> Optional[MigrationDecision]:
        """Remove *dead* from *name*'s holder set, keeping survivors.

        The replication-group alternative to a full revocation: when the
        primary died, the lowest-sorted surviving replica is promoted to
        primary, so the document never bounces back home and referring
        links are rewritten straight to live copies.  Returns ``None``
        when *dead* is not a holder or no live holder would survive (the
        caller then falls back to :meth:`revoke`).
        """
        try:
            dirtied = self.graph.drop_holder(name, dead)
        except (DocumentNotFound, MigrationError):
            return None
        return self._note(MigrationDecision(
            name=name, target=self.graph.get(name).location,
            kind="replica_drop", dirtied=tuple(dirtied)))

    def add_holder(self, name: str, target: Location, now: float, *,
                   kind: str) -> MigrationDecision:
        """Add *target* as one more holder of migrated *name*: the one
        place a holder is added, for the replica round and rejoin.

        A ``repair`` fills the availability floor and, like
        :meth:`force_migrate`, bypasses T_coop — restoring availability
        beats pacing.  A heat-driven ``replicate`` is a co-op accepting
        load, so it starts the co-op's T_coop spacing (see
        :meth:`cooling`).
        """
        dirtied = self.graph.add_replica(name, target, now)
        if kind == "replicate":
            self._coop_last_accept[str(target)] = now
        return self._note(MigrationDecision(
            name=name, target=target, kind=kind, dirtied=tuple(dirtied)))

    # ------------------------------------------------------------------
    # Revocation (section 4.5, cases 1 and 3)
    # ------------------------------------------------------------------

    def revoke(self, name: str) -> MigrationDecision:
        """Return one document to home (content change or operator action)."""
        dirtied = self.graph.mark_revoked(name)
        return self._note(MigrationDecision(
            name=name, target=self.graph.home, kind="revoke",
            dirtied=tuple(dirtied)))

    def revoke_all_from(self, coop: Location) -> List[MigrationDecision]:
        """Recall every document hosted by a dead co-op server.

        Documents with surviving holders stay migrated: the dead holder
        is dropped from the group (``replica_drop``, promoting a replica
        when the primary died) instead of bouncing the document home —
        the availability win replication groups exist to provide.  Only
        sole-holder documents take the classic full revocation.
        """
        decisions: List[MigrationDecision] = []
        for document in sorted(self.graph.migrated_documents(),
                               key=lambda r: r.name):
            if coop not in document.locations():
                continue
            dropped = self.drop_holder(document.name, coop)
            if dropped is not None:
                decisions.append(dropped)
                continue
            decisions.append(self.revoke(document.name))
        return decisions
