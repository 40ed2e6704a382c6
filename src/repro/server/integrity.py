"""End-to-end content integrity: digests, scrubbing, quarantine.

The cluster survives crashes (WAL), partitions (membership), and dead
replica holders (repair daemon) — but none of those catch a *silently
wrong* copy: a flipped bit on a co-op's disk or a truncated inter-server
pull is served forever, and the repair daemon would happily re-replicate
it.  This module closes that gap with one primitive and two loops:

- **Digest**: every (name, version) carries a strong content digest of
  its identity body (:func:`repro.http.content.body_digest`), computed
  wherever bytes are authored (initialize, content update, regeneration,
  pull, validation refresh) and carried in the LDG, hosted table, WAL
  records, and snapshots.  Responses stamp it as ``X-DCWS-Digest``;
  receivers (the connection pool, the engine's pull completion, the real
  client) verify the identity bytes against it.

- **Scrub daemon**: a round of the engine tick's schedule, like the
  repair daemon, every ``scrub_interval`` (0 disables it).  Walks
  the hosted + owned documents under a throttled docs-per-round budget
  (a resumable cursor over the sorted name space), re-reads bytes from
  the store (never the copy cache, so disk rot cannot hide behind a
  warm cache) and re-hashes them against the recorded
  digest.

- **Quarantine**: a mismatch anywhere (scrub, sampled serve check,
  rejected pull) journals a ``quarantine`` event and the copy stops
  being served.  A home document regenerates from its in-memory link
  template (pre-corruption canonical source); a hosted copy is dropped,
  the requester 302'd home, and the home notified via
  ``X-DCWS-Quarantined`` so it drops the holder from the LDG record
  like a dead one — drop + critical-first re-replication from a
  verified copy (the home's scrub-checked store), never from the corrupt
  one.  fsck invariant 8 asserts no quarantined entry is in any serve
  table.

The manager owns the scrub cursor, counters, and the quarantine table;
it performs no I/O and takes no locks — the engine calls it under its
own shard brackets, mirroring :class:`ReplicationManager`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.config import ServerConfig
from repro.http.content import (  # noqa: F401  (re-exported for callers)
    DIGEST_HEADER,
    QUARANTINE_HEADER,
    body_digest,
    digest_matches,
)

#: Quarantine-record kinds: a document this server is home for vs. a
#: hosted (migrated-in) copy.
KIND_HOME = "home"
KIND_HOSTED = "hosted"

#: How a corruption was caught, recorded for the journal and admin view.
REASON_SCRUB = "scrub"
REASON_SERVE = "serve"
REASON_PULL = "pull"
REASON_VALIDATE = "validate"


@dataclass
class QuarantineRecord:
    """One quarantined copy: known-corrupt, excluded from every serve
    table until repaired (home: regenerated; hosted: dropped)."""

    key: str
    kind: str  # KIND_HOME | KIND_HOSTED
    reason: str
    expected: str
    actual: str
    at: float
    # Hosted only: has the home been told (so it can drop this holder
    # and re-replicate)?  Reset on notification failure for retry.
    notified: bool = False

    def as_dict(self) -> Dict[str, object]:
        return {"key": self.key, "kind": self.kind, "reason": self.reason,
                "expected": self.expected, "actual": self.actual,
                "at": self.at, "notified": self.notified}

    @classmethod
    def from_dict(cls, entry: Dict[str, object]) -> "QuarantineRecord":
        return cls(key=str(entry["key"]), kind=str(entry["kind"]),
                   reason=str(entry.get("reason", REASON_SCRUB)),
                   expected=str(entry.get("expected", "")),
                   actual=str(entry.get("actual", "")),
                   at=float(entry.get("at", 0.0)),
                   notified=bool(entry.get("notified", False)))


@dataclass
class IntegrityCounters:
    """Monotonic counters for the admin endpoint and stats sampling."""

    scrub_rounds: int = 0
    scrub_checked: int = 0
    serve_checks: int = 0
    corruptions_detected: int = 0
    quarantines: int = 0
    quarantines_cleared: int = 0
    pulls_rejected: int = 0
    holder_quarantines_reported: int = 0
    repairs_from_verified: int = 0


class IntegrityManager:
    """The scrub cursor, sampled serve checks, and the quarantine table."""

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self.counters = IntegrityCounters()
        self._quarantine: Dict[str, QuarantineRecord] = {}
        # Resumable scrub cursor: the last name checked; the next round
        # continues strictly after it in sorted order, wrapping.
        self._cursor: str = ""
        self._serve_tick: int = 0

    # ------------------------------------------------------------------
    # Scrub cursor
    # ------------------------------------------------------------------

    def scrub_batch(self, names: Sequence[str], now: float) -> List[str]:
        """The next (at most) ``scrub_budget`` names to verify.

        *names* is the scrubbable population this round (sorted or not);
        the cursor walks the sorted order and wraps, so every copy is
        revisited within ``ceil(len(names) / budget)`` rounds no matter
        how the population churns between rounds.  *now* is the round's
        time; when rounds run is the engine tick's to decide.
        """
        self.counters.scrub_rounds += 1
        ordered = sorted(names)
        if not ordered:
            return []
        budget = max(1, self.config.scrub_budget)
        start = bisect_right(ordered, self._cursor)
        batch = ordered[start:start + budget]
        if len(batch) < budget:
            # Wrap to the head, but never revisit a name within the
            # same round (budget can exceed the population).
            batch += ordered[:min(start, budget - len(batch))]
        self._cursor = batch[-1]
        self.counters.scrub_checked += len(batch)
        return batch

    @property
    def cursor(self) -> str:
        return self._cursor

    # ------------------------------------------------------------------
    # Sampled serve-path checks
    # ------------------------------------------------------------------

    def sample_serve(self) -> bool:
        """Should this cache-miss store read be digest-verified?

        1-in-``integrity_serve_sample`` responses, deterministic round
        robin (no RNG: reproducible under the fault plans); 0 disables.
        """
        rate = self.config.integrity_serve_sample
        if rate <= 0:
            return False
        self._serve_tick += 1
        if self._serve_tick >= rate:
            self._serve_tick = 0
            self.counters.serve_checks += 1
            return True
        return False

    # ------------------------------------------------------------------
    # Quarantine table
    # ------------------------------------------------------------------

    def quarantine(self, key: str, kind: str, reason: str,
                   expected: str, actual: str, now: float) -> QuarantineRecord:
        """Record *key* as known-corrupt.  Idempotent: re-detecting an
        already-quarantined copy refreshes nothing and double-counts
        nothing."""
        existing = self._quarantine.get(key)
        if existing is not None:
            return existing
        record = QuarantineRecord(key=key, kind=kind, reason=reason,
                                  expected=expected, actual=actual, at=now)
        self._quarantine[key] = record
        self.counters.corruptions_detected += 1
        self.counters.quarantines += 1
        return record

    def clear(self, key: str) -> Optional[QuarantineRecord]:
        record = self._quarantine.pop(key, None)
        if record is not None:
            self.counters.quarantines_cleared += 1
        return record

    def is_quarantined(self, key: str) -> bool:
        return key in self._quarantine

    def get(self, key: str) -> Optional[QuarantineRecord]:
        return self._quarantine.get(key)

    def active(self) -> List[QuarantineRecord]:
        return [self._quarantine[k] for k in sorted(self._quarantine)]

    def pending_notifications(self) -> List[QuarantineRecord]:
        """Hosted quarantines whose home has not been told yet."""
        return [r for r in self.active()
                if r.kind == KIND_HOSTED and not r.notified]

    # ------------------------------------------------------------------
    # Introspection and durability
    # ------------------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        counters = self.counters
        return {
            "scrub_enabled": self.config.scrub_interval > 0,
            "scrub_interval": self.config.scrub_interval,
            "scrub_budget": self.config.scrub_budget,
            "scrub_cursor": self._cursor,
            "scrub_rounds": counters.scrub_rounds,
            "scrub_checked": counters.scrub_checked,
            "serve_sample": self.config.integrity_serve_sample,
            "serve_checks": counters.serve_checks,
            "corruptions_detected": counters.corruptions_detected,
            "quarantines": counters.quarantines,
            "quarantines_active": len(self._quarantine),
            "quarantines_cleared": counters.quarantines_cleared,
            "pulls_rejected": counters.pulls_rejected,
            "holder_quarantines_reported":
                counters.holder_quarantines_reported,
            "repairs_from_verified": counters.repairs_from_verified,
            "active": [r.as_dict() for r in self.active()],
        }

    def snapshot(self) -> List[Dict[str, object]]:
        return [r.as_dict() for r in self.active()]

    def restore(self, entries: List[Dict[str, object]]) -> None:
        self._quarantine.clear()
        for entry in entries:
            record = QuarantineRecord.from_dict(entry)
            # The home's acknowledgment is not durable on our side, so a
            # restarted co-op re-notifies; the home treats repeat reports
            # of the same (document, holder) pair as a no-op.
            record.notified = False
            self._quarantine[record.key] = record
