"""Consistency timers: validation, staleness tracking, dead-peer detection.

Paper section 4.5 describes four consistency concerns, three of which are
timer-driven:

1. *content change* — co-op servers re-request ("validate") every hosted
   document at interval T_val, so an edit is inconsistent for at most
   T_val seconds;
2. *workload change* — home servers may abandon a migration after T_home
   (handled by :class:`repro.core.migration.MigrationPolicy`);
3. *co-op crash* — the pinger probes peers whose load information has gone
   stale; several consecutive failures declare the peer dead and its
   documents are recalled.

This module provides the small generic piece: a :class:`DueTracker` that
answers "which keys are due for periodic work at time *now*".  Peer
liveness (the failure-count rule, suspicion, RTT) lives in
:mod:`repro.core.membership`.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, TypeVar

K = TypeVar("K", bound=Hashable)


class DueTracker:
    """Tracks when each key was last serviced; reports keys past their
    interval.  Used for co-op document validation (key = document name)
    and any other fixed-interval chore."""

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self._last: Dict[Hashable, float] = {}

    def register(self, key: Hashable, now: float) -> None:
        """Start tracking *key*; its first service is due at now+interval."""
        self._last.setdefault(key, now)

    def restore(self, key: Hashable, last: float) -> None:
        """Re-install *key* with its persisted last-serviced time.

        Recovery uses this instead of :meth:`register` so a restart does
        not silently push every deadline one full interval into the
        future — a document validated just before the crash stays
        not-yet-due; one overdue at crash time is due immediately.
        """
        self._last[key] = last

    def forget(self, key: Hashable) -> None:
        self._last.pop(key, None)

    def mark(self, key: Hashable, now: float) -> None:
        """Record that *key* was serviced at *now*."""
        self._last[key] = now

    def due(self, now: float) -> List[Hashable]:
        """Keys whose last service is at least one interval old (sorted for
        determinism)."""
        overdue = [key for key, last in self._last.items()
                   if now - last >= self.interval]
        return sorted(overdue, key=str)

    def last_serviced(self, key: Hashable) -> Optional[float]:
        return self._last.get(key)

    def keys(self) -> List[Hashable]:
        return sorted(self._last, key=str)

    def __len__(self) -> int:
        return len(self._last)

    def __contains__(self, key: object) -> bool:
        return key in self._last
