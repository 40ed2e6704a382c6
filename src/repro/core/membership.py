"""Adaptive cluster membership: accrual failure detection + rediscovery.

The paper's prototype declares a co-op dead after a fixed number of
consecutive failed pings (section 4.5, case 3) and then forgets it: the
peer is dropped from the GLT, so the pinger never probes it again and a
*falsely*-dead peer — merely slow, or behind a transient partition — can
only return via gossip from a third server that still remembers it.  The
delay-aware load-management line of work (Skowron & Rzadca) argues both
detection and targeting should key off *measured per-peer timing* rather
than fixed counts.  This module provides that machinery, transport-free
so the real hosts and the simulator share it:

- :class:`AccrualFailureDetector` — a φ-style suspicion score computed
  from the inter-arrival distribution of per-peer successes (pings,
  pulls, validations, piggybacked gossip alike).  Silence is judged
  against how often the peer *usually* talks to us, not a fixed count.
- :class:`MembershipTable` — the per-peer **alive → suspect → dead →
  forgotten** state machine.  A slow peer degrades to *suspect*
  (excluded from migration/repair targets, its hosted documents kept)
  before it is ever declared dead; explicit transport failures escalate
  faster than silence.  Dead transitions are *recommended*, never
  self-applied — the engine applies them exactly once through its
  journaled ``_declare_dead`` path, which makes the historical
  double-declaration (ping path and pull path racing in one tick)
  structurally impossible.
- A rediscovery schedule: dead/forgotten peers from the static
  configured peer list are re-probed at a jittered, exponentially
  backed-off low rate, so a false death heals without external gossip.

All timestamps are the caller's explicit ``now`` (monotonic in the real
hosts, virtual in the simulator); nothing here reads a wall clock.
"""

from __future__ import annotations

import math
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"
FORGOTTEN = "forgotten"

_LN10 = math.log(10.0)
#: EWMA weight of each new round-trip-time sample.
RTT_ALPHA = 0.2


class AccrualFailureDetector:
    """φ-style suspicion from per-peer success inter-arrival times.

    Each :meth:`heartbeat` records one success arrival; :meth:`phi`
    scores the current silence against the learned arrival process.
    Modelling inter-arrivals as exponential with scale ``mean + stddev``
    (the +stddev widens the model so pure jitter is absorbed), the
    probability a live peer stays silent for *t* seconds is
    ``exp(-t / scale)`` and::

        phi(t) = -log10 P(silence >= t) = t / (scale * ln 10)

    so phi 1 means 90 % confidence the peer is gone, phi 2 means 99 %,
    and so on.  Peers with fewer than ``min_samples`` observed intervals
    score 0 — silence from a peer we have barely heard from is not
    evidence (bootstrap safety).  ``floor`` is the minimum modelled
    scale: hosts pass their guaranteed heartbeat cadence (the pinger
    interval) so a burst of rapid data-path successes cannot shrink the
    model below the rate at which heartbeats are actually promised.
    """

    def __init__(self, *, window: int = 32, min_samples: int = 3,
                 floor: float = 0.1) -> None:
        if window < 2:
            raise ValueError("window must be >= 2")
        if min_samples < 2:
            raise ValueError("min_samples must be >= 2")
        if floor <= 0:
            raise ValueError("floor must be positive")
        self.window = window
        self.min_samples = min_samples
        self.floor = floor
        self._last: Dict[str, float] = {}
        self._intervals: Dict[str, Deque[float]] = {}

    def heartbeat(self, peer: str, now: float) -> None:
        """Record one success arrival from *peer* at *now*."""
        last = self._last.get(peer)
        if last is not None:
            interval = now - last
            if interval > 0.0:
                bucket = self._intervals.get(peer)
                if bucket is None:
                    bucket = self._intervals[peer] = deque(
                        maxlen=self.window)
                bucket.append(interval)
        # Same-instant repeats (piggyback bursts in one tick) refresh the
        # arrival time without recording a zero-length interval that
        # would drag the modelled scale toward zero.
        self._last[peer] = max(now, last) if last is not None else now

    def interval_scale(self, peer: str) -> Optional[float]:
        """The modelled inter-arrival scale (mean + stddev, floored), or
        ``None`` while the peer is still in its bootstrap window."""
        bucket = self._intervals.get(peer)
        if bucket is None or len(bucket) < self.min_samples:
            return None
        mean = sum(bucket) / len(bucket)
        variance = sum((x - mean) ** 2 for x in bucket) / len(bucket)
        return max(mean + math.sqrt(variance), self.floor)

    def phi(self, peer: str, now: float) -> float:
        """Current suspicion of *peer*; 0.0 while bootstrapping."""
        last = self._last.get(peer)
        scale = self.interval_scale(peer)
        if last is None or scale is None:
            return 0.0
        elapsed = now - last
        if elapsed <= 0.0:
            return 0.0
        return elapsed / (scale * _LN10)

    def last_arrival(self, peer: str) -> Optional[float]:
        return self._last.get(peer)

    def forget(self, peer: str) -> None:
        """Drop *peer*'s history (declared dead: the old arrival rhythm
        must not instantly re-condemn it after a rejoin)."""
        self._last.pop(peer, None)
        self._intervals.pop(peer, None)


@dataclass
class MembershipCounters:
    """Lifetime membership activity, summed by the cluster sampler."""

    suspicions: int = 0         # transitions into SUSPECT
    deaths: int = 0             # transitions into DEAD
    rediscoveries: int = 0      # DEAD/FORGOTTEN -> ALIVE (false deaths)
    probes_sent: int = 0        # rediscovery probes emitted
    reconcile_drops: int = 0            # rejoin copies that lost
    reconcile_reregistrations: int = 0  # rejoin copies re-registered


@dataclass
class _PeerEntry:
    state: str = ALIVE
    since: float = 0.0
    failures: int = 0           # consecutive explicit transport failures
    configured: bool = False    # on the static peer list (re-probe-able)
    probe_attempts: int = 0
    next_probe_at: float = 0.0
    last_backoff: float = 0.0   # the period behind next_probe_at
    probe_pending: bool = False
    rtt: Optional[float] = None  # smoothed round trip, host-measured


class MembershipTable:
    """The per-peer membership state machine and re-probe scheduler.

    Pure policy: transitions into SUSPECT/ALIVE/FORGOTTEN are applied
    here and *returned*; transitions into DEAD are only ever
    **recommended** (by :meth:`failure` and :meth:`sweep`) and applied by
    the caller via :meth:`mark_dead` — the engine's single journaled
    ``_declare_dead`` site — so death side effects (revocation, GLT
    removal, breaker trip, repair) run exactly once however many
    observation paths noticed the failure.
    """

    def __init__(self, *, suspect_phi: float = 2.0, dead_phi: float = 8.0,
                 failure_limit: int = 3, reprobe_interval: float = 5.0,
                 reprobe_backoff: float = 2.0,
                 reprobe_max_interval: float = 60.0,
                 reprobe_jitter: float = 0.1, forget_after: float = 300.0,
                 detector: Optional[AccrualFailureDetector] = None,
                 seed: int = 0) -> None:
        if not (0.0 < suspect_phi < dead_phi):
            raise ValueError("need 0 < suspect_phi < dead_phi")
        if failure_limit < 1:
            raise ValueError("failure_limit must be >= 1")
        if reprobe_interval <= 0:
            raise ValueError("reprobe_interval must be positive")
        if reprobe_backoff < 1.0:
            raise ValueError("reprobe_backoff must be >= 1")
        if reprobe_max_interval < reprobe_interval:
            raise ValueError(
                "reprobe_max_interval must be >= reprobe_interval")
        if reprobe_jitter < 0:
            raise ValueError("reprobe_jitter must be non-negative")
        if forget_after <= 0:
            raise ValueError("forget_after must be positive")
        self.suspect_phi = suspect_phi
        self.dead_phi = dead_phi
        self.failure_limit = failure_limit
        self.reprobe_interval = reprobe_interval
        self.reprobe_backoff = reprobe_backoff
        self.reprobe_max_interval = reprobe_max_interval
        self.reprobe_jitter = reprobe_jitter
        self.forget_after = forget_after
        self.detector = detector or AccrualFailureDetector()
        self.seed = seed
        self.counters = MembershipCounters()
        self._peers: Dict[str, _PeerEntry] = {}

    @classmethod
    def from_config(cls, config) -> "MembershipTable":
        """Build from a ``ServerConfig``, flooring the detector's modelled
        inter-arrival at the pinger interval — the cadence at which
        heartbeats are actually guaranteed."""
        detector = AccrualFailureDetector(
            floor=max(config.membership_floor, config.pinger_interval))
        return cls(failure_limit=config.ping_failure_limit,
                   reprobe_interval=config.reprobe_interval,
                   reprobe_backoff=config.reprobe_backoff,
                   reprobe_max_interval=config.reprobe_max_interval,
                   reprobe_jitter=config.reprobe_jitter,
                   forget_after=config.membership_forget_after,
                   detector=detector)

    # ------------------------------------------------------------------
    # Registration and lookup
    # ------------------------------------------------------------------

    def register(self, peer: str, *, configured: bool = False,
                 now: float = 0.0) -> None:
        entry = self._peers.get(peer)
        if entry is None:
            self._peers[peer] = _PeerEntry(since=now, configured=configured)
        elif configured:
            entry.configured = True

    def _entry(self, peer: str, now: float) -> _PeerEntry:
        entry = self._peers.get(peer)
        if entry is None:
            entry = self._peers[peer] = _PeerEntry(since=now)
        return entry

    def state(self, peer: str) -> str:
        entry = self._peers.get(peer)
        return entry.state if entry is not None else ALIVE

    def is_dead(self, peer: str) -> bool:
        return self.state(peer) in (DEAD, FORGOTTEN)

    def is_suspect(self, peer: str) -> bool:
        return self.state(peer) == SUSPECT

    def phi(self, peer: str, now: float) -> float:
        return self.detector.phi(peer, now)

    # ------------------------------------------------------------------
    # Evidence: successes and explicit failures
    # ------------------------------------------------------------------

    def heartbeat(self, peer: str, now: float,
                  rtt: Optional[float] = None) -> Optional[Tuple[str, str]]:
        """A success arrived from *peer*.

        Feeds the detector, clears the failure count, folds a
        host-measured *rtt* into the peer's EWMA, and promotes the peer
        back to ALIVE.  Returns the applied ``(old, new)`` transition
        when the state changed (``suspect -> alive`` recovery or
        ``dead/forgotten -> alive`` rejoin), else ``None``.
        """
        entry = self._entry(peer, now)
        self.detector.heartbeat(peer, now)
        entry.failures = 0
        if rtt is not None and rtt >= 0.0:
            entry.rtt = rtt if entry.rtt is None else \
                (1.0 - RTT_ALPHA) * entry.rtt + RTT_ALPHA * rtt
        if entry.state == ALIVE:
            return None
        old = entry.state
        entry.state = ALIVE
        entry.since = now
        entry.probe_attempts = 0
        entry.next_probe_at = 0.0
        entry.last_backoff = 0.0
        entry.probe_pending = False
        if old in (DEAD, FORGOTTEN):
            self.counters.rediscoveries += 1
        return (old, ALIVE)

    def failure(self, peer: str, now: float) -> Optional[str]:
        """An explicit transport failure toward *peer*.

        Escalates ``alive -> suspect`` immediately (applied here, the
        returned value is ``SUSPECT``); once ``failure_limit``
        consecutive failures accumulate, returns ``DEAD`` *without*
        applying it — the caller must route through its single declared-
        dead path.  Failures against already-dead peers (in-flight work
        completing after the declaration, missed rediscovery probes) are
        absorbed silently.
        """
        entry = self._entry(peer, now)
        if entry.state in (DEAD, FORGOTTEN):
            return None
        entry.failures += 1
        if entry.failures >= self.failure_limit:
            return DEAD
        if entry.state == ALIVE:
            entry.state = SUSPECT
            entry.since = now
            self.counters.suspicions += 1
            return SUSPECT
        return None

    def mark_dead(self, peer: str, now: float) -> bool:
        """Apply the DEAD transition; idempotent.

        Returns ``True`` when this call performed the transition (the
        caller then runs the death side effects exactly once) and
        ``False`` when the peer was already dead or forgotten.
        """
        entry = self._entry(peer, now)
        if entry.state in (DEAD, FORGOTTEN):
            return False
        entry.state = DEAD
        entry.since = now
        entry.failures = 0
        entry.probe_attempts = 0
        entry.probe_pending = False
        entry.rtt = None
        self._schedule_probe(peer, entry, now)
        self.detector.forget(peer)
        self.counters.deaths += 1
        return True

    # ------------------------------------------------------------------
    # Periodic evaluation (engine tick)
    # ------------------------------------------------------------------

    def sweep(self, now: float) -> Tuple[List[Tuple[str, str, str]],
                                         List[str]]:
        """Evaluate every peer's suspicion at *now*.

        Returns ``(transitions, deaths)``: *transitions* are applied
        ``(peer, old, new)`` state changes (``alive -> suspect`` when phi
        crossed the suspicion threshold, ``dead -> forgotten`` ageing);
        *deaths* are peers whose suspicion demands a DEAD declaration,
        returned unapplied for the caller's ``_declare_dead``.
        """
        transitions: List[Tuple[str, str, str]] = []
        deaths: List[str] = []
        for peer in sorted(self._peers):
            entry = self._peers[peer]
            if entry.state == ALIVE:
                if self.detector.phi(peer, now) >= self.suspect_phi:
                    entry.state = SUSPECT
                    entry.since = now
                    self.counters.suspicions += 1
                    transitions.append((peer, ALIVE, SUSPECT))
            elif entry.state == SUSPECT:
                if self.detector.phi(peer, now) >= self.dead_phi:
                    deaths.append(peer)
            elif entry.state == DEAD:
                if now - entry.since >= self.forget_after:
                    entry.state = FORGOTTEN
                    entry.since = now
                    transitions.append((peer, DEAD, FORGOTTEN))
        return transitions, deaths

    # ------------------------------------------------------------------
    # Rediscovery: jittered exponential re-probing of dead peers
    # ------------------------------------------------------------------

    def _backoff(self, peer: str, attempts: int) -> float:
        """The re-probe period after *attempts* probes, deterministically
        jittered per (peer, attempt) so replays reproduce exactly and
        co-located daemons do not probe in lockstep."""
        period = min(
            self.reprobe_interval * (self.reprobe_backoff ** attempts),
            self.reprobe_max_interval)
        token = f"{self.seed}:{peer}:{attempts}".encode("utf-8")
        fraction = (zlib.crc32(token) % 1000) / 999.0
        return period * (1.0 + self.reprobe_jitter * fraction)

    def _schedule_probe(self, peer: str, entry: _PeerEntry,
                        now: float) -> None:
        entry.last_backoff = self._backoff(peer, entry.probe_attempts)
        entry.next_probe_at = now + entry.last_backoff

    def due_probes(self, now: float) -> List[str]:
        """Configured dead/forgotten peers whose re-probe is due, sorted
        for determinism.  Only statically configured peers are probed —
        gossip-discovered strangers are somebody else's to rediscover."""
        due = [peer for peer, entry in self._peers.items()
               if entry.configured and entry.state in (DEAD, FORGOTTEN)
               and not entry.probe_pending and now >= entry.next_probe_at]
        return sorted(due)

    def probe_sent(self, peer: str, now: float) -> None:
        """One rediscovery probe left for *peer*: back off the next one.
        The slot stays closed until :meth:`probe_failed` or a heartbeat
        reopens it, so a slow in-flight probe is never duplicated."""
        entry = self._entry(peer, now)
        entry.probe_attempts += 1
        entry.probe_pending = True
        self._schedule_probe(peer, entry, now)
        self.counters.probes_sent += 1

    def probe_failed(self, peer: str, now: float) -> None:
        entry = self._peers.get(peer)
        if entry is not None:
            entry.probe_pending = False

    def reprobe_period(self, peer: str) -> float:
        """The current re-probe period (for "rediscovered within N
        re-probe periods" guarantees); 0 for peers not being probed."""
        entry = self._peers.get(peer)
        return entry.last_backoff if entry is not None else 0.0

    def reprobe_backlog(self) -> int:
        """How many configured peers await rediscovery."""
        return sum(1 for entry in self._peers.values()
                   if entry.configured and entry.state in (DEAD, FORGOTTEN))

    # ------------------------------------------------------------------
    # Introspection and persistence
    # ------------------------------------------------------------------

    def suspects(self) -> List[str]:
        return sorted(p for p, e in self._peers.items()
                      if e.state == SUSPECT)

    def dead_peers(self) -> List[str]:
        return sorted(p for p, e in self._peers.items()
                      if e.state in (DEAD, FORGOTTEN))

    def states(self) -> Dict[str, str]:
        return {peer: entry.state for peer, entry in self._peers.items()}

    def describe(self, peer: str) -> Dict[str, object]:
        entry = self._peers.get(peer)
        if entry is None:
            return {"state": ALIVE}
        return {
            "state": entry.state,
            "since": entry.since,
            "failures": entry.failures,
            "rtt": entry.rtt,
            "configured": entry.configured,
            "probe_attempts": entry.probe_attempts,
            "next_probe_at": entry.next_probe_at,
        }

    def install(self, peer: str, state: str, now: float) -> None:
        """Install *state* outright — journal replay and snapshot
        restore.  Idempotent, no counters, no recommendations: replaying
        a transition twice equals once."""
        if state not in (ALIVE, SUSPECT, DEAD, FORGOTTEN):
            return
        entry = self._entry(peer, now)
        if entry.state == state:
            return
        entry.state = state
        entry.since = now
        entry.failures = 0
        entry.probe_attempts = 0
        entry.probe_pending = False
        if state in (DEAD, FORGOTTEN):
            self._schedule_probe(peer, entry, now)
        else:
            entry.next_probe_at = 0.0
            entry.last_backoff = 0.0

    def snapshot(self) -> List[Dict[str, object]]:
        """Non-alive peers only (an absent row means alive), for the
        engine snapshot."""
        return [{"peer": peer, "state": entry.state, "since": entry.since}
                for peer, entry in sorted(self._peers.items())
                if entry.state != ALIVE]

    def restore(self, rows: List[Dict[str, object]], now: float) -> None:
        for row in rows:
            self.install(str(row.get("peer", "")),
                         str(row.get("state", "")), now)
