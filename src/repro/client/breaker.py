"""Per-peer circuit breakers for server-to-server channels.

The pinger detects dead co-ops only after one ``pinger_interval`` of
staleness plus ``ping_failure_limit`` failed probes; until then,
every lazy pull or validation toward a dead peer burned a full connect
timeout *per request*.  A :class:`CircuitBreaker` moves failure detection
onto the data path: consecutive transport failures *open* the breaker,
subsequent fetches short-circuit instantly (:class:`BreakerOpenError`,
an ``OSError`` so every existing peer-failure handler applies), and after
a jittered exponential backoff the breaker goes *half-open*, letting a
bounded probe budget through.  A probe success closes it; a probe failure
re-opens it with doubled backoff.

The breaker lives in :class:`repro.client.pool.ConnectionPool` (one per
host, covering pulls, validations and pings alike); the engine reads its
state for migration-target exclusion and the ``/~dcws/peers`` endpoint.
All methods are thread-safe.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class BreakerOpenError(ConnectionError):
    """The peer's circuit is open: fail fast instead of burning a timeout.

    Subclasses ``ConnectionError`` (hence ``OSError``) so callers that
    already treat transport errors as peer failure need no new handling.
    """

    def __init__(self, peer: str, retry_after: float) -> None:
        super().__init__(f"circuit open for {peer}; "
                         f"retry in {max(retry_after, 0.0):.3f}s")
        self.peer = peer
        self.retry_after = retry_after


@dataclass
class _PeerState:
    state: str = CLOSED
    consecutive_failures: int = 0
    open_count: int = 0        # consecutive opens (drives the backoff)
    retry_at: float = 0.0      # when an open breaker admits a probe
    probes: int = 0            # half-open probes currently in flight
    trips: int = 0             # lifetime closed->open transitions
    last_success: Optional[float] = None
    last_failure: Optional[float] = None


def build_breaker(config) -> "Optional[CircuitBreaker]":
    """A :class:`CircuitBreaker` from a ``ServerConfig``'s breaker knobs,
    or ``None`` when ``config.circuit_breaker`` is off (duck-typed so the
    client layer needs no import from :mod:`repro.core.config`)."""
    if not getattr(config, "circuit_breaker", False):
        return None
    return CircuitBreaker(
        failure_threshold=config.breaker_failure_threshold,
        reset_timeout=config.breaker_reset_timeout,
        jitter=config.breaker_jitter)


class CircuitBreaker:
    """Closed / open / half-open state per peer, with jittered backoff."""

    def __init__(self, *, failure_threshold: int = 3,
                 reset_timeout: float = 0.5,
                 max_reset_timeout: float = 30.0,
                 half_open_probes: int = 1,
                 jitter: float = 0.1,
                 seed: int = 0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout <= 0 or max_reset_timeout < reset_timeout:
            raise ValueError("need 0 < reset_timeout <= max_reset_timeout")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.max_reset_timeout = max_reset_timeout
        self.half_open_probes = half_open_probes
        self.jitter = jitter
        self.clock = clock
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._peers: Dict[str, _PeerState] = {}

    # ------------------------------------------------------------------
    # The data-path protocol: check(), then record_success/record_failure
    # ------------------------------------------------------------------

    def check(self, peer: str, now: Optional[float] = None) -> None:
        """Gate one fetch toward *peer*.

        Raises :class:`BreakerOpenError` while the circuit is open (or
        half-open with its probe budget exhausted); otherwise admits the
        fetch — and, in half-open state, counts it against the probe
        budget until its outcome is recorded.
        """
        if now is None:
            now = self.clock()
        with self._lock:
            state = self._peers.get(peer)
            if state is None or state.state == CLOSED:
                return
            if state.state == OPEN:
                if now < state.retry_at:
                    raise BreakerOpenError(peer, state.retry_at - now)
                state.state = HALF_OPEN
                state.probes = 0
            if state.probes >= self.half_open_probes:
                raise BreakerOpenError(peer, 0.0)
            state.probes += 1

    def record_success(self, peer: str, now: Optional[float] = None) -> None:
        if now is None:
            now = self.clock()
        with self._lock:
            state = self._peers.get(peer)
            if state is None:
                state = self._peers[peer] = _PeerState()
            if state.probes > 0:
                state.probes -= 1
            state.state = CLOSED
            state.consecutive_failures = 0
            state.open_count = 0
            state.last_success = now

    def record_failure(self, peer: str, now: Optional[float] = None) -> None:
        if now is None:
            now = self.clock()
        with self._lock:
            state = self._peers.get(peer)
            if state is None:
                state = self._peers[peer] = _PeerState()
            if state.probes > 0:
                state.probes -= 1
            state.consecutive_failures += 1
            state.last_failure = now
            trip = (state.state == HALF_OPEN
                    or (state.state == CLOSED
                        and state.consecutive_failures
                        >= self.failure_threshold))
            if trip:
                self._trip_locked(state, now)

    def trip(self, peer: str, now: Optional[float] = None) -> None:
        """Force the circuit open — the peer was declared dead out of
        band (e.g. by the health monitor); it heals through the normal
        half-open probe path when the peer answers again."""
        if now is None:
            now = self.clock()
        with self._lock:
            state = self._peers.get(peer)
            if state is None:
                state = self._peers[peer] = _PeerState()
            self._trip_locked(state, now)

    def allow_probe(self, peer: str, now: Optional[float] = None) -> None:
        """Collapse an open circuit's remaining backoff so the very next
        fetch toward *peer* is admitted as the half-open trial probe.

        The rediscovery daemon paces its own (exponentially backed-off)
        re-probe schedule for dead peers; when a probe is due it must
        actually reach the wire rather than fast-fail against a breaker
        whose independent backoff has not elapsed.  The probe then heals
        or re-opens the circuit through the normal half-open machinery.
        """
        if now is None:
            now = self.clock()
        with self._lock:
            state = self._peers.get(peer)
            if state is not None and state.state == OPEN:
                state.retry_at = min(state.retry_at, now)

    def _trip_locked(self, state: _PeerState, now: float) -> None:
        if state.state != OPEN:
            state.trips += 1
        state.state = OPEN
        state.open_count += 1
        backoff = min(
            self.reset_timeout * (2 ** (state.open_count - 1)),
            self.max_reset_timeout)
        backoff *= 1.0 + self._rng.uniform(0.0, self.jitter)
        state.retry_at = now + backoff

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def state(self, peer: str) -> str:
        with self._lock:
            record = self._peers.get(peer)
            return record.state if record else CLOSED

    def is_open(self, peer: str, now: Optional[float] = None) -> bool:
        """Open *and* still inside its backoff window (a half-open-able
        breaker should not exclude the peer from consideration)."""
        if now is None:
            now = self.clock()
        with self._lock:
            record = self._peers.get(peer)
            return (record is not None and record.state == OPEN
                    and now < record.retry_at)

    def total_trips(self) -> int:
        with self._lock:
            return sum(state.trips for state in self._peers.values())

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Per-peer breaker state for the ``/~dcws/peers`` endpoint."""
        with self._lock:
            return {
                peer: {
                    "state": state.state,
                    "consecutive_failures": state.consecutive_failures,
                    "trips": state.trips,
                    "retry_at": state.retry_at,
                    "last_success": state.last_success,
                    "last_failure": state.last_failure,
                }
                for peer, state in self._peers.items()
            }

    def forget(self, peer: str) -> None:
        with self._lock:
            self._peers.pop(peer, None)

    def __repr__(self) -> str:
        with self._lock:
            opened = sum(1 for s in self._peers.values() if s.state != CLOSED)
        return (f"CircuitBreaker(peers={len(self._peers)}, "
                f"not_closed={opened})")
