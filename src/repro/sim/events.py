"""The discrete-event loop: a priority queue of timestamped callbacks.

Virtual time only advances when an event fires; a 30-minute experiment
costs exactly as much wall clock as its events do.  Events at equal
timestamps fire in scheduling order (a stable sequence number breaks
ties), which keeps runs deterministic for fixed seeds.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError


class EventLoop:
    """A minimal, deterministic discrete-event scheduler."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = start
        self._sequence = 0
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._processed = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._processed

    @property
    def pending(self) -> int:
        return len(self._queue)

    def schedule(self, when: float, callback: Callable[[], None]) -> None:
        """Arrange for *callback* to fire at virtual time *when*.

        Scheduling in the past is a programming error and raises
        :class:`repro.errors.SimulationError`.
        """
        if when < self._now:
            raise SimulationError(
                f"event scheduled in the past: {when} < now {self._now}")
        heapq.heappush(self._queue, (when, self._sequence, callback))
        self._sequence += 1

    def schedule_after(self, delay: float,
                       callback: Callable[[], None]) -> None:
        """Schedule *callback* *delay* seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self.schedule(self._now + delay, callback)

    def run_until(self, end: float,
                  max_events: Optional[int] = None) -> int:
        """Fire events in timestamp order until *end* (inclusive).

        Returns the number of events processed.  ``max_events`` is a
        runaway guard for property tests.
        """
        fired = 0
        while self._queue and self._queue[0][0] <= end:
            when, __, callback = heapq.heappop(self._queue)
            self._now = when
            callback()
            fired += 1
            self._processed += 1
            if max_events is not None and fired >= max_events:
                break
        if self._now < end:
            self._now = end
        return fired

    def every(self, interval: float, callback: Callable[[], None], *,
              end: float = float("inf"), start_offset: float = 0.0) -> None:
        """Fire *callback* every *interval* seconds until *end*.

        The callback receives no arguments; read the loop's ``now`` for
        the current time.
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive: {interval}")

        first = self._now + (start_offset if start_offset > 0 else interval)

        def _tick_wrapper(when: float) -> None:
            callback()
            following = when + interval
            if following <= end:
                self.schedule(following, lambda: _tick_wrapper(following))

        if first <= end:
            self.schedule(first, lambda: _tick_wrapper(first))
