"""Unit tests for the discrete-event loop."""

import pytest

from repro.errors import SimulationError
from repro.sim.events import EventLoop


class TestScheduling:
    def test_events_fire_in_time_order(self):
        loop = EventLoop()
        fired = []
        loop.schedule(3.0, lambda: fired.append("c"))
        loop.schedule(1.0, lambda: fired.append("a"))
        loop.schedule(2.0, lambda: fired.append("b"))
        loop.run_until(10.0)
        assert fired == ["a", "b", "c"]

    def test_equal_times_fire_in_schedule_order(self):
        loop = EventLoop()
        fired = []
        for label in "abc":
            loop.schedule(1.0, lambda l=label: fired.append(l))
        loop.run_until(1.0)
        assert fired == ["a", "b", "c"]

    def test_now_advances_with_events(self):
        loop = EventLoop()
        seen = []
        loop.schedule(2.5, lambda: seen.append(loop.now))
        loop.run_until(10.0)
        assert seen == [2.5]
        assert loop.now == 10.0

    def test_scheduling_in_past_rejected(self):
        loop = EventLoop()
        loop.schedule(5.0, lambda: loop.schedule(1.0, lambda: None))
        with pytest.raises(SimulationError):
            loop.run_until(10.0)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventLoop().schedule_after(-1.0, lambda: None)

    def test_schedule_after(self):
        loop = EventLoop(start=5.0)
        fired = []
        loop.schedule_after(2.0, lambda: fired.append(loop.now))
        loop.run_until(10.0)
        assert fired == [7.0]

    def test_events_scheduled_during_run_fire(self):
        loop = EventLoop()
        fired = []

        def first():
            fired.append("first")
            loop.schedule_after(1.0, lambda: fired.append("second"))

        loop.schedule(1.0, first)
        loop.run_until(5.0)
        assert fired == ["first", "second"]

    def test_run_until_is_inclusive(self):
        loop = EventLoop()
        fired = []
        loop.schedule(5.0, lambda: fired.append(1))
        loop.run_until(5.0)
        assert fired == [1]

    def test_events_beyond_end_stay_queued(self):
        loop = EventLoop()
        fired = []
        loop.schedule(5.0, lambda: fired.append(1))
        loop.run_until(4.0)
        assert fired == []
        assert loop.pending == 1
        loop.run_until(5.0)
        assert fired == [1]

    def test_counters(self):
        loop = EventLoop()
        for t in range(3):
            loop.schedule(float(t), lambda: None)
        assert loop.run_until(10.0) == 3
        assert loop.events_processed == 3


class TestEvery:
    def test_periodic_firing(self):
        loop = EventLoop()
        fired = []
        loop.every(10.0, lambda: fired.append(loop.now), end=35.0)
        loop.run_until(100.0)
        assert fired == [10.0, 20.0, 30.0]

    def test_start_offset(self):
        loop = EventLoop()
        fired = []
        loop.every(10.0, lambda: fired.append(loop.now), end=25.0,
                   start_offset=3.0)
        loop.run_until(100.0)
        assert fired == [3.0, 13.0, 23.0]

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(SimulationError):
            EventLoop().every(0.0, lambda: None)
