"""Unit tests for consistency timers (DueTracker)."""

from repro.core.consistency import DueTracker


class TestDueTracker:
    def test_not_due_before_interval(self):
        tracker = DueTracker(interval=120.0)
        tracker.register("/doc", now=0.0)
        assert tracker.due(now=60.0) == []

    def test_due_after_interval(self):
        tracker = DueTracker(interval=120.0)
        tracker.register("/doc", now=0.0)
        assert tracker.due(now=120.0) == ["/doc"]

    def test_mark_resets_clock(self):
        tracker = DueTracker(interval=100.0)
        tracker.register("/doc", now=0.0)
        tracker.mark("/doc", now=150.0)
        assert tracker.due(now=200.0) == []
        assert tracker.due(now=250.0) == ["/doc"]

    def test_register_is_idempotent(self):
        tracker = DueTracker(interval=10.0)
        tracker.register("/doc", now=0.0)
        tracker.register("/doc", now=9.0)  # must not push back the deadline
        assert tracker.due(now=10.0) == ["/doc"]

    def test_forget(self):
        tracker = DueTracker(interval=10.0)
        tracker.register("/doc", now=0.0)
        tracker.forget("/doc")
        assert tracker.due(now=100.0) == []
        assert "/doc" not in tracker

    def test_due_sorted_for_determinism(self):
        tracker = DueTracker(interval=1.0)
        tracker.register("/b", now=0.0)
        tracker.register("/a", now=0.0)
        assert tracker.due(now=5.0) == ["/a", "/b"]

    def test_len_and_keys(self):
        tracker = DueTracker(interval=1.0)
        tracker.register("x", 0.0)
        tracker.register("y", 0.0)
        assert len(tracker) == 2
        assert tracker.keys() == ["x", "y"]
        assert tracker.last_serviced("x") == 0.0
        assert tracker.last_serviced("absent") is None
