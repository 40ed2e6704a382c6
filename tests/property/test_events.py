"""Property tests: event-loop ordering and window-counter bounds."""

from hypothesis import given, settings, strategies as st

from repro.core.metrics import WindowCounter
from repro.sim.events import EventLoop
from repro.sim.network import Serializer

_times = st.lists(st.floats(min_value=0.0, max_value=1e6,
                            allow_nan=False, allow_infinity=False),
                  max_size=50)


@given(_times)
@settings(max_examples=200)
def test_events_fire_in_nondecreasing_time_order(times):
    loop = EventLoop()
    fired = []
    for when in times:
        loop.schedule(when, lambda w=when: fired.append(loop.now))
    loop.run_until(2e6)
    assert fired == sorted(fired)
    assert len(fired) == len(times)


@given(_times)
def test_run_until_processes_exactly_due_events(times):
    cutoff = 5e5
    loop = EventLoop()
    for when in times:
        loop.schedule(when, lambda: None)
    fired = loop.run_until(cutoff)
    assert fired == sum(1 for t in times if t <= cutoff)


@given(st.lists(st.tuples(st.floats(0, 1000, allow_nan=False),
                          st.floats(0, 100, allow_nan=False)), max_size=40))
def test_serializer_intervals_never_overlap(jobs):
    resource = Serializer("r")
    intervals = []
    clock = 0.0
    for earliest, duration in jobs:
        clock = max(clock, earliest)
        intervals.append(resource.reserve(earliest, duration))
    for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
        assert e1 <= s2 or s2 == e1  # strictly sequential
        assert s2 >= s1


@given(st.lists(st.floats(0, 1000, allow_nan=False), min_size=1,
                max_size=60).map(sorted),
       st.floats(0.1, 50, allow_nan=False))
def test_window_rate_bounded_by_event_count(times, window):
    counter = WindowCounter(window)
    for when in times:
        counter.record(when)
    now = times[-1]
    rate = counter.rate(now)
    assert 0.0 <= rate <= len(times) / window
