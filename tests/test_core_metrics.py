"""Unit tests for sliding-window load metrics."""

import pytest

from repro.core.metrics import LoadMetricKind, ServerMetrics, WindowCounter
from repro.errors import ConfigError


class TestWindowCounter:
    def test_rate_within_window(self):
        counter = WindowCounter(window=10.0)
        for t in range(5):
            counter.record(float(t))
        assert counter.rate(4.0) == pytest.approx(0.5)

    def test_old_events_pruned(self):
        counter = WindowCounter(window=10.0)
        counter.record(0.0)
        counter.record(5.0)
        assert counter.rate(20.0) == 0.0

    def test_boundary_event_excluded(self):
        counter = WindowCounter(window=10.0)
        counter.record(0.0)
        # An event exactly one window old falls out.
        assert counter.rate(10.0) == 0.0

    def test_weighted_events(self):
        counter = WindowCounter(window=2.0)
        counter.record(0.0, weight=100.0)
        counter.record(1.0, weight=50.0)
        assert counter.rate(1.0) == pytest.approx(75.0)

    def test_count_in_window(self):
        counter = WindowCounter(window=10.0)
        counter.record(0.0)
        counter.record(8.0)
        assert counter.rate(9.0) * counter.window == pytest.approx(2.0)
        assert counter.rate(15.0) * counter.window == pytest.approx(1.0)

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ConfigError):
            WindowCounter(0.0)

    def test_empty_counter_rate_zero(self):
        assert WindowCounter(5.0).rate(100.0) == 0.0


class TestServerMetrics:
    def test_cps_and_bps(self):
        metrics = ServerMetrics(window=10.0)
        for t in range(10):
            metrics.record_connection(float(t), bytes_sent=1000)
        now = 9.5
        assert metrics.cps(now) == pytest.approx(1.0)
        assert metrics.bps(now) == pytest.approx(1000.0)

    def test_load_metric_kind_selects_measure(self):
        metrics = ServerMetrics(window=10.0)
        metrics.record_connection(0.0, bytes_sent=5000)
        assert metrics.load_metric(1.0, LoadMetricKind.CPS) == \
            pytest.approx(0.1)
        assert metrics.load_metric(1.0, LoadMetricKind.BPS) == \
            pytest.approx(500.0)

    def test_drop_and_redirect_counters(self):
        metrics = ServerMetrics(window=10.0)
        metrics.record_drop(0.0)
        metrics.record_redirect(0.0)
        metrics.record_reconstruction(0.0)
        # Drops average over 4 windows (stable drop-pressure signal).
        assert metrics.drops.rate(1.0) == pytest.approx(1.0 / 40.0)
        assert metrics.redirects.rate(1.0) == pytest.approx(0.1)
        assert metrics.reconstructions.rate(1.0) == pytest.approx(0.1)
