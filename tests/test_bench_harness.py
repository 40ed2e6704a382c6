"""Unit tests for the benchmark harness (scales, config building)."""

from dataclasses import replace

import pytest

from repro.bench.harness import (
    FULL_SCALE,
    PAPER_SCALE,
    QUICK_SCALE,
    build_site,
    cluster_config,
    current_scale,
    run_dcws,
    saturating_clients,
    scaled_costs,
    scaled_server_config,
)
from repro.core.config import ServerConfig


class TestScales:
    def test_default_scale_is_quick(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert current_scale() is QUICK_SCALE

    def test_env_selects_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "paper")
        assert current_scale() is PAPER_SCALE
        monkeypatch.setenv("REPRO_BENCH_SCALE", "full")
        assert current_scale() is FULL_SCALE

    def test_unknown_scale_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "warp9")
        assert current_scale() is QUICK_SCALE

    def test_paper_scale_keeps_table1(self):
        config = scaled_server_config(PAPER_SCALE)
        assert config == ServerConfig()

    def test_quick_scale_compresses_intervals(self):
        config = scaled_server_config(QUICK_SCALE)
        assert config.stats_interval == pytest.approx(
            10.0 * QUICK_SCALE.time_factor)
        assert config.validation_interval / config.stats_interval == \
            pytest.approx(12.0)

    def test_scaled_costs_compress_backoff(self):
        costs = scaled_costs(QUICK_SCALE)
        assert costs.backoff_base == pytest.approx(QUICK_SCALE.time_factor)
        # Server-side constants are untouched.
        assert costs.request_cpu == pytest.approx(0.001)


class TestBuilders:
    def test_build_site_by_name(self):
        site = build_site("lod")
        assert site.name == "lod"

    def test_build_site_unknown(self):
        with pytest.raises(KeyError):
            build_site("nope")

    def test_saturating_clients(self):
        assert saturating_clients(QUICK_SCALE, 4) == \
            4 * QUICK_SCALE.clients_per_server

    def test_cluster_config_defaults(self):
        config = cluster_config(QUICK_SCALE, servers=3, clients=7)
        assert config.servers == 3
        assert config.clients == 7
        assert config.duration == QUICK_SCALE.duration
        assert config.prewarm


class TestRunDcws:
    def test_tiny_run_produces_result(self):
        site = build_site("lod")
        result = run_dcws(site, servers=2, clients=8,
                          scale=replace(QUICK_SCALE, duration=10.0))
        assert result.client_stats.requests > 0
        assert len(result.series) > 0
        assert result.config.servers == 2
