"""Unit tests for access-log replay against the simulated cluster."""

import pytest

from repro.core.config import ServerConfig
from repro.datasets.logs import LogRecord, generate_access_log
from repro.datasets.synthetic import build_synthetic_site
from repro.sim.cluster import ClusterConfig, SimCluster
from repro.sim.replay import ReplayClient


def make_cluster(prewarm=True, servers=2):
    site = build_synthetic_site(pages=20, images=6, fanout=3, seed=4)
    config = ClusterConfig(servers=servers, clients=0, duration=30.0,
                           sample_interval=10.0, seed=1,
                           server_config=ServerConfig().scaled(0.2),
                           prewarm=prewarm)
    return site, SimCluster(site, config)


class TestReplay:
    def test_replays_whole_trace(self):
        site, cluster = make_cluster()
        records = [LogRecord(time=float(i), client="c", path=name)
                   for i, name in enumerate(sorted(site.documents)[:10])]
        replayer = ReplayClient(cluster, records)
        cluster.run(extra_setup=lambda c: replayer.start())
        assert replayer.stats.issued >= len(records)
        assert replayer.stats.succeeded + replayer.stats.failed + \
            replayer.stats.dropped >= len(records)

    def test_stale_urls_redirect_on_warmed_cluster(self):
        site, cluster = make_cluster(prewarm=True)
        records = generate_access_log(site, duration=20.0,
                                      sequences_per_second=1.0, seed=3)
        replayer = ReplayClient(cluster, records)
        cluster.run(extra_setup=lambda c: replayer.start())
        # Prewarm migrated half the documents: some replays must bounce.
        assert replayer.stats.redirected > 0
        assert replayer.redirect_fraction > 0.0
        # And they ultimately succeed.
        assert replayer.stats.succeeded > 0
        assert replayer.stats.failed == 0

    def test_cold_cluster_never_redirects(self):
        site, cluster = make_cluster(prewarm=False)
        records = [LogRecord(time=float(i), client="c", path=name)
                   for i, name in enumerate(sorted(site.documents)[:10])]
        replayer = ReplayClient(cluster, records)
        cluster.run(extra_setup=lambda c: replayer.start())
        assert replayer.stats.redirected == 0
        assert replayer.redirect_fraction == 0.0

    def test_time_scale_compresses_schedule(self):
        site, cluster = make_cluster()
        records = [LogRecord(time=0.0, client="c", path="/page000.html"),
                   LogRecord(time=1000.0, client="c", path="/page001.html")]
        replayer = ReplayClient(cluster, records, time_scale=0.01)
        cluster.run(extra_setup=lambda c: replayer.start())
        # Both requests fit in the 30 s run thanks to the 100x compression.
        assert replayer.stats.issued >= 2

    def test_rejects_bad_time_scale(self):
        site, cluster = make_cluster()
        with pytest.raises(ValueError):
            ReplayClient(cluster, [], time_scale=0.0)

    def test_unknown_path_404s_but_is_counted(self):
        site, cluster = make_cluster(prewarm=False)
        records = [LogRecord(time=0.0, client="c", path="/ghost.html")]
        replayer = ReplayClient(cluster, records)
        cluster.run(extra_setup=lambda c: replayer.start())
        assert replayer.stats.failed == 1
        assert 404 in replayer.stats.statuses
