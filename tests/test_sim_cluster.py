"""Integration-style tests for the simulated cluster."""

import pytest

from repro.core.config import ServerConfig
from repro.datasets.synthetic import build_synthetic_site
from repro.errors import SimulationError
from repro.http.urls import URL, join_url
from repro.sim.cluster import ClusterConfig, SimCluster
from repro.sim.network import CostModel
from repro.sim.simclient import get_head


def quick_config(**kwargs):
    defaults = dict(
        servers=2, clients=8, duration=20.0, sample_interval=5.0, seed=3,
        server_config=ServerConfig().scaled(0.2),
    )
    defaults.update(kwargs)
    return ClusterConfig(**defaults)


def small_site(**kwargs):
    defaults = dict(pages=20, images=8, fanout=4, seed=5)
    defaults.update(kwargs)
    return build_synthetic_site(**defaults)


class TestConstruction:
    def test_rejects_zero_servers(self):
        with pytest.raises(Exception):
            SimCluster(small_site(), quick_config(servers=0))

    def test_rejects_more_sites_than_servers(self):
        sites = [small_site(seed=1), small_site(seed=2), small_site(seed=3)]
        with pytest.raises(SimulationError):
            SimCluster(sites, quick_config(servers=2))

    def test_entry_urls_point_at_homes(self):
        cluster = SimCluster(small_site(), quick_config())
        assert all(u.host == "server0" for u in cluster.entry_urls)

    def test_multi_site_homes(self):
        sites = [small_site(seed=1, name="one"), small_site(seed=2, name="two")]
        cluster = SimCluster(sites, quick_config(servers=3))
        hosts = {u.host for u in cluster.entry_urls}
        assert hosts == {"server0", "server1"}

    def test_keep_alive_knob_enables_persistent_cost_model(self):
        plain = SimCluster(small_site(), quick_config())
        persistent = SimCluster(small_site(), quick_config(
            costs=CostModel(keep_alive=True)))
        assert not plain.config.costs.keep_alive
        assert persistent.config.costs.keep_alive
        assert persistent.config.costs.effective_connection_overhead() < \
            plain.config.costs.effective_connection_overhead()


class TestRun:
    def test_progress_and_conservation(self):
        cluster = SimCluster(small_site(), quick_config())
        result = cluster.run()
        assert result.client_stats.requests > 100
        assert result.events_processed > 0
        served = sum(info["served"] for info in result.per_server.values())
        dropped = sum(info["dropped"] for info in result.per_server.values())
        # Every client-visible outcome was either served or dropped; no
        # request is both (serves include server-to-server transfers).
        assert served >= result.client_stats.requests - \
            result.client_stats.drops - result.client_stats.errors
        assert dropped == result.drops

    def test_deterministic_given_seed(self):
        first = SimCluster(small_site(), quick_config()).run()
        second = SimCluster(small_site(), quick_config()).run()
        assert first.client_stats.requests == second.client_stats.requests
        assert first.series.cps_series() == second.series.cps_series()
        assert first.migrations == second.migrations

    def test_different_seeds_differ(self):
        first = SimCluster(small_site(), quick_config(seed=1)).run()
        second = SimCluster(small_site(), quick_config(seed=2)).run()
        assert first.client_stats.requests != second.client_stats.requests

    def test_samples_cover_duration(self):
        result = SimCluster(small_site(), quick_config()).run()
        times = result.series.times()
        assert times[0] == pytest.approx(5.0)
        assert times[-1] == pytest.approx(20.0)

    def test_ldg_invariants_hold_after_run(self):
        cluster = SimCluster(small_site(), quick_config())
        cluster.run()
        for server in cluster.servers.values():
            server.engine.graph.check_invariants()

    def test_migrations_occur_under_load(self):
        config = quick_config(servers=4, clients=32, duration=40.0)
        result = SimCluster(small_site(pages=40), config).run()
        assert result.migrations > 0
        hosted = sum(info["hosted"] for info in result.per_server.values())
        assert hosted > 0


class TestPrewarm:
    def test_prewarm_distributes_documents(self):
        cluster = SimCluster(small_site(), quick_config(prewarm=True))
        result = cluster.run()
        home = cluster.servers["server0:80"].engine
        assert len(home.graph.migrated_documents()) > 0
        hosted = sum(info["hosted"] for info in result.per_server.values())
        assert hosted == len(home.graph.migrated_documents())

    def test_prewarm_keeps_entry_points_home(self):
        cluster = SimCluster(small_site(), quick_config(prewarm=True))
        home = cluster.servers["server0:80"].engine
        cluster.run()
        for record in home.graph.entry_points():
            assert record.location == home.location

    def test_prewarm_leaves_no_dirty_documents(self):
        cluster = SimCluster(small_site(), quick_config(prewarm=True))
        home = cluster.servers["server0:80"].engine
        # Before the run starts, prewarm happens inside run(); emulate by
        # running for zero duration.
        config = quick_config(prewarm=True, duration=0.0)
        cluster = SimCluster(small_site(), config)
        cluster.run()
        home = cluster.servers["server0:80"].engine
        assert all(not r.dirty for r in home.graph.documents())

    def test_prewarm_beats_cold_start_early(self):
        site = small_site(pages=40)
        cold = SimCluster(site, quick_config(servers=4, clients=32)).run()
        warm = SimCluster(site, quick_config(servers=4, clients=32,
                                             prewarm=True)).run()
        assert warm.series.cps_series()[0] > cold.series.cps_series()[0]


class TestFailureInjection:
    def test_coop_crash_revokes_documents(self):
        site = small_site(pages=40)
        config = quick_config(servers=2, clients=16, duration=60.0,
                              prewarm=True)
        cluster = SimCluster(site, config)

        def crash_later(c):
            c.loop.schedule(20.0, lambda: c.crash_server(1))

        result = cluster.run(extra_setup=crash_later)
        home = cluster.servers["server0:80"].engine
        # After detection, documents migrated to the dead co-op come home.
        assert result.revocations > 0
        assert len(home.graph.migrated_documents()) == 0
        assert home.glt.peers() == []

    def test_home_crash_leaves_coop_copies_available(self):
        site = small_site(pages=40)
        config = quick_config(servers=2, clients=16, duration=40.0,
                              prewarm=True)
        cluster = SimCluster(site, config)
        coop = cluster.servers["server1:80"].engine

        def crash_home(c):
            c.loop.schedule(20.0, lambda: c.crash_server(0))

        cluster.run(extra_setup=crash_home)
        # The co-op must not discard its copies (section 4.5, case 4).
        assert any(h.fetched for h in coop.hosted.values())


class TestWarmRoute:
    """Client GETs reach the engines through the sockets' warm route."""

    @staticmethod
    def fetch(cluster, url):
        """One client GET of *url*, run to its answer."""
        answers = []
        cluster.client_send(url, get_head(url), answers.append)
        cluster.loop.run_until(cluster.loop.now + 5.0)
        assert len(answers) == 1 and answers[0] is not None
        return answers[0]

    def test_a_migrated_name_is_redirected_once_its_copy_is_clean(self):
        cluster = SimCluster(small_site(), quick_config(duration=10.0))
        cluster.run()
        home, coop = (cluster.servers[str(location)].engine
                      for location in cluster.locations)
        assert home.stats.fast_hits > 0 and coop.stats.fast_hits > 0
        record = next(record for record in home.graph.documents()
                      if record.is_html and not record.entry_point
                      and record.location == home.location)
        url = URL(home.location.host, home.location.port, record.name)
        warm = home.stats.fast_hits
        assert self.fetch(cluster, url).status == 200
        assert home.stats.fast_hits == warm + 1
        home.policy.force_migrate(record.name, coop.location,
                                  cluster.loop.now)
        moved = self.fetch(cluster, url)
        assert moved.status == 301
        # Following it makes the co-op pull: the home regenerates the
        # page, so its copy is clean and cached again, and only the
        # location rule keeps the warm route from answering 200.
        assert self.fetch(cluster, join_url(
            url, moved.headers.get("Location"))).status == 200
        assert not home.graph.get(record.name).dirty
        again = self.fetch(cluster, url)
        assert again.status == 301
        assert again.headers.get("Location") == moved.headers.get("Location")
