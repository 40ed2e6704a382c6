"""Unit tests for access-log synthesis."""

import pytest

from repro.datasets.logs import generate_access_log, site_link_graph
from repro.datasets.synthetic import build_synthetic_site


@pytest.fixture(scope="module")
def site():
    return build_synthetic_site(pages=15, images=5, fanout=3, seed=4)


@pytest.fixture(scope="module")
def trace(site):
    return generate_access_log(site, duration=60.0,
                               sequences_per_second=1.0, seed=2)


class TestGeneration:
    def test_records_sorted_by_time(self, trace):
        times = [record.time for record in trace]
        assert times == sorted(times)

    def test_every_path_exists_on_site(self, site, trace):
        for record in trace:
            assert record.path in site.documents

    def test_first_request_of_each_client_is_an_entry(self, site, trace):
        seen = set()
        for record in trace:
            if record.client not in seen:
                seen.add(record.client)
                if record.path.endswith(".html"):
                    assert record.path in site.entry_points

    def test_deterministic(self, site):
        first = generate_access_log(site, duration=30.0, seed=9)
        second = generate_access_log(site, duration=30.0, seed=9)
        assert first == second

    def test_sequences_respect_duration(self, trace):
        span = trace[-1].time - trace[0].time
        # Walks may run past the arrival cutoff, but not unboundedly.
        assert span < 60.0 + 25 * 3.0

    def test_statistics(self, trace):
        assert len({record.client for record in trace}) > 10


class TestLinkGraph:
    def test_graph_matches_site(self, site):
        graph = site_link_graph(site)
        assert set(graph) == set(site.documents)
        for name, targets in graph.items():
            for target in targets:
                assert target in site.documents

    def test_images_have_no_outlinks(self, site):
        graph = site_link_graph(site)
        for name in site.documents:
            if name.endswith(".gif"):
                assert graph[name] == []

