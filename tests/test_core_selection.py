"""Unit tests for Algorithm 1 (document selection for migration)."""

from repro.core.document import Location
from repro.core.ldg import LocalDocumentGraph
from repro.core.selection import (
    eligible_candidates,
    select_documents_for_migration,
)

HOME = Location("home", 80)
COOP = Location("coop", 80)


def graph_with_hits(hits: dict, entry="/index.html") -> LocalDocumentGraph:
    graph = LocalDocumentGraph(HOME)
    graph.add_document(entry, 100, entry_point=True,
                       link_to=list(hits))
    for name in hits:
        graph.add_document(name, 100)
    for name, count in hits.items():
        graph.record_hit(name, count)
    graph.record_hit(entry, 1000)  # entry is hottest but must never migrate
    return graph


class TestStep2EntryPoints:
    def test_entry_point_never_selected(self):
        graph = graph_with_hits({"/a": 50})
        chosen = select_documents_for_migration(graph, threshold=10)
        assert [r.name for r in chosen] == ["/a"]

    def test_only_entry_points_yields_nothing(self):
        graph = LocalDocumentGraph(HOME)
        graph.add_document("/index.html", 10, entry_point=True)
        graph.record_hit("/index.html", 100)
        assert select_documents_for_migration(graph, threshold=10) == []

    def test_ablation_allows_entry_selection(self):
        graph = LocalDocumentGraph(HOME)
        graph.add_document("/index.html", 10, entry_point=True)
        graph.record_hit("/index.html", 100)
        chosen = select_documents_for_migration(
            graph, threshold=10, protect_entry_points=False)
        assert [r.name for r in chosen] == ["/index.html"]


class TestStep3Threshold:
    def test_cold_documents_filtered(self):
        graph = graph_with_hits({"/hot": 50, "/cold": 2})
        chosen = select_documents_for_migration(graph, threshold=10)
        assert chosen[0].name == "/hot"

    def test_threshold_reduction_when_all_below(self):
        graph = graph_with_hits({"/warm": 4})
        chosen = select_documents_for_migration(graph, threshold=100)
        assert [r.name for r in chosen] == ["/warm"]

    def test_zero_hit_documents_never_selected(self):
        graph = graph_with_hits({"/never": 0})
        assert select_documents_for_migration(graph, threshold=10) == []

    def test_already_migrated_not_candidates(self):
        graph = graph_with_hits({"/a": 50, "/b": 40})
        graph.mark_migrated("/a", COOP, now=1.0)
        chosen = select_documents_for_migration(graph, threshold=10)
        assert [r.name for r in chosen] == ["/b"]


class TestSteps4And5:
    def test_minimal_remote_linkfrom_preferred(self):
        graph = LocalDocumentGraph(HOME)
        graph.add_document("/entry", 10, entry_point=True)
        graph.add_document("/remote_ref", 10, link_to=["/x"])
        graph.add_document("/local_ref", 10, link_to=["/y"])
        graph.add_document("/x", 10)
        graph.add_document("/y", 10)
        graph.record_hit("/x", 50)
        graph.record_hit("/y", 50)
        graph.mark_migrated("/remote_ref", COOP, now=1.0)  # /x now has a remote referrer
        chosen = select_documents_for_migration(graph, threshold=10)
        assert chosen[0].name == "/y"

    def test_minimal_linkto_breaks_ties(self):
        graph = LocalDocumentGraph(HOME)
        graph.add_document("/entry", 10, entry_point=True)
        graph.add_document("/fanout", 10, link_to=["/t1", "/t2", "/t3"])
        graph.add_document("/leaf", 10)
        for name in ("/t1", "/t2", "/t3"):
            graph.add_document(name, 10)
        graph.record_hit("/fanout", 50)
        graph.record_hit("/leaf", 50)
        chosen = select_documents_for_migration(graph, threshold=10)
        assert chosen[0].name == "/leaf"

    def test_final_tie_prefers_hottest(self):
        graph = graph_with_hits({"/a": 20, "/b": 30})
        chosen = select_documents_for_migration(graph, threshold=10)
        assert chosen[0].name == "/b"

    def test_multiple_selection(self):
        graph = graph_with_hits({"/a": 20, "/b": 30, "/c": 25})
        chosen = select_documents_for_migration(graph, threshold=10, count=2)
        assert len(chosen) == 2
        assert len({r.name for r in chosen}) == 2


class TestEligibleCandidates:
    def test_returns_threshold_survivors(self):
        graph = graph_with_hits({"/a": 50, "/b": 5})
        names = {r.name for r in eligible_candidates(graph, 10)}
        assert names == {"/a"}

    def test_empty_graph(self):
        graph = LocalDocumentGraph(HOME)
        assert eligible_candidates(graph, 10) == []

    def test_deterministic_given_same_graph(self):
        graph = graph_with_hits({"/a": 20, "/b": 20})
        first = select_documents_for_migration(graph, threshold=10)
        second = select_documents_for_migration(graph, threshold=10)
        assert [r.name for r in first] == [r.name for r in second]
