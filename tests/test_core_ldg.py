"""Unit tests for the Local Document Graph."""

import pytest

from repro.core.document import Location
from repro.core.ldg import LocalDocumentGraph
from repro.errors import DocumentNotFound, MigrationError

HOME = Location("home", 80)
COOP = Location("coop", 80)
COOP2 = Location("coop2", 80)


def small_graph() -> LocalDocumentGraph:
    """The Figure 1 topology: A->C, B->{D,E}, E->D."""
    graph = LocalDocumentGraph(HOME)
    graph.add_document("/A", 100, entry_point=True, link_to=["/C"])
    graph.add_document("/B", 100, link_to=["/D", "/E"])
    graph.add_document("/C", 100)
    graph.add_document("/D", 100)
    graph.add_document("/E", 100, link_to=["/D"])
    return graph


class TestConstruction:
    def test_transpose_maintained(self):
        graph = small_graph()
        assert graph.get("/D").link_from == {"/B", "/E"}
        assert graph.get("/C").link_from == {"/A"}
        graph.check_invariants()

    def test_forward_reference_resolved_when_target_added(self):
        graph = LocalDocumentGraph(HOME)
        graph.add_document("/a", 10, link_to=["/later"])
        graph.add_document("/later", 10)
        assert graph.get("/later").link_from == {"/a"}

    def test_duplicate_add_rejected(self):
        graph = small_graph()
        with pytest.raises(MigrationError):
            graph.add_document("/A", 1)

    def test_get_missing_raises(self):
        with pytest.raises(DocumentNotFound):
            small_graph().get("/missing")
        assert small_graph().find("/missing") is None

    def test_self_link_ignored(self):
        graph = LocalDocumentGraph(HOME)
        graph.add_document("/a", 10, link_to=["/a"])
        assert graph.get("/a").link_to == set()

    def test_len_and_names(self):
        graph = small_graph()
        assert len(graph) == 5
        assert graph.names() == ["/A", "/B", "/C", "/D", "/E"]

    def test_entry_points(self):
        assert [r.name for r in small_graph().entry_points()] == ["/A"]


class TestSetLinks:
    def test_replacing_links_fixes_transposes(self):
        graph = small_graph()
        graph.set_links("/B", ["/C"])
        assert graph.get("/D").link_from == {"/E"}
        assert graph.get("/C").link_from == {"/A", "/B"}
        graph.check_invariants()

    def test_remove_document_cleans_edges(self):
        graph = small_graph()
        graph.remove_document("/D")
        assert "/D" not in graph
        assert "/D" not in graph.get("/B").link_to
        assert "/D" not in graph.get("/E").link_to
        graph.check_invariants()


class TestMigration:
    def test_mark_migrated_sets_location_and_dirty(self):
        graph = small_graph()
        dirtied = graph.mark_migrated("/D", COOP)
        assert graph.get("/D").location == COOP
        assert sorted(dirtied) == ["/B", "/E"]
        assert graph.get("/B").dirty and graph.get("/E").dirty
        assert not graph.get("/A").dirty
        # The migrated document itself is dirtied (its links must be
        # absolutized) and its version bumped for co-op validation.
        assert graph.get("/D").dirty
        assert graph.get("/D").version == 1

    def test_entry_point_never_migrates(self):
        with pytest.raises(MigrationError):
            small_graph().mark_migrated("/A", COOP)

    def test_migrate_to_home_rejected(self):
        with pytest.raises(MigrationError):
            small_graph().mark_migrated("/D", HOME)

    def test_revocation_restores_home(self):
        graph = small_graph()
        graph.mark_migrated("/D", COOP)
        graph.get("/B").dirty = False
        dirtied = graph.mark_revoked("/D")
        assert graph.get("/D").location == HOME
        assert "/B" in dirtied and graph.get("/B").dirty

    def test_a_dirty_referrer_keeps_its_version(self):
        # Nobody has been served a dirty document's version, so a second
        # event before it regenerates needs no second bump; a clean one
        # (regenerated, so possibly served) is bumped again.
        graph = small_graph()
        assert graph.mark_migrated("/D", COOP) == ["/B", "/E"]
        assert graph.get("/B").version == 1
        assert graph.mark_migrated("/E", COOP) == ["/B"]
        assert graph.get("/B").dirty and graph.get("/B").version == 1
        graph.get("/B").dirty = False    # regenerated and served
        assert graph.mark_revoked("/E") == ["/B"]
        assert graph.get("/B").dirty and graph.get("/B").version == 2

    def test_revoking_unmigrated_rejected(self):
        with pytest.raises(MigrationError):
            small_graph().mark_revoked("/D")

    def test_migrated_documents_listing(self):
        graph = small_graph()
        graph.mark_migrated("/D", COOP)
        assert [r.name for r in graph.migrated_documents()] == ["/D"]

    def test_remote_linkfrom_count(self):
        graph = small_graph()
        assert graph.remote_linkfrom_count("/D") == 0
        graph.mark_migrated("/E", COOP)
        assert graph.remote_linkfrom_count("/D") == 1

    def test_entry_ablation_allows_migration(self):
        graph = LocalDocumentGraph(HOME, enforce_entry_home=False)
        graph.add_document("/A", 10, entry_point=True)
        graph.mark_migrated("/A", COOP)  # must not raise
        graph.check_invariants()


class TestReplication:
    def test_first_replica_acts_as_migration(self):
        graph = small_graph()
        graph.add_replica("/D", COOP)
        assert graph.get("/D").location == COOP
        assert graph.get("/D").replicas == set()

    def test_second_replica_recorded(self):
        graph = small_graph()
        graph.add_replica("/D", COOP)
        graph.add_replica("/D", COOP2)
        record = graph.get("/D")
        assert record.locations() == {COOP, COOP2}

    def test_duplicate_replica_rejected(self):
        graph = small_graph()
        graph.add_replica("/D", COOP)
        with pytest.raises(MigrationError):
            graph.add_replica("/D", COOP)

    def test_revocation_clears_replicas(self):
        graph = small_graph()
        graph.add_replica("/D", COOP)
        graph.add_replica("/D", COOP2)
        graph.mark_revoked("/D")
        assert graph.get("/D").locations() == {HOME}


class TestHits:
    def test_hits_accumulate(self):
        graph = small_graph()
        graph.record_hit("/C")
        graph.record_hit("/C", 4)
        record = graph.get("/C")
        assert record.hits == 5
        assert record.window_hits == 5

    def test_reset_windows_keeps_lifetime(self):
        graph = small_graph()
        graph.record_hit("/C", 3)
        graph.reset_windows()
        assert graph.get("/C").hits == 3
        assert graph.get("/C").window_hits == 0
        assert graph.total_hits() == 3
