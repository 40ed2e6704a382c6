"""Unit tests for the migration policy (rate limits, targets, revocation)."""

import pytest

from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.core.glt import GlobalLoadTable
from repro.core.ldg import LocalDocumentGraph
from repro.core.membership import MembershipTable
from repro.core.migration import MigrationPolicy
from repro.http.piggyback import LoadReport
from repro.server.replication import ReplicationManager

HOME = Location("home", 80)
COOP_A = Location("a", 80)
COOP_B = Location("b", 80)


def build_policy(config=None, coops=(COOP_A, COOP_B), doc_count=5):
    config = config or ServerConfig(migration_hit_threshold=1.0)
    graph = LocalDocumentGraph(HOME)
    graph.add_document("/index.html", 100, entry_point=True,
                       link_to=[f"/d{i}" for i in range(doc_count)])
    for index in range(doc_count):
        graph.add_document(f"/d{index}", 100)
        graph.record_hit(f"/d{index}", 10 + index)
    glt = GlobalLoadTable(HOME)
    glt.update_own(100.0, 0.0)
    for coop in coops:
        glt.observe(LoadReport(str(coop), 0.0, 0.0))
    return MigrationPolicy(config, graph, glt), graph, glt


class TestTrigger:
    def test_migrates_when_overloaded(self):
        policy, graph, __ = build_policy()
        decisions = policy.consider(now=10.0, own_metric=100.0)
        assert len(decisions) == 1
        assert decisions[0].kind == "migrate"
        assert graph.get(decisions[0].name).location in (COOP_A, COOP_B)

    def test_no_migration_when_balanced(self):
        policy, __, glt = build_policy()
        glt.observe(LoadReport(str(COOP_A), 100.0, 1.0))
        glt.observe(LoadReport(str(COOP_B), 100.0, 1.0))
        assert policy.consider(now=10.0, own_metric=100.0) == []

    def test_no_migration_when_alone(self):
        policy, __, __ = build_policy(coops=())
        assert policy.consider(now=10.0, own_metric=100.0) == []

    def test_target_is_least_loaded(self):
        policy, __, glt = build_policy()
        glt.observe(LoadReport(str(COOP_A), 50.0, 1.0))
        glt.observe(LoadReport(str(COOP_B), 5.0, 1.0))
        decisions = policy.consider(now=10.0, own_metric=100.0)
        assert decisions[0].target == COOP_B


class TestRateLimits:
    def test_one_migration_per_interval(self):
        policy, __, __ = build_policy()
        assert len(policy.consider(now=10.0, own_metric=100.0)) == 1

    def test_coop_spacing_respected(self):
        config = ServerConfig(migration_hit_threshold=1.0,
                              coop_migration_spacing=60.0)
        policy, graph, glt = build_policy(config, coops=(COOP_A,))
        first = policy.consider(now=10.0, own_metric=100.0)
        assert first and first[0].target == COOP_A
        # Re-arm hits for the next round.
        for record in graph.documents():
            if not record.entry_point and record.location == HOME:
                record.window_hits = 10
        # 30 s later: the only co-op is still inside its 60 s spacing.
        assert policy.consider(now=40.0, own_metric=100.0) == []
        # 70 s later: the spacing has elapsed.
        assert len(policy.consider(now=80.0, own_metric=100.0)) == 1

    def test_migrated_names_tracked(self):
        policy, graph, __ = build_policy()
        decisions = policy.consider(now=10.0, own_metric=100.0)
        name = decisions[0].name
        assert [r.name for r in graph.migrated_documents()] == [name]
        assert graph.get(name).location == decisions[0].target
        assert graph.get(name).migrated_at == 10.0


class TestRevocation:
    def test_revoke_restores_home(self):
        policy, graph, __ = build_policy()
        decision = policy.consider(now=10.0, own_metric=100.0)[0]
        revoke = policy.revoke(decision.name)
        assert revoke.kind == "revoke"
        assert graph.get(decision.name).location == HOME
        assert [r.name for r in graph.migrated_documents()] == []

    def test_revoke_all_from_dead_coop(self):
        config = ServerConfig(migration_hit_threshold=1.0,
                              coop_migration_spacing=1.0)
        policy, graph, glt = build_policy(config, coops=(COOP_A,))
        policy.force_migrate("/d0", COOP_A, now=0.0)
        policy.force_migrate("/d1", COOP_A, now=0.0)
        decisions = policy.revoke_all_from(COOP_A)
        assert len(decisions) == 2
        assert graph.get("/d0").location == HOME
        assert graph.get("/d1").location == HOME

    def test_revoke_all_ignores_other_coops(self):
        policy, graph, __ = build_policy()
        policy.force_migrate("/d0", COOP_A, now=0.0)
        assert policy.revoke_all_from(COOP_B) == []
        assert graph.get("/d0").location == COOP_A


class TestRemigration:
    def test_hot_coop_triggers_remigration_after_timeout(self):
        config = ServerConfig(migration_hit_threshold=1.0,
                              home_remigration_interval=300.0)
        policy, graph, glt = build_policy(config)
        policy.force_migrate("/d0", COOP_A, now=0.0)
        glt.update_own(10.0, 400.0)
        glt.observe(LoadReport(str(COOP_A), 500.0, 400.0))  # hot spot
        glt.observe(LoadReport(str(COOP_B), 1.0, 400.0))
        decisions = policy.consider(now=400.0, own_metric=10.0)
        remigrations = [d for d in decisions if d.kind == "remigrate"]
        assert remigrations and remigrations[0].name == "/d0"
        assert graph.get("/d0").location == COOP_B

    def test_no_remigration_before_timeout(self):
        config = ServerConfig(migration_hit_threshold=1.0,
                              home_remigration_interval=300.0)
        policy, graph, glt = build_policy(config)
        policy.force_migrate("/d0", COOP_A, now=0.0)
        glt.update_own(10.0, 100.0)
        glt.observe(LoadReport(str(COOP_A), 500.0, 100.0))
        glt.observe(LoadReport(str(COOP_B), 1.0, 100.0))
        decisions = policy.consider(now=100.0, own_metric=10.0)
        assert [d for d in decisions if d.kind == "remigrate"] == []


class TestReplication:
    """Holders beyond the first come from the replica round alone
    (repro.server.replication); the load round never adds one."""

    def test_replication_when_enabled_and_hot(self):
        config = ServerConfig(migration_hit_threshold=1.0, max_replicas=3,
                              imbalance_tolerance=1.05)
        policy, graph, glt = build_policy(config)
        policy.force_migrate("/d0", COOP_A, now=0.0)
        glt.update_own(200.0, 100.0)
        glt.observe(LoadReport(str(COOP_A), 500.0, 100.0))
        glt.observe(LoadReport(str(COOP_B), 1.0, 100.0))
        # The engine's tick order: the replica round, then the load round.
        replica_round = ReplicationManager(config, graph, glt, policy,
                                           peers=MembershipTable())
        replications = replica_round.repair_round(100.0)
        assert [d.kind for d in replications] == ["replicate"]
        assert COOP_B in graph.get("/d0").locations()
        decisions = policy.consider(now=100.0, own_metric=200.0)
        assert [d for d in decisions if d.kind == "replicate"] == []

    def test_a_heat_addition_starts_coop_spacing(self):
        config = ServerConfig(migration_hit_threshold=1.0, max_replicas=3,
                              coop_migration_spacing=60.0)
        policy, graph, __ = build_policy(config)
        policy.force_migrate("/d0", COOP_A, now=0.0)
        repair = policy.add_holder("/d0", COOP_B, 10.0, kind="repair")
        assert repair.kind == "repair" and not policy.cooling(COOP_B, 10.0)
        policy.force_migrate("/d1", COOP_A, now=0.0)
        heat = policy.add_holder("/d1", COOP_B, 20.0, kind="replicate")
        assert heat.kind == "replicate"
        assert policy.cooling(COOP_B, 79.0)
        assert not policy.cooling(COOP_B, 80.0)
        assert graph.get("/d1").locations() == {COOP_A, COOP_B}

    def test_no_replication_by_default(self):
        policy, graph, glt = build_policy()
        policy.force_migrate("/d0", COOP_A, now=0.0)
        glt.update_own(200.0, 100.0)
        glt.observe(LoadReport(str(COOP_A), 500.0, 100.0))
        glt.observe(LoadReport(str(COOP_B), 1.0, 100.0))
        decisions = policy.consider(now=100.0, own_metric=200.0)
        assert [d for d in decisions if d.kind == "replicate"] == []


class TestSelectionPolicies:
    @pytest.mark.parametrize("policy_name", ["paper", "hottest", "random"])
    def test_all_policies_pick_a_valid_document(self, policy_name):
        config = ServerConfig(migration_hit_threshold=1.0,
                              selection_policy=policy_name)
        policy, graph, __ = build_policy(config)
        decisions = policy.consider(now=10.0, own_metric=100.0)
        assert len(decisions) == 1
        record = graph.get(decisions[0].name)
        assert not record.entry_point

    def test_hottest_picks_max_hits(self):
        config = ServerConfig(migration_hit_threshold=1.0,
                              selection_policy="hottest")
        policy, __, __ = build_policy(config, doc_count=5)
        decisions = policy.consider(now=10.0, own_metric=100.0)
        assert decisions[0].name == "/d4"  # hits are 10 + index
