"""Replication groups with autonomous repair.

Covers the subsystem end to end at the unit level: configuration
validation, the LDG/policy drop-and-repair primitives (with primary
promotion), the :class:`ReplicationManager` state machine and repair
loop, two-choices replica serving, engine integration (holder death
means ``replica_drop`` + repair, never a revocation storm), durability
(journal replay idempotence and snapshot round-trip for the new decision
kinds), fsck invariant 6, the admin endpoint, and the cluster-sample
gauges.
"""

import pytest

from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.core.membership import MembershipTable
from repro.core.naming import REPLICAS_HEADER
from repro.errors import ConfigError, MigrationError
from repro.http.messages import Request
from repro.http.piggyback import LoadReport
from repro.server.admin import render_replication
from repro.server.engine import DCWSEngine
from repro.server.filestore import MemoryStore
from repro.server.fsck import check_engine
from repro.server.persistence import (
    apply_record,
    restore_engine,
    snapshot_engine,
)
from repro.server.replication import (
    STATE_CRITICAL,
    STATE_DEGRADED,
    STATE_HEALTHY,
    ReplicationManager,
)
from repro.server.stats import sample_cluster
from repro.server.wal import WriteAheadJournal, scan_journal

HOME = Location("home", 8001)
COOP = Location("coop", 8002)
COOP2 = Location("coop2", 8003)
COOP3 = Location("coop3", 8004)
COOP4 = Location("coop4", 8005)

SITE = {
    "/index.html": b'<html><a href="d.html">D</a><a href="e.html">E</a>'
                   b'</html>',
    "/d.html": b'<html><a href="e.html">E</a></html>',
    "/e.html": b"<html>leaf</html>",
}


def make_engine(location=HOME, peers=(COOP, COOP2), **config_kwargs):
    config_kwargs.setdefault("stats_interval", 1.0)
    config_kwargs.setdefault("migration_hit_threshold", 1.0)
    config_kwargs.setdefault("replication_k", 2)
    config_kwargs.setdefault("max_replicas", 2)
    config = ServerConfig(**config_kwargs)
    engine = DCWSEngine(location, config, MemoryStore(dict(SITE)),
                        entry_points=["/index.html"], peers=list(peers))
    engine.initialize(0.0)
    return engine


def migrated_engine(**config_kwargs):
    """A home with /d.html migrated to COOP and a group synced."""
    engine = make_engine(**config_kwargs)
    engine.policy.force_migrate("/d.html", COOP, now=0.5)
    return engine


def declare_dead(engine, victim, start=5.0):
    """Drive the pinger to declare *victim* dead (limit failed pings)."""
    for round_number in range(engine.config.ping_failure_limit):
        actions = engine.tick(start + round_number * 10)
        for action in actions:
            if action.kind == "ping" and action.peer == victim:
                engine.complete_action(action, None,
                                       start + round_number * 10 + 0.1)


# ======================================================================
# Configuration
# ======================================================================

class TestConfig:
    def test_defaults_disable_the_subsystem(self):
        config = ServerConfig()
        assert config.replication_k == 1
        assert config.max_replications_per_interval == 1
        engine = make_engine(replication_k=1)
        engine.policy.force_migrate("/d.html", COOP, now=0.5)
        assert engine.replication.repair_round(1.0) == []
        assert engine.replication.groups == {}

    def test_k_above_one_enables_the_subsystem(self):
        engine = make_engine()
        assert isinstance(engine.replication, ReplicationManager)

    @pytest.mark.parametrize("kwargs", [
        {"replication_k": 0},
        {"max_replications_per_interval": 0},
        {"replication_k": 2, "replication_sufficient": 3},
        {"replication_heat_threshold": -1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            ServerConfig(**kwargs)


# ======================================================================
# LDG and policy primitives
# ======================================================================

class TestDropHolder:
    def test_replica_dropped_keeps_primary(self):
        engine = migrated_engine()
        engine.graph.add_replica("/d.html", COOP2, now=1.0)
        engine.graph.drop_holder("/d.html", COOP2)
        record = engine.graph.get("/d.html")
        assert record.location == COOP
        assert record.replicas == set()

    def test_primary_death_promotes_a_survivor(self):
        engine = migrated_engine()
        engine.graph.add_replica("/d.html", COOP2, now=1.0)
        engine.graph.drop_holder("/d.html", COOP)
        record = engine.graph.get("/d.html")
        assert record.location == COOP2
        assert record.replicas == set()

    def test_dropping_last_holder_refused(self):
        engine = migrated_engine()
        with pytest.raises(MigrationError):
            engine.graph.drop_holder("/d.html", COOP)

    def test_dropping_a_non_holder_refused(self):
        engine = migrated_engine()
        with pytest.raises(MigrationError):
            engine.graph.drop_holder("/d.html", COOP2)

    def test_drop_dirties_referrers(self):
        engine = migrated_engine()
        engine.graph.add_replica("/d.html", COOP2, now=1.0)
        engine.regenerate_dirty()
        dirtied = engine.graph.drop_holder("/d.html", COOP)
        assert "/index.html" in dirtied
        assert engine.graph.get("/index.html").dirty

    def test_policy_drop_updates_migration_record(self):
        engine = migrated_engine()
        engine.policy.repair_replica("/d.html", COOP2, now=1.0)
        decision = engine.policy.drop_holder("/d.html", COOP)
        assert decision is not None
        assert decision.kind == "replica_drop"
        record = engine.graph.get("/d.html")
        assert (record.location, record.replicas) == (COOP2, set())
        assert record.migrated_at == 0.5  # a promotion keeps it

    def test_policy_drop_without_survivor_is_none(self):
        engine = migrated_engine()
        assert engine.policy.drop_holder("/d.html", COOP) is None

    def test_revoke_all_from_prefers_drop_over_revoke(self):
        engine = migrated_engine()
        engine.policy.force_migrate("/e.html", COOP, now=0.6)
        engine.policy.repair_replica("/d.html", COOP2, now=1.0)
        decisions = engine.policy.revoke_all_from(COOP)
        kinds = {d.name: d.kind for d in decisions}
        assert kinds == {"/d.html": "replica_drop", "/e.html": "revoke"}
        assert engine.graph.get("/d.html").location == COOP2
        assert engine.graph.get("/e.html").location == HOME


# ======================================================================
# ReplicationManager: groups, repair loop, and the state machine
# ======================================================================

class TestManager:
    def test_sync_creates_groups_for_migrated_documents(self):
        engine = migrated_engine()
        engine.replication.sync(1.0)
        assert "/d.html" in engine.replication.groups

    def test_sync_removes_groups_for_revoked_documents(self):
        engine = migrated_engine()
        engine.replication.sync(1.0)
        engine.policy.revoke("/d.html")
        engine.replication.sync(2.0)
        assert engine.replication.groups == {}

    def test_heat_threshold_gates_group_creation(self):
        engine = migrated_engine(replication_heat_threshold=5.0)
        engine.replication.sync(1.0)
        assert engine.replication.groups == {}
        for _ in range(5):
            engine.graph.record_hit("/d.html", 1.0)
        engine.replication.sync(2.0)
        assert "/d.html" in engine.replication.groups

    def test_repair_round_tops_up_to_k(self):
        engine = migrated_engine()
        decisions = engine.replication.repair_round(1.0)
        assert [d.kind for d in decisions] == ["repair"]
        record = engine.graph.get("/d.html")
        assert record.location == COOP
        assert record.replicas == {COOP2}
        group = engine.replication.groups["/d.html"]
        assert group.state == STATE_HEALTHY
        assert group.repairs == 1

    def test_repair_budget_bounds_each_round(self):
        engine = migrated_engine()
        engine.policy.force_migrate("/e.html", COOP, now=0.6)
        first = engine.replication.repair_round(1.0)
        assert len([d for d in first if d.kind == "repair"]) == 1
        second = engine.replication.repair_round(2.0)
        assert len([d for d in second if d.kind == "repair"]) == 1
        assert engine.replication.repair_round(3.0) == []

    def test_critical_groups_repair_first(self):
        engine = make_engine(max_replications_per_interval=1)
        engine.policy.force_migrate("/d.html", COOP, now=0.5)
        engine.policy.force_migrate("/e.html", COOP, now=0.5)
        engine.replication.sync(1.0)
        # /e.html degraded (has a live holder), /d.html critical (none).
        engine.replication.groups["/d.html"].state = STATE_CRITICAL
        engine.replication.groups["/e.html"].state = STATE_DEGRADED
        decisions = engine.replication.repair_round(1.0)
        repaired = [d.name for d in decisions if d.kind == "repair"]
        assert repaired == ["/d.html"]

    def test_dead_holder_dropped_then_replaced(self):
        peers = MembershipTable()
        engine = migrated_engine()
        manager = ReplicationManager(
            engine.config, engine.graph, engine.glt, engine.policy,
            peers=peers)
        manager.repair_round(1.0)     # tops up onto COOP2
        peers.mark_dead(str(COOP), 1.5)
        decisions = manager.repair_round(2.0)
        kinds = sorted(d.kind for d in decisions)
        assert kinds == ["replica_drop"]
        record = engine.graph.get("/d.html")
        assert record.location == COOP2
        assert COOP not in record.locations()
        assert manager.groups["/d.html"].state == STATE_DEGRADED

    def test_classify_thresholds(self):
        engine = make_engine(replication_k=3, max_replicas=3,
                             replication_sufficient=2)
        manager = engine.replication
        assert manager._classify([COOP, COOP2, HOME]) == STATE_HEALTHY
        assert manager._classify([COOP, COOP2]) == STATE_DEGRADED
        assert manager._classify([COOP]) == STATE_CRITICAL


class TestTwoChoices:
    def replicated(self):
        engine = migrated_engine()
        engine.replication.repair_round(1.0)
        return engine, engine.graph.get("/d.html")

    def test_pick_is_deterministic(self):
        engine, record = self.replicated()
        picks = {str(engine.replication.pick(record, salt="/index.html"))
                 for _ in range(10)}
        assert len(picks) == 1

    def test_pick_spreads_across_salts(self):
        engine, record = self.replicated()
        picks = {str(engine.replication.pick(record, salt=f"/ref{i}.html"))
                 for i in range(64)}
        assert picks == {str(COOP), str(COOP2)}

    def test_less_loaded_candidate_wins(self):
        engine, record = self.replicated()
        engine.glt.observe(LoadReport(str(COOP), 1000.0, 1.0))
        engine.glt.observe(LoadReport(str(COOP2), 1.0, 1.0))
        picks = [str(engine.replication.pick(record, salt=f"/r{i}"))
                 for i in range(64)]
        assert picks.count(str(COOP2)) == len(picks)
        assert engine.replication.counters.two_choices_alternates > 0

    def test_dead_holders_filtered(self):
        engine = migrated_engine()
        peers = MembershipTable()
        peers.mark_dead(str(COOP), 0.5)
        manager = ReplicationManager(
            engine.config, engine.graph, engine.glt, engine.policy,
            peers=peers)
        engine.policy.repair_replica("/d.html", COOP2, now=1.0)
        record = engine.graph.get("/d.html")
        picks = {str(manager.pick(record, salt=f"/r{i}"))
                 for i in range(16)}
        assert picks == {str(COOP2)}

    def test_all_dead_falls_back_to_every_holder(self):
        engine = migrated_engine()
        peers = MembershipTable()
        for holder in (COOP, COOP2):
            peers.mark_dead(str(holder), 0.5)
        manager = ReplicationManager(
            engine.config, engine.graph, engine.glt, engine.policy,
            peers=peers)
        record = engine.graph.get("/d.html")
        assert manager.pick(record, salt="/x") == COOP


# ======================================================================
# Engine integration: tick scheduling, holder death, replica redirects
# ======================================================================

class TestEngineIntegration:
    def test_tick_runs_repair_round(self):
        engine = migrated_engine()
        engine.tick(5.0)
        assert engine.stats.repairs == 1
        assert engine.graph.get("/d.html").replicas == {COOP2}

    def test_holder_death_is_drop_not_revocation(self):
        engine = migrated_engine(ping_failure_limit=2, pinger_interval=1.0)
        engine.tick(5.0)                       # proactive top-up to k=2
        declare_dead(engine, COOP, start=10.0)
        assert engine.stats.replica_drops == 1
        assert engine.stats.revocations == 0
        record = engine.graph.get("/d.html")
        assert record.location == COOP2
        assert record.migrated_at == 0.5
        assert engine.replication.groups["/d.html"].state == STATE_DEGRADED

    def test_unreplicated_documents_still_revoke(self):
        engine = migrated_engine(ping_failure_limit=2, pinger_interval=1.0,
                                 replication_heat_threshold=1e9)
        declare_dead(engine, COOP, start=5.0)
        assert engine.stats.revocations == 1
        assert engine.graph.get("/d.html").location == HOME

    def test_redirect_carries_live_replica_set(self):
        engine = migrated_engine()
        engine.tick(5.0)
        reply = engine.handle_request(Request("GET", "/d.html"), 6.0)
        assert reply.response.status == 301
        replicas = reply.response.headers.get(REPLICAS_HEADER)
        assert replicas is not None
        assert set(replicas.split(",")) == {str(COOP), str(COOP2)}

    def test_single_holder_redirect_has_no_replica_header(self):
        engine = migrated_engine(replication_k=1)
        reply = engine.handle_request(Request("GET", "/d.html"), 1.0)
        assert reply.response.status == 301
        assert reply.response.headers.get(REPLICAS_HEADER) is None

    def test_reactive_replicas_share_the_one_pick_rule(self):
        # k = 1 keeps no groups, but a document reactive replication
        # spread over two holders is picked and redirected like any
        # other: two choices by load, the live set on the 301.
        engine = migrated_engine(replication_k=1)
        engine.graph.add_replica("/d.html", COOP2, now=1.0)
        engine.glt.observe(LoadReport(str(COOP), 1000.0, 1.0))
        engine.glt.observe(LoadReport(str(COOP2), 1.0, 1.0))
        for index in range(16):
            reply = engine.handle_request(
                Request("GET", f"/d.html?r={index}"), 2.0)
            assert reply.response.status == 301
            assert str(COOP2) in reply.response.headers.get("Location")
            replicas = reply.response.headers.get(REPLICAS_HEADER)
            assert set(replicas.split(",")) == {str(COOP), str(COOP2)}
        assert engine.replication.groups == {}


# ======================================================================
# Durability: journal replay idempotence and snapshot round-trip
# ======================================================================

def replication_state(engine):
    """The durable facts the new decision kinds must round-trip."""
    return {
        record.name: (str(record.location),
                      tuple(sorted(str(r) for r in record.replicas)),
                      record.migrated_at)
        for record in engine.graph.documents()}


class TestDurability:
    def run_workload(self, tmp_path):
        journal = WriteAheadJournal(str(tmp_path / "home.wal"),
                                    location=str(HOME), fsync_policy="off")
        engine = migrated_engine(ping_failure_limit=2, pinger_interval=1.0)
        engine.attach_journal(journal)
        engine.tick(5.0)                       # journals the repair
        declare_dead(engine, COOP, start=10.0)  # journals the replica_drop
        journal.close()
        return engine, str(tmp_path / "home.wal")

    def test_replay_matches_live_engine(self, tmp_path):
        live, journal_path = self.run_workload(tmp_path)
        records = scan_journal(journal_path).records
        assert {"repair", "replica_drop"} <= {r.kind for r in records}
        replayed = make_engine()
        for record in records:
            apply_record(replayed, record)
        assert replication_state(replayed) == replication_state(live)
        assert replayed.graph.get("/d.html").location == COOP2

    def test_replay_is_idempotent(self, tmp_path):
        __, journal_path = self.run_workload(tmp_path)
        records = scan_journal(journal_path).records
        once, twice = make_engine(), make_engine()
        for record in records:
            apply_record(once, record)
            apply_record(twice, record)
            apply_record(twice, record)
        assert replication_state(once) == replication_state(twice)

    def test_snapshot_round_trips_groups_and_replicas(self):
        engine = migrated_engine()
        engine.tick(5.0)
        snapshot = snapshot_engine(engine, 6.0)
        assert snapshot["replication"], "groups missing from snapshot"
        fresh = make_engine()
        restore_engine(fresh, snapshot, 7.0)
        assert replication_state(fresh) == replication_state(engine)
        assert fresh.replication.groups.keys() == \
            engine.replication.groups.keys()
        group = fresh.replication.groups["/d.html"]
        assert group.repairs == 1
        assert group.state == STATE_HEALTHY
        assert fresh.graph.get("/d.html").replicas == {COOP2}

    def test_disabled_subsystem_snapshot_is_empty(self):
        engine = migrated_engine(replication_k=1)
        assert snapshot_engine(engine, 1.0)["replication"] == []

    def test_groups_restored_under_k_1_are_dropped(self):
        engine = migrated_engine()
        engine.tick(5.0)
        fresh = make_engine(replication_k=1)
        restore_engine(fresh, snapshot_engine(engine, 6.0), 7.0)
        assert fresh.replication.groups == {}
        assert fresh.graph.get("/d.html").replicas == {COOP2}

    @staticmethod
    def snapshot_under_k(k, rounds):
        """A snapshot of /d.html's group at *k* holders, with the
        per-group ``target`` an older snapshot carried."""
        engine = migrated_engine(peers=(COOP, COOP2, COOP3, COOP4),
                                 replication_k=k)
        for round_number in range(rounds):
            engine.tick(5.0 + round_number)
        assert len(engine.graph.get("/d.html").locations()) == k
        snapshot = snapshot_engine(engine, 9.0)
        for entry in snapshot["replication"]:
            entry["target"] = k
        return snapshot

    def test_restart_under_a_higher_k_tops_groups_up(self):
        restarted = make_engine(peers=(COOP, COOP2, COOP3, COOP4),
                                replication_k=3)
        restore_engine(restarted, self.snapshot_under_k(2, 1), 10.0)
        decisions = restarted.replication.repair_round(11.0)
        assert [d.kind for d in decisions] == ["repair"]
        assert len(restarted.graph.get("/d.html").locations()) == 3
        assert restarted.replication.groups["/d.html"].state == \
            STATE_HEALTHY

    def test_restart_under_a_lower_k_repairs_to_the_new_k(self):
        restarted = make_engine(peers=(COOP, COOP2, COOP3, COOP4),
                                replication_k=2)
        restore_engine(restarted, self.snapshot_under_k(3, 2), 10.0)
        holders = sorted(restarted.graph.get("/d.html").locations(), key=str)
        restarted.membership.mark_dead(str(holders[-1]), 10.5)
        decisions = restarted.replication.repair_round(11.0)
        assert [d.kind for d in decisions] == ["replica_drop"]
        assert restarted.graph.get("/d.html").locations() == \
            set(holders[:-1])
        assert restarted.replication.groups["/d.html"].state == \
            STATE_HEALTHY


# ======================================================================
# fsck invariant 6
# ======================================================================

class TestFsck:
    def test_replicated_engine_is_clean(self):
        engine = migrated_engine()
        engine.tick(5.0)
        engine.regenerate_dirty()
        assert check_engine(engine) == []

    def test_home_as_replica_flagged(self):
        engine = migrated_engine()
        engine.graph.get("/d.html").replicas.add(HOME)
        assert any("home" in v for v in
                   check_engine(engine, check_links=False))

    def test_primary_among_replicas_flagged(self):
        engine = migrated_engine()
        engine.graph.get("/d.html").replicas.add(COOP)
        assert any("primary" in v for v in
                   check_engine(engine, check_links=False))

    def test_group_for_unmigrated_document_flagged(self):
        engine = migrated_engine()
        engine.replication.sync(1.0)
        engine.policy.revoke("/d.html")
        # Simulate a missed sync: the group lingers after revocation.
        engine.replication.groups["/d.html"] = \
            engine.replication.groups.get("/d.html") or None
        engine.replication.restore([{"name": "/d.html"}])
        assert any("not migrated" in v for v in
                   check_engine(engine, check_links=False))

    def test_holder_unknown_to_glt_flagged(self):
        engine = migrated_engine()
        engine.tick(5.0)
        engine.glt.remove(COOP2)
        assert any("GLT no longer knows" in v for v in
                   check_engine(engine, check_links=False))


# ======================================================================
# Admin endpoint and cluster-sample gauges
# ======================================================================

class TestObservability:
    def test_admin_disabled_message(self):
        engine = migrated_engine(replication_k=1)
        text = render_replication(engine)
        assert "disabled" in text

    def test_admin_renders_groups(self):
        engine = migrated_engine()
        engine.tick(5.0)
        text = render_replication(engine)
        assert "/d.html" in text
        assert "healthy" in text
        assert "repairs" in text

    def test_cluster_sample_gauges(self):
        engine = migrated_engine()
        engine.tick(5.0)
        engine.handle_request(Request("GET", "/d.html"), 6.0)
        sample = sample_cluster(6.0, [engine])
        assert sample.replication_groups == 1
        assert sample.replication_groups_below_target == 0
        assert sample.replication_repairs == 1
        assert sample.replication_copies == {"2": 1}
        assert sample.replication_two_choices_picks >= 1

    def test_disabled_engine_samples_zero(self):
        engine = migrated_engine(replication_k=1)
        sample = sample_cluster(1.0, [engine])
        assert sample.replication_groups == 0
        assert sample.replication_copies == {}
