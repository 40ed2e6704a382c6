"""Unit tests for the adaptive membership subsystem.

The detector tests drive :class:`AccrualFailureDetector` with seeded
jittered heartbeat traces — the traffic shape a real pinger produces —
and assert the two properties the fixed ``failure_limit`` scheme could
not give simultaneously: jitter alone never kills a peer, and true
silence is detected within a bounded multiple of the learned cadence.
"""

import random

import pytest

from repro.core.config import ServerConfig
from repro.core.membership import (ALIVE, DEAD, FORGOTTEN,
                                   AccrualFailureDetector, MembershipTable,
                                   SUSPECT)


def jittered_trace(interval: float, jitter: float, count: int,
                   seed: int) -> list:
    """Arrival times of *count* heartbeats at *interval* ± *jitter*."""
    rng = random.Random(seed)
    now, times = 0.0, []
    for _ in range(count):
        now += interval * (1.0 + rng.uniform(-jitter, jitter))
        times.append(now)
    return times


class TestAccrualFailureDetector:
    def test_bootstrap_scores_zero(self):
        detector = AccrualFailureDetector(min_samples=3)
        detector.heartbeat("p", 0.0)
        detector.heartbeat("p", 1.0)
        # one interval observed < min_samples: silence is not evidence
        assert detector.phi("p", 100.0) == 0.0
        assert detector.interval_scale("p") is None

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_no_false_positive_under_pure_jitter(self, seed):
        """At 3x the ping interval of nothing but jitter, phi must stay
        below any reasonable dead threshold (the acceptance bar)."""
        detector = AccrualFailureDetector(floor=1.0)
        trace = jittered_trace(1.0, 0.25, 60, seed)
        for t in trace:
            detector.heartbeat("p", t)
        phi = detector.phi("p", trace[-1] + 3.0)
        assert phi < 4.0, f"seed {seed}: phi {phi} would false-kill"

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_bounded_detection_under_true_silence(self, seed):
        """A truly silent peer must cross dead_phi within a bounded
        multiple of its learned cadence (here: 8 scale units ~= well
        under 20 intervals for this trace shape)."""
        detector = AccrualFailureDetector(floor=1.0)
        trace = jittered_trace(1.0, 0.25, 60, seed)
        for t in trace:
            detector.heartbeat("p", t)
        scale = detector.interval_scale("p")
        deadline = trace[-1] + 8.0 * scale * 2.303  # phi 8 crossing
        assert detector.phi("p", deadline + 0.001) >= 8.0
        assert deadline - trace[-1] < 30.0  # bounded in wall terms too

    def test_floor_prevents_fast_traffic_shrinking_model(self):
        """A burst of per-millisecond data-path successes must not let a
        quiet second look like death when heartbeats are only promised
        once per second (the floor is the pinger interval)."""
        detector = AccrualFailureDetector(floor=1.0)
        now = 0.0
        for _ in range(50):
            now += 0.001
            detector.heartbeat("p", now)
        assert detector.interval_scale("p") == 1.0
        # 2 s of silence after the burst: barely suspicious, not dead.
        assert detector.phi("p", now + 2.0) < 1.0

    def test_same_instant_heartbeats_record_no_zero_interval(self):
        detector = AccrualFailureDetector(floor=0.1)
        for t in (0.0, 1.0, 1.0, 1.0, 2.0, 3.0):
            detector.heartbeat("p", t)
        assert detector.interval_scale("p") == 1.0

    def test_forget_drops_history(self):
        detector = AccrualFailureDetector()
        for t in (0.0, 1.0, 2.0, 3.0):
            detector.heartbeat("p", t)
        detector.forget("p")
        assert detector.phi("p", 100.0) == 0.0
        assert detector.last_arrival("p") is None


def table(**kwargs) -> MembershipTable:
    defaults = dict(suspect_phi=2.0, dead_phi=8.0, failure_limit=3,
                    reprobe_interval=5.0, reprobe_max_interval=60.0,
                    detector=AccrualFailureDetector(floor=1.0))
    defaults.update(kwargs)
    return MembershipTable(**defaults)


def warm(t: MembershipTable, peer: str, count: int = 10,
         interval: float = 1.0, start: float = 0.0) -> float:
    now = start
    for _ in range(count):
        t.heartbeat(peer, now)
        now += interval
    return now - interval


class TestMembershipStateMachine:
    def test_unknown_peer_is_alive(self):
        assert table().state("stranger") == ALIVE

    def test_silence_degrades_to_suspect_before_dead(self):
        t = table()
        last = warm(t, "p")
        # phi crosses suspect_phi=2 at ~2 scale units of silence
        transitions, deaths = t.sweep(last + 5.0)
        assert ("p", ALIVE, SUSPECT) in transitions
        assert deaths == []
        assert t.is_suspect("p")

    def test_sweep_recommends_death_but_does_not_apply(self):
        t = table()
        last = warm(t, "p")
        t.sweep(last + 5.0)            # -> suspect
        _, deaths = t.sweep(last + 100.0)
        assert deaths == ["p"]
        assert not t.is_dead("p")      # recommendation only
        assert t.mark_dead("p", last + 100.0)
        assert t.is_dead("p")

    def test_suspect_recovers_to_alive_without_dying(self):
        t = table()
        last = warm(t, "p")
        t.sweep(last + 5.0)
        assert t.is_suspect("p")
        assert t.heartbeat("p", last + 6.0) == (SUSPECT, ALIVE)
        assert t.state("p") == ALIVE
        assert t.counters.deaths == 0
        assert t.counters.rediscoveries == 0  # never died: not a rediscovery

    def test_explicit_failures_escalate_faster_than_silence(self):
        t = table(failure_limit=3)
        warm(t, "p")
        assert t.failure("p", 10.0) == SUSPECT
        assert t.failure("p", 10.1) is None
        assert t.failure("p", 10.2) == DEAD   # recommended, unapplied
        assert not t.is_dead("p")

    def test_mark_dead_is_idempotent(self):
        t = table()
        assert t.mark_dead("p", 1.0) is True
        assert t.mark_dead("p", 2.0) is False   # the double-declare guard
        assert t.counters.deaths == 1

    def test_failure_against_dead_peer_is_absorbed(self):
        t = table(failure_limit=1)
        t.mark_dead("p", 1.0)
        assert t.failure("p", 2.0) is None

    def test_success_clears_failure_streak(self):
        t = table(failure_limit=3)
        t.failure("p", 1.0)
        t.failure("p", 1.1)
        t.heartbeat("p", 1.2)
        assert t.failure("p", 1.3) == SUSPECT  # streak restarted
        assert t.failure("p", 1.4) is None

    def test_dead_ages_to_forgotten(self):
        t = table(forget_after=100.0)
        t.mark_dead("p", 0.0)
        transitions, _ = t.sweep(100.0)
        assert ("p", DEAD, FORGOTTEN) in transitions
        assert t.state("p") == FORGOTTEN

    def test_rejoin_counts_rediscovery(self):
        t = table()
        t.mark_dead("p", 0.0)
        assert t.heartbeat("p", 5.0) == (DEAD, ALIVE)
        assert t.counters.rediscoveries == 1


class TestPeerRtt:
    def rtt(self, t: MembershipTable, peer: str):
        return t.describe(peer).get("rtt")

    def test_no_samples_means_none(self):
        t = table()
        assert self.rtt(t, "stranger") is None
        t.heartbeat("p", 1.0)
        assert self.rtt(t, "p") is None

    def test_first_sample_installs_directly(self):
        t = table()
        t.heartbeat("p", 1.0, rtt=0.050)
        assert self.rtt(t, "p") == 0.050

    def test_ewma_smooths_toward_new_samples(self):
        t = table()
        t.heartbeat("p", 1.0, rtt=0.100)
        t.heartbeat("p", 2.0, rtt=0.200)
        # (1 - 0.2) * 0.100 + 0.2 * 0.200 = 0.120
        assert abs(self.rtt(t, "p") - 0.120) < 1e-9

    def test_success_without_rtt_keeps_estimate(self):
        t = table()
        t.heartbeat("p", 1.0, rtt=0.080)
        t.heartbeat("p", 2.0)  # gossip path: no timing
        assert self.rtt(t, "p") == 0.080

    def test_death_drops_rtt(self):
        t = table()
        t.heartbeat("a", 1.0, rtt=0.010)
        t.heartbeat("b", 1.0, rtt=0.020)
        t.mark_dead("a", 2.0)
        assert self.rtt(t, "a") is None
        assert self.rtt(t, "b") == 0.020


class TestRediscoverySchedule:
    def test_only_configured_peers_are_probed(self):
        t = table()
        t.register("cfg", configured=True)
        t.register("gossip")
        t.mark_dead("cfg", 0.0)
        t.mark_dead("gossip", 0.0)
        assert t.due_probes(1000.0) == ["cfg"]
        assert t.reprobe_backlog() == 1

    def test_backoff_grows_exponentially_to_cap(self):
        t = table(reprobe_interval=5.0, reprobe_backoff=2.0,
                  reprobe_max_interval=60.0, reprobe_jitter=0.0)
        periods = [t._backoff("p", n) for n in range(6)]
        assert periods == [5.0, 10.0, 20.0, 40.0, 60.0, 60.0]

    def test_jitter_is_deterministic_per_seed(self):
        a = table(seed=1, reprobe_jitter=0.2)
        b = table(seed=1, reprobe_jitter=0.2)
        c = table(seed=2, reprobe_jitter=0.2)
        assert a._backoff("p", 2) == b._backoff("p", 2)
        assert a._backoff("p", 2) != c._backoff("p", 2)

    def test_probe_not_due_before_backoff_elapses(self):
        t = table(reprobe_interval=5.0, reprobe_jitter=0.0)
        t.register("p", configured=True)
        t.mark_dead("p", 0.0)
        assert t.due_probes(4.9) == []
        assert t.due_probes(5.0) == ["p"]

    def test_pending_probe_is_not_duplicated(self):
        t = table(reprobe_interval=5.0, reprobe_jitter=0.0)
        t.register("p", configured=True)
        t.mark_dead("p", 0.0)
        t.probe_sent("p", 5.0)
        assert t.due_probes(1000.0) == []       # slot closed while in flight
        t.probe_failed("p", 15.0)
        assert t.due_probes(15.0) == ["p"]      # backed-off slot reopened

    def test_heartbeat_clears_probe_state(self):
        t = table()
        t.register("p", configured=True)
        t.mark_dead("p", 0.0)
        t.probe_sent("p", 5.0)
        t.heartbeat("p", 6.0)
        assert t.reprobe_backlog() == 0
        assert t.due_probes(1000.0) == []
        assert t.reprobe_period("p") == 0.0


class TestInstallAndSnapshot:
    def test_install_is_idempotent_for_replay(self):
        t = table()
        t.install("p", DEAD, 1.0)
        t.install("p", DEAD, 2.0)
        assert t.state("p") == DEAD
        assert t.counters.deaths == 0   # replay must not inflate counters

    def test_snapshot_round_trip_keeps_non_alive_rows(self):
        t = table()
        t.register("a", configured=True)
        t.mark_dead("a", 1.0)
        t.install("b", SUSPECT, 2.0)
        rows = t.snapshot()
        assert {r["peer"] for r in rows} == {"a", "b"}
        fresh = table()
        fresh.restore(rows, now=10.0)
        assert fresh.state("a") == DEAD
        assert fresh.state("b") == SUSPECT

    def test_from_config_floors_at_pinger_interval(self):
        config = ServerConfig(pinger_interval=7.0, membership_floor=0.1)
        t = MembershipTable.from_config(config)
        assert t.detector.floor == 7.0
