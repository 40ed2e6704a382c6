"""Chaos suite: crash, partition, and restart a real cluster under load.

Three scenarios from the failure model (DESIGN.md):

1. A co-op process is SIGKILLed mid-crawl.  The home's pinger (fed by
   the data path too) must declare it dead, revoke its migrations, and
   re-home the links — after the convergence window every document is
   served again with zero 5xx and zero lost documents.
2. The home is partitioned away from a co-op (deterministic blackhole
   via a FaultPlan).  The co-op keeps serving its stale copies, degrades
   failed new pulls to 302-back-to-home while its breaker is closed and
   to 503 + Retry-After once it opens, and heals through a half-open
   probe when the partition lifts.
3. The home restarts from its snapshot while walkers keep crawling; no
   migration state is lost across the restart.

Failures are injected with seeded plans or real signals; the driving
seed is printed so a failing run can be replayed (`REPRO_FAULT_SEED`).
"""

import dataclasses
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.client.realclient import (
    fetch_url,
    http_fetch,
    reset_replica_failures,
)
from repro.client.walker import RandomWalker
from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.faults import FaultPlan
from repro.http.messages import Request
from repro.http.urls import URL
from repro.server.engine import DCWSEngine
from repro.server.filestore import MemoryStore
from repro.server.fsck import assert_clean
from repro.server.threaded import ThreadedDCWSServer

SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

SITE = {
    "/index.html": b'<html><a href="d.html">D</a><a href="e.html">E</a></html>',
    "/d.html": b'<html><a href="e.html">E</a></html>',
    "/e.html": b"<html>leaf</html>",
}

#: Stand-alone co-op process for the SIGKILL scenario: starts a real
#: threaded server, prints READY, then idles until killed.
COOP_SCRIPT = """\
import sys, time
from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.server.engine import DCWSEngine
from repro.server.filestore import MemoryStore
from repro.server.threaded import ThreadedDCWSServer

coop_port, home_port = int(sys.argv[1]), int(sys.argv[2])
config = ServerConfig(stats_interval=60.0, pinger_interval=60.0)
engine = DCWSEngine(Location("127.0.0.1", coop_port), config, MemoryStore(),
                    peers=[Location("127.0.0.1", home_port)])
server = ThreadedDCWSServer(engine, tick_period=0.1)
server.start()
print("READY", flush=True)
while True:
    time.sleep(1.0)
"""


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def capped_sleep(seconds: float) -> None:
    """Walker backoff with real (but bounded) waiting."""
    time.sleep(min(seconds, 0.05))


def crawl(port: int, *, walkers: int = 3, sequences: int = 8):
    """Run *walkers* concurrent random walks against 127.0.0.1:*port*;
    returns (threads, stats-list).  Transport failures are tolerated —
    chaos is the point — so walkers retry briefly and move on."""
    stats, threads = [], []

    def one(seed: int) -> None:
        walker = RandomWalker([f"http://127.0.0.1:{port}/index.html"],
                              lambda url: fetch_url(url, timeout=2.0),
                              seed=SEED + seed, sleep=capped_sleep,
                              min_steps=2, max_steps=4,
                              max_transport_retries=1)
        walker.run(sequences=sequences)
        stats.append(walker.stats)

    for i in range(walkers):
        thread = threading.Thread(target=one, args=(i,), daemon=True)
        thread.start()
        threads.append(thread)
    return threads, stats


def wait_until(predicate, deadline: float, message: str,
               diagnose=None) -> None:
    """Poll *predicate* until it holds or *deadline* seconds pass.  A
    timeout fails the test with *message*, the fault seed and — when
    given — what ``diagnose()`` says the servers were doing instead."""
    end = time.time() + deadline
    while time.time() < end:
        if predicate():
            return
        time.sleep(0.05)
    state = f"\n{diagnose()}" if diagnose is not None else ""
    pytest.fail(f"{message} (seed={SEED}){state}")


def rejoin_diagnosis(home, victim, key: str) -> str:
    """Both halves of rejoin reconciliation, as a timed-out wait found
    them: the home's membership counters and view of the peer, the
    victim's hosted entry for *key*, and the tail of both event logs."""
    lines = []
    with home._lock:
        membership = home.engine.membership
        peer = str(victim.engine.location)
        lines.append(f"home membership counters: "
                     f"{dataclasses.asdict(membership.counters)}")
        lines.append(f"home sees {peer} as {membership.state(peer)}")
        home_tail = home.engine.log.tail(20)
    with victim._lock:
        lines.append(f"victim hosted[{key}]: "
                     f"{victim.engine.hosted.get(key)}")
        victim_tail = victim.engine.log.tail(20)
    for owner, tail in (("home", home_tail), ("victim", victim_tail)):
        lines.append(f"last {len(tail)} {owner} events:")
        lines.extend(f"  {event.render()}" for event in tail)
    return "\n".join(lines)


def test_a_timed_out_wait_reports_what_the_servers_were_doing():
    with pytest.raises(pytest.fail.Exception) as failure:
        wait_until(lambda: False, 0.0, "never settled",
                   diagnose=lambda: "home membership counters: {...}")
    assert str(failure.value) == \
        f"never settled (seed={SEED})\nhome membership counters: {{...}}"


class TestCoopCrash:
    def test_sigkill_coop_converges(self, tmp_path):
        home_port, coop_port = free_port(), free_port()
        coop_loc = Location("127.0.0.1", coop_port)
        config = ServerConfig(stats_interval=60.0, pinger_interval=0.3,
                              ping_failure_limit=2,
                              breaker_reset_timeout=0.2)
        engine = DCWSEngine(Location("127.0.0.1", home_port), config,
                            MemoryStore(SITE), entry_points=["/index.html"],
                            peers=[coop_loc])
        home = ThreadedDCWSServer(engine, tick_period=0.1)
        home.start()

        script = tmp_path / "coop.py"
        script.write_text(COOP_SCRIPT)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        proc = subprocess.Popen(
            [sys.executable, str(script), str(coop_port), str(home_port)],
            env=env, stdout=subprocess.PIPE, text=True)
        try:
            assert proc.stdout.readline().strip() == "READY"
            with home._lock:
                home.engine.policy.force_migrate("/d.html", coop_loc,
                                                 time.monotonic())
            # Warm the co-op: the redirect chain pulls /d.html over TCP.
            outcome = fetch_url(URL("127.0.0.1", home_port, "/d.html"))
            assert outcome.status == 200 and outcome.redirected

            threads, __ = crawl(home_port)
            time.sleep(0.3)
            proc.kill()  # SIGKILL: no goodbye, no FIN from the engine
            proc.wait(timeout=10)

            wait_until(lambda: home.engine.log.count("peer_dead") >= 1,
                       10.0, "home never declared the killed co-op dead")
            wait_until(
                lambda: not home.engine.policy.migrated_names(),
                10.0, "migrations to the dead co-op were never revoked")
            for thread in threads:
                thread.join(timeout=30)
            assert home.engine.stats.revocations >= 1

            # Converged: every document serves again, zero 5xx, nothing
            # redirects into the dead peer — no documents were lost.
            for __ in range(3):
                for name in SITE:
                    outcome = fetch_url(
                        URL("127.0.0.1", home_port, name), timeout=2.0)
                    assert outcome.status == 200, \
                        f"{name} -> {outcome.status} (seed={SEED})"
                    assert not outcome.redirected
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            home.stop()


class TestPartition:
    def test_partitioned_home_degrades_then_heals(self):
        home_port, coop_port = free_port(), free_port()
        home_loc = Location("127.0.0.1", home_port)
        coop_loc = Location("127.0.0.1", coop_port)
        config = ServerConfig(stats_interval=60.0, pinger_interval=60.0,
                              validation_interval=60.0,
                              ping_failure_limit=5,
                              breaker_failure_threshold=2,
                              breaker_reset_timeout=0.2,
                              breaker_jitter=0.0)
        home_engine = DCWSEngine(home_loc, config, MemoryStore(SITE),
                                 entry_points=["/index.html"],
                                 peers=[coop_loc])
        coop_engine = DCWSEngine(coop_loc, config, MemoryStore(),
                                 peers=[home_loc])
        plan = FaultPlan(seed=SEED)
        home = ThreadedDCWSServer(home_engine, tick_period=0.1)
        coop = ThreadedDCWSServer(coop_engine, tick_period=0.1, faults=plan)
        home.start()
        coop.start()
        home_key = f"127.0.0.1:{home_port}"
        key_d = f"/~migrate/127.0.0.1/{home_port}/d.html"
        key_e = f"/~migrate/127.0.0.1/{home_port}/e.html"
        try:
            with home._lock:
                home.engine.policy.force_migrate("/d.html", coop_loc,
                                                 time.monotonic())
                home.engine.policy.force_migrate("/e.html", coop_loc,
                                                 time.monotonic())
            # Warm pull of /d.html only; /e.html stays unfetched.
            assert fetch_url(URL("127.0.0.1", home_port, "/d.html")).status \
                == 200

            plan.block(home_key)  # the co-op can no longer reach home

            # Stale copy: still served from the hosted cache.
            assert http_fetch(coop_loc,
                              Request("GET", key_d)).status == 200
            # New pull fails; breaker still closed -> bounce to home.
            for __ in range(2):
                reply = http_fetch(coop_loc, Request("GET", key_e))
                assert reply.status == 302, f"seed={SEED}"
                assert reply.headers.get("Location") == \
                    f"http://127.0.0.1:{home_port}/e.html"
            # Threshold reached: the breaker is open, shed with a hint.
            reply = http_fetch(coop_loc, Request("GET", key_e))
            assert reply.status == 503
            assert reply.headers.get("Retry-After") == "1"
            assert coop.engine.stats.pulls_degraded == 3
            assert coop.engine.stats.responses_503 == 1

            plan.unblock(home_key)
            time.sleep(0.25)  # past the breaker's backoff window
            # Half-open probe admits the pull; the circuit closes.
            assert http_fetch(coop_loc, Request("GET", key_e)).status == 200
            assert coop.engine.hosted[key_e].fetched
        finally:
            coop.stop()
            home.stop()


class TestRestartUnderLoad:
    def test_snapshot_restart_keeps_migrations(self, tmp_path):
        home_port, coop_port = free_port(), free_port()
        home_loc = Location("127.0.0.1", home_port)
        coop_loc = Location("127.0.0.1", coop_port)
        snapshot = str(tmp_path / "home.snapshot")
        store = MemoryStore(SITE)  # survives the restart (same "disk")
        config = ServerConfig(stats_interval=60.0, pinger_interval=60.0)
        coop_engine = DCWSEngine(coop_loc, config, MemoryStore(),
                                 peers=[home_loc])
        coop = ThreadedDCWSServer(coop_engine, tick_period=0.1)
        coop.start()

        def make_home():
            engine = DCWSEngine(home_loc, config, store,
                                entry_points=["/index.html"],
                                peers=[coop_loc])
            return ThreadedDCWSServer(engine, tick_period=0.1,
                                      snapshot_path=snapshot)

        first = make_home()
        first.start()
        second = None
        try:
            with first._lock:
                first.engine.policy.force_migrate("/d.html", coop_loc,
                                                  time.monotonic())
            assert fetch_url(URL("127.0.0.1", home_port, "/d.html")).status \
                == 200
            threads, stats = crawl(home_port, sequences=12)
            time.sleep(0.2)
            first.stop()  # mid-crawl restart; stop() writes the snapshot
            second = make_home()
            second.start()
            for thread in threads:
                thread.join(timeout=30)

            with second._lock:
                assert second.engine.policy.migrated_names() == ["/d.html"]
            reply = fetch_url(URL("127.0.0.1", home_port, "/d.html"),
                              max_redirects=0)
            assert reply.status == 301  # migration survived the restart
            for name in SITE:
                assert fetch_url(
                    URL("127.0.0.1", home_port, name)).status == 200
            # Walkers rode through the restart: they made progress and
            # the blip shows up as bounded transport retries, not a hang.
            assert sum(s.sequences for s in stats) == 36
        finally:
            if second is not None:
                second.stop()
            first.stop()
            coop.stop()


class TestCoopRestartUnderLoad:
    def test_coop_restart_with_lost_bytes_serves_without_404s(self, tmp_path):
        """Satellite of the durability PR: a co-op that restarts having
        lost its hosted *bytes* (its cache disk died) but kept its
        snapshot re-registers every hosted entry as unfetched and
        re-pulls on demand — the home keeps redirecting to it, so a 404
        here would be a lost document.  After convergence every document
        serves 200 and the restarted co-op answered zero 404s."""
        home_port, coop_port = free_port(), free_port()
        home_loc = Location("127.0.0.1", home_port)
        coop_loc = Location("127.0.0.1", coop_port)
        snapshot = str(tmp_path / "coop.snapshot")
        journal = str(tmp_path / "coop.wal")
        config = ServerConfig(stats_interval=60.0, pinger_interval=60.0,
                              validation_interval=60.0)
        home_engine = DCWSEngine(home_loc, config, MemoryStore(SITE),
                                 entry_points=["/index.html"],
                                 peers=[coop_loc])
        home = ThreadedDCWSServer(home_engine, tick_period=0.1)
        home.start()

        def make_coop():
            # A fresh MemoryStore each incarnation: the hosted bytes do
            # NOT survive the restart, only snapshot + journal do.
            engine = DCWSEngine(coop_loc, config, MemoryStore(),
                                peers=[home_loc])
            return ThreadedDCWSServer(engine, tick_period=0.1,
                                      snapshot_path=snapshot,
                                      journal_path=journal)

        first = make_coop()
        first.start()
        second = None
        try:
            with home._lock:
                home.engine.policy.force_migrate("/d.html", coop_loc,
                                                 time.monotonic())
                home.engine.policy.force_migrate("/e.html", coop_loc,
                                                 time.monotonic())
            # Warm both hosted copies over real sockets.
            for name in ("/d.html", "/e.html"):
                outcome = fetch_url(URL("127.0.0.1", home_port, name))
                assert outcome.status == 200 and outcome.redirected

            threads, stats = crawl(home_port, sequences=10)
            time.sleep(0.2)
            first.stop()   # restart mid-crawl; bytes are gone with it
            second = make_coop()
            second.start()
            for thread in threads:
                thread.join(timeout=30)

            key_d = f"/~migrate/127.0.0.1/{home_port}/d.html"
            key_e = f"/~migrate/127.0.0.1/{home_port}/e.html"
            with second._lock:
                # The snapshot re-registered the entries, unfetched.
                assert set(second.engine.hosted) == {key_d, key_e}
            # Convergence: every document serves 200 again; the hosted
            # entries re-fetch lazily on first demand.
            for __ in range(3):
                for name in SITE:
                    outcome = fetch_url(
                        URL("127.0.0.1", home_port, name), timeout=2.0)
                    assert outcome.status == 200, \
                        f"{name} -> {outcome.status} (seed={SEED})"
            with second._lock:
                assert second.engine.hosted[key_d].fetched
                assert second.engine.hosted[key_e].fetched
                # Zero 404s across the restarted co-op's whole life:
                # unfetched entries re-pull, they never deny.
                assert second.engine.stats.responses_404 == 0, \
                    f"seed={SEED}"
                assert second.engine.stats.pulls_completed >= 2
        finally:
            if second is not None:
                second.stop()
            first.stop()
            home.stop()


class TestReplicaHolderCrash:
    """Scenario 5: SIGKILL one holder of a k=2 replication group.

    The tentpole gate of the replication-groups subsystem: with k-copy
    placement and autonomous repair, a single co-op crash mid-crawl must
    cost *zero* availability (no 404s) and cause *zero* 302-storms (the
    document is never revoked back home — its surviving copy keeps
    serving while the repair daemon re-replicates onto a spare co-op).
    Both the primary holder and the replica holder get killed, in turn.
    """

    @pytest.mark.parametrize("victim_role", ["primary", "replica"])
    def test_sigkill_holder_zero_404s_zero_revocations(self, tmp_path,
                                                       victim_role):
        reset_replica_failures()
        home_port = free_port()
        coop_ports = [free_port() for __ in range(3)]
        config = ServerConfig(stats_interval=0.3, pinger_interval=0.3,
                              ping_failure_limit=2,
                              breaker_reset_timeout=0.2,
                              replication_k=2, max_replicas=2)
        engine = DCWSEngine(
            Location("127.0.0.1", home_port), config, MemoryStore(SITE),
            entry_points=["/index.html"],
            peers=[Location("127.0.0.1", p) for p in coop_ports])
        home = ThreadedDCWSServer(engine, tick_period=0.1)

        script = tmp_path / "coop.py"
        script.write_text(COOP_SCRIPT)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        procs = {}
        for port in coop_ports:
            procs[port] = subprocess.Popen(
                [sys.executable, str(script), str(port), str(home_port)],
                env=env, stdout=subprocess.PIPE, text=True)
        key_d = f"/~migrate/127.0.0.1/{home_port}/d.html"
        try:
            # All co-ops must be listening before home's pinger starts:
            # a peer declared dead during bootstrap is dropped from the
            # GLT and only gossip would rediscover it.
            for port in coop_ports:
                assert procs[port].stdout.readline().strip() == "READY"
            home.start()
            primary = Location("127.0.0.1", coop_ports[0])
            with home._lock:
                home.engine.policy.force_migrate("/d.html", primary,
                                                 time.monotonic())
            # The repair daemon proactively tops the group up to k=2.
            wait_until(
                lambda: len(home.engine.graph.get("/d.html").replicas) == 1,
                10.0, "repair daemon never topped the group up to k=2")
            replica = next(iter(home.engine.graph.get("/d.html").replicas))
            # Warm both holders: each pulls its copy over real TCP.
            for holder in (primary, replica):
                assert http_fetch(holder,
                                  Request("GET", key_d)).status == 200

            statuses = []
            statuses_lock = threading.Lock()

            def recording_fetch(url):
                outcome = fetch_url(url, timeout=2.0)
                with statuses_lock:
                    statuses.append(outcome.status)
                return outcome

            stats, threads = [], []

            def one(seed: int) -> None:
                walker = RandomWalker(
                    [f"http://127.0.0.1:{home_port}/index.html"],
                    recording_fetch, seed=SEED + seed, sleep=capped_sleep,
                    min_steps=2, max_steps=4, max_transport_retries=2)
                walker.run(sequences=8)
                stats.append(walker.stats)

            for i in range(3):
                thread = threading.Thread(target=one, args=(i,), daemon=True)
                thread.start()
                threads.append(thread)

            time.sleep(0.3)
            victim = primary if victim_role == "primary" else replica
            proc = procs[victim.port]
            proc.kill()  # SIGKILL mid-crawl: no goodbye, no FIN
            proc.wait(timeout=10)

            wait_until(lambda: home.engine.log.count("peer_dead") >= 1,
                       10.0, "home never declared the killed holder dead")
            # Autonomous repair: the group is restored to two live
            # holders — neither of them the victim — without the
            # document ever being revoked back home.
            wait_until(
                lambda: victim not in
                home.engine.graph.get("/d.html").locations()
                and len(home.engine.graph.get("/d.html").locations()) == 2,
                10.0, "group never repaired back to k=2 live holders")
            for thread in threads:
                thread.join(timeout=30)

            with home._lock:
                assert home.engine.stats.replica_drops >= 1
                assert home.engine.stats.repairs >= 2  # top-up + repair
                # The zero-302-storm gate: holder death never caused a
                # revocation — the survivor kept the group serving.
                assert home.engine.stats.revocations == 0, f"seed={SEED}"
                # /d.html stayed out (never revoked home); the engine may
                # have migrated other hot documents under the crawl load.
                assert "/d.html" in home.engine.policy.migrated_names()

            # Zero 404s across the whole storm: no request ever saw a
            # missing document, crash or no crash.
            with statuses_lock:
                assert statuses, "walkers never completed a fetch"
                assert 404 not in statuses, f"saw a 404 (seed={SEED})"

            # Converged: everything serves, nothing points at the victim.
            for __ in range(3):
                for name in SITE:
                    outcome = fetch_url(
                        URL("127.0.0.1", home_port, name), timeout=2.0)
                    assert outcome.status == 200, \
                        f"{name} -> {outcome.status} (seed={SEED})"
        finally:
            for proc in procs.values():
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)
            home.stop()
            reset_replica_failures()


class TestFalseDeathRediscovery:
    """Scenario 6: a co-op is *partitioned* (not killed), declared dead,
    and must be rediscovered after the partition heals.

    The adaptive-membership gate: the home's accrual detector + failure
    bound declare the partitioned holder dead and repair re-replicates
    its documents elsewhere; the rediscovery daemon then re-probes the
    dead peer at a jittered exponential backoff, so when the partition
    lifts the peer is back (``peer_rejoined``) within two re-probe
    periods — and its surviving stale copy is settled by rejoin
    reconciliation (the group is already whole, so the returning copy
    loses).  Throughout: zero 404s, no document with two primaries
    (fsck), and every k=2 group back healthy.
    """

    def test_partition_heal_rediscovers_within_two_periods(self):
        reset_replica_failures()
        home_port = free_port()
        coop_ports = [free_port() for __ in range(3)]
        config = ServerConfig(stats_interval=0.3, pinger_interval=0.3,
                              ping_failure_limit=2,
                              validation_interval=60.0,
                              breaker_reset_timeout=0.2,
                              replication_k=2, max_replicas=2,
                              reprobe_interval=0.3, reprobe_backoff=2.0,
                              reprobe_max_interval=0.6, reprobe_jitter=0.0)
        home_loc = Location("127.0.0.1", home_port)
        coop_locs = [Location("127.0.0.1", p) for p in coop_ports]
        home_plan = FaultPlan(seed=SEED)       # home's outbound view
        victim_plan = FaultPlan(seed=SEED)     # the victim's outbound view
        home_engine = DCWSEngine(home_loc, config, MemoryStore(SITE),
                                 entry_points=["/index.html"],
                                 peers=coop_locs)
        home = ThreadedDCWSServer(home_engine, tick_period=0.1,
                                  faults=home_plan)
        coops = []
        for index, loc in enumerate(coop_locs):
            engine = DCWSEngine(loc, config, MemoryStore(),
                                peers=[home_loc])
            coops.append(ThreadedDCWSServer(
                engine, tick_period=0.1,
                faults=victim_plan if index == 0 else None))
        victim = coop_locs[0]
        victim_key = str(victim)
        home_key = str(home_loc)
        try:
            for coop in coops:
                coop.start()
            home.start()
            with home._lock:
                home.engine.policy.force_migrate("/d.html", victim,
                                                 time.monotonic())
            wait_until(
                lambda: len(home.engine.graph.get("/d.html").replicas) == 1,
                10.0, "repair daemon never topped the group up to k=2")
            key_d = f"/~migrate/127.0.0.1/{home_port}/d.html"
            diagnose = lambda: rejoin_diagnosis(home, coops[0], key_d)
            replica = next(iter(home.engine.graph.get("/d.html").replicas))
            for holder in (victim, replica):
                assert http_fetch(holder,
                                  Request("GET", key_d)).status == 200

            statuses = []
            statuses_lock = threading.Lock()

            def recording_fetch(url):
                outcome = fetch_url(url, timeout=2.0)
                with statuses_lock:
                    statuses.append(outcome.status)
                return outcome

            threads = []

            def one(seed: int) -> None:
                walker = RandomWalker(
                    [f"http://127.0.0.1:{home_port}/index.html"],
                    recording_fetch, seed=SEED + seed, sleep=capped_sleep,
                    min_steps=2, max_steps=4, max_transport_retries=2)
                walker.run(sequences=25)

            for i in range(3):
                thread = threading.Thread(target=one, args=(i,), daemon=True)
                thread.start()
                threads.append(thread)
            time.sleep(0.3)

            # Bidirectional partition: each plan is its owner's *outbound*
            # view, so the victim must also stop gossiping back (incoming
            # piggyback counts as proof of life at the home).
            home_plan.block(victim_key)
            victim_plan.block(home_key)

            wait_until(
                lambda: home.engine.membership.is_dead(victim_key),
                10.0, "home never declared the partitioned co-op dead",
                diagnose)
            # Repair re-homed the group onto the survivors: two live
            # holders, neither of them the victim, nothing revoked home.
            wait_until(
                lambda: victim not in
                home.engine.graph.get("/d.html").locations()
                and len(home.engine.graph.get("/d.html").locations()) == 2,
                10.0, "group never repaired away from the dead holder",
                diagnose)

            # Heal.  The gate: rediscovered within two re-probe periods —
            # asserted as "at most two probes emitted after healing", the
            # schedule-level formulation, which stays deterministic when
            # a loaded CI box stretches wall-clock tick latency.
            probes_before = home.engine.membership.counters.probes_sent
            home_plan.unblock(victim_key)
            victim_plan.unblock(home_key)
            wait_until(
                lambda: home.engine.membership.state(victim_key) == "alive",
                10.0, "healed co-op was never rediscovered",
                diagnose)
            probes_after_heal = \
                home.engine.membership.counters.probes_sent - probes_before
            with home._lock:
                assert home.engine.membership.counters.rediscoveries >= 1
                assert home.engine.log.count("peer_rejoined") >= 1
            # Rejoin reconciliation: the victim still held its stale copy
            # of /d.html, but the group is already whole — the returning
            # copy loses.  Either half of reconciliation may settle it
            # first: the home reads the victim's manifest and records a
            # reconcile drop, or the victim's own rejoin path forces the
            # copy due for validation and drops it on the home's 302.
            wait_until(
                lambda: home.engine.membership.counters.reconcile_drops >= 1
                or key_d not in coops[0].engine.hosted,
                10.0, "rejoin reconciliation never settled the stale copy",
                diagnose)

            for thread in threads:
                thread.join(timeout=30)

            with home._lock:
                # All k=2 groups back healthy, victim re-registered.
                assert home.engine.replication.groups_below_target() == 0
                assert home.engine.glt.get(victim) is not None
                # The victim is not a holder: reconciliation dropped its
                # copy rather than re-admitting a third primary-ish copy.
                record = home.engine.graph.get("/d.html")
                assert victim not in record.locations()
                # No document with two primaries, no dead holder left in
                # any serving set (fsck invariant 8).
                assert_clean(home.engine)

            # Zero 404s across partition, death, repair, and rejoin.
            with statuses_lock:
                assert statuses, "walkers never completed a fetch"
                assert 404 not in statuses, f"saw a 404 (seed={SEED})"
            for name in SITE:
                outcome = fetch_url(
                    URL("127.0.0.1", home_port, name), timeout=2.0)
                assert outcome.status == 200, \
                    f"{name} -> {outcome.status} (seed={SEED})"
            # Within two re-probe periods of the heal: the probe that was
            # already scheduled when the partition lifted, plus at most
            # one more, brought the peer back.
            assert probes_after_heal <= 2, \
                f"{probes_after_heal} probes after heal (seed={SEED})"
        finally:
            home.stop()
            for coop in coops:
                coop.stop()
            reset_replica_failures()


class TestCorruptionQuarantine:
    """Scenario 7: one holder of a k=2 group silently rots mid-crawl.

    The integrity-subsystem gate: a byte flip in one holder's store must
    be *detected* within a scrub period, the copy *quarantined* (and
    journaled via the event log), and the group *repaired* from a
    verified copy — while no client ever receives a corrupt 200 body
    (every fetch_url outcome re-verifies X-DCWS-Digest client-side).
    Parametrized over three walker-seed offsets: the result must not
    depend on crawl interleaving.
    """

    @pytest.mark.parametrize("seed_offset", [0, 1, 2])
    def test_byte_flip_quarantined_and_repaired(self, seed_offset):
        reset_replica_failures()
        home_port = free_port()
        coop_ports = [free_port() for __ in range(3)]
        # ping_failure_limit is generous: nobody dies in this scenario,
        # and a spurious load-induced death would drop the victim's copy
        # through the membership path before the scrubber could see it.
        config = ServerConfig(stats_interval=0.3, pinger_interval=0.3,
                              ping_failure_limit=6,
                              validation_interval=60.0,
                              breaker_reset_timeout=0.2,
                              replication_k=2, max_replicas=2,
                              scrub_interval=0.3, scrub_budget=16,
                              integrity_serve_sample=1)
        home_loc = Location("127.0.0.1", home_port)
        coop_locs = [Location("127.0.0.1", p) for p in coop_ports]
        home_engine = DCWSEngine(home_loc, config, MemoryStore(SITE),
                                 entry_points=["/index.html"],
                                 peers=coop_locs)
        home = ThreadedDCWSServer(home_engine, tick_period=0.1)
        coops = [ThreadedDCWSServer(
            DCWSEngine(loc, config, MemoryStore(), peers=[home_loc]),
            tick_period=0.1) for loc in coop_locs]
        victim = coops[0]
        key_d = f"/~migrate/127.0.0.1/{home_port}/d.html"
        try:
            for coop in coops:
                coop.start()
            home.start()
            with home._lock:
                home.engine.policy.force_migrate("/d.html", coop_locs[0],
                                                 time.monotonic())
            wait_until(
                lambda: len(home.engine.graph.get("/d.html").replicas) == 1,
                10.0, "repair daemon never topped the group up to k=2")
            replica = next(iter(home.engine.graph.get("/d.html").replicas))
            for holder in (coop_locs[0], replica):
                assert http_fetch(holder,
                                  Request("GET", key_d)).status == 200

            outcomes = []
            outcomes_lock = threading.Lock()

            def recording_fetch(url):
                outcome = fetch_url(url, timeout=2.0)
                with outcomes_lock:
                    outcomes.append(outcome)
                return outcome

            threads = []

            def one(seed: int) -> None:
                walker = RandomWalker(
                    [f"http://127.0.0.1:{home_port}/index.html"],
                    recording_fetch,
                    seed=SEED + 10 * seed_offset + seed,
                    sleep=capped_sleep, min_steps=2, max_steps=4,
                    max_transport_retries=2)
                walker.run(sequences=10)

            for i in range(3):
                thread = threading.Thread(target=one, args=(i,), daemon=True)
                thread.start()
                threads.append(thread)
            time.sleep(0.3)

            # The silent byte flip: rot the victim's stored copy without
            # touching its recorded digest (exactly what a bad disk does).
            with victim._lock:
                data = victim.engine.store.get(key_d)
                index = len(data) // 2
                victim.engine.store.put(
                    key_d,
                    data[:index] + bytes([data[index] ^ 0xFF])
                    + data[index + 1:])

            # Detected within a scrub period and quarantined + journaled.
            # (Lifetime counters, not the live table: the full detect ->
            # notify -> repair -> clear pipeline can finish between two
            # polls of this loop.)
            wait_until(
                lambda: victim.engine.log.count("quarantine") >= 1,
                10.0, "victim never quarantined its rotted copy")
            assert victim.engine.integrity.counters \
                .corruptions_detected >= 1
            event = victim.engine.log.last("quarantine")
            assert event is not None \
                and event.fields["reason"] in ("scrub", "serve")

            # The home hears about it, drops the holder, and repairs the
            # group back to two live verified holders.  (Placement is the
            # policy's business: the victim may legitimately be re-picked
            # — it then re-pulls verified bytes, which is a repair too.)
            wait_until(
                lambda: home.engine.integrity.counters
                .holder_quarantines_reported >= 1,
                10.0, "home was never told about the quarantined holder")
            assert home.engine.log.count("holder_quarantined") >= 1
            wait_until(
                lambda: len(home.engine.graph.get("/d.html").locations())
                == 2,
                10.0, "group never repaired back to two live holders")
            # The quarantine lifts once the corrupt copy is dropped (or
            # replaced by a verified re-pull) — it never lingers.
            wait_until(
                lambda: not victim.engine.integrity.is_quarantined(key_d),
                10.0, "victim quarantine never cleared after repair")

            for thread in threads:
                thread.join(timeout=30)

            with home._lock:
                assert home.engine.stats.replica_drops \
                    + home.engine.stats.revocations >= 1

            # Zero corrupt 200 bodies across the whole storm: every body
            # the walkers accepted verified against its digest, and none
            # came up short against its Content-Length.
            with outcomes_lock:
                assert outcomes, "walkers never completed a fetch"
                assert not any(o.corrupt_body for o in outcomes), \
                    f"client saw a corrupt 200 body (seed={SEED})"
                assert not any(o.short_body for o in outcomes), \
                    f"client saw a short body (seed={SEED})"
                assert 404 not in [o.status for o in outcomes], \
                    f"saw a 404 (seed={SEED})"

            # Post-recovery: every document serves verified bytes and
            # fsck invariant 9 holds on every engine (no quarantined
            # entry in any serve table).
            for __ in range(3):
                for name in SITE:
                    outcome = fetch_url(
                        URL("127.0.0.1", home_port, name), timeout=2.0)
                    assert outcome.status == 200, \
                        f"{name} -> {outcome.status} (seed={SEED})"
                    assert not outcome.corrupt_body
            with home._lock:
                assert_clean(home.engine)
            for coop in coops:
                with coop._lock:
                    assert_clean(coop.engine)
        finally:
            home.stop()
            for coop in coops:
                coop.stop()
            reset_replica_failures()


class TestWorkerCrash:
    """Scenario 4: one multi-process worker is SIGKILLed under load.

    The supervisor must respawn it and rebroadcast the roster; every
    request that reaches a live worker keeps being answered from the
    shared corpus, so across the whole storm the walkers see zero 404s.
    Transport-level resets (the killed worker's accept queue dies with
    it) are expected and retried — chaos is the point.
    """

    def test_sigkill_worker_zero_404s(self):
        pytest.importorskip("repro.server.multiproc")
        from repro.server.multiproc import WorkerSupervisor, choose_mode

        if choose_mode() is None:
            pytest.skip("no multi-process accept mode on this platform")

        def factory(index, location):
            config = ServerConfig(stats_interval=60.0, pinger_interval=60.0)
            return DCWSEngine(location, config, MemoryStore(dict(SITE)),
                              entry_points=["/index.html"], peers=[])

        statuses = []
        statuses_lock = threading.Lock()

        def recording_fetch(url):
            outcome = fetch_url(url, timeout=2.0)
            with statuses_lock:
                statuses.append(outcome.status)
            return outcome

        with WorkerSupervisor(factory, 2, port=0) as sup:
            stats, threads = [], []

            def one(seed: int) -> None:
                walker = RandomWalker(
                    [f"http://127.0.0.1:{sup.port}/index.html"],
                    recording_fetch, seed=SEED + seed, sleep=capped_sleep,
                    min_steps=2, max_steps=4, max_transport_retries=2)
                walker.run(sequences=10)
                stats.append(walker.stats)

            for i in range(3):
                thread = threading.Thread(target=one, args=(i,), daemon=True)
                thread.start()
                threads.append(thread)

            time.sleep(0.3)
            victim = sup._procs[0].process.pid
            os.kill(victim, 9)  # SIGKILL mid-crawl: no goodbye

            wait_until(lambda: sup.respawns >= 1
                       and all(p.alive for p in sup._procs),
                       10.0, "supervisor never respawned the killed worker")
            for thread in threads:
                thread.join(timeout=30)

            # The respawned worker answers too: every document reachable.
            for name in SITE:
                outcome = fetch_url(
                    URL("127.0.0.1", sup.port, name), timeout=2.0)
                assert outcome.status == 200, \
                    f"{name} -> {outcome.status} (seed={SEED})"

        with statuses_lock:
            assert statuses, "walkers never completed a fetch"
            assert 404 not in statuses, f"saw a 404 (seed={SEED})"
        total = sum(s.requests for s in stats)
        assert total > 0
