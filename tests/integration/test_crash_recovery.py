"""Crash-recovery harness: SIGKILL a real server, recover, fsck.

The durability contract (DESIGN.md): after a crash, a restarted server
recovers to a *prefix-consistent superset* of its last acknowledged
state — every mutation acknowledged before the kill is present, at most
the single in-flight mutation may additionally appear, and the invariant
checker (:mod:`repro.server.fsck`) passes.  No forgotten migrations, no
lost documents.

The harness runs a real :class:`ThreadedDCWSServer` subprocess with
``wal_fsync="always"`` over a real on-disk store and journal.  The
parent drives a seeded mutation plan step by step over a stdin/stdout
handshake (``GO`` → mutate → ``ACK``), SIGKILLs the child at
seed-chosen acknowledgement counts, restarts the server in *dump* mode
(the same recovery path production start() runs), and compares the
recovered state against a shadow engine that applied the same
acknowledged prefix in-process.

A second suite injects torn and failed writes *on the journal file
itself* with a :class:`FaultPlan` — the power-loss-mid-append signature
— and asserts the same contract.  The driving seed is printed on
failure so CI runs replay locally (``REPRO_FAULT_SEED``).
"""

import json
import os
import random
import signal
import socket
import subprocess
import sys
import time

import pytest

import repro
from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.faults import FaultPlan, FaultRule, InjectedDiskError
from repro.server.engine import DCWSEngine
from repro.server.filestore import DiskStore, MemoryStore
from repro.server.fsck import check_engine
from repro.server.threaded import ThreadedDCWSServer

SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

PAGES = [f"/p{i}.html" for i in range(4)]
SITE = dict(
    {"/index.html": ("<html>" + "".join(
        f'<a href="p{i}.html">P{i}</a>' for i in range(4))
        + "</html>").encode()},
    **{f"/p{i}.html": f"<html>page {i}</html>".encode() for i in range(4)})

COOP = Location("coop", 9999)  # never contacted: migrations are lazy


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def make_plan(seed: int, steps: int = 18):
    """A seeded mutation plan over PAGES: updates, migrations, revokes.

    Tracks which pages are currently migrated so every step is legal at
    the moment it runs — the same sequence is replayed by the child, by
    the shadow engine, and (through the journal) by recovery.
    """
    rng = random.Random(seed)
    migrated = set()
    plan = []
    for __ in range(steps):
        choices = ["update"]
        if len(migrated) < len(PAGES):
            choices += ["migrate", "migrate"]
        if migrated:
            choices.append("revoke")
        kind = rng.choice(choices)
        if kind == "migrate":
            name = rng.choice(sorted(set(PAGES) - migrated))
            migrated.add(name)
        elif kind == "revoke":
            name = rng.choice(sorted(migrated))
            migrated.discard(name)
        else:
            name = rng.choice(PAGES + ["/index.html"])
        plan.append([kind, name])
    return plan


def apply_step(engine, step, now):
    kind, name = step
    engine._clock = now
    if kind == "migrate":
        engine.policy.force_migrate(name, COOP, now=now)
    elif kind == "revoke":
        engine.policy.revoke(name)
    else:
        engine.update_document(name, engine.store.get(name) + b"<!--u-->")


def durable_state(engine):
    """The replay-comparable state (timestamps excluded).  The engine's
    own location is normalized to ``@home`` so states from engines on
    different ports (the shadow vs the real subprocess) compare."""
    home = str(engine.location)

    def loc(value):
        return "@home" if str(value) == home else str(value)

    migrations = {record.name: loc(record.location)
                  for record in engine.graph.migrated_documents()}
    documents = {record.name: [loc(record.location), record.version]
                 for record in engine.graph.documents()}
    return {"migrations": migrations, "documents": documents}


def shadow_states(plan, acked):
    """Expected state after the acked prefix, and after one more step
    (the possibly-landed in-flight mutation)."""
    states = []
    for steps in (acked, min(acked + 1, len(plan))):
        engine = DCWSEngine(Location("127.0.0.1", 1), ServerConfig(),
                            MemoryStore(SITE),
                            entry_points=["/index.html"], peers=[COOP])
        engine.initialize(0.0)
        for index, step in enumerate(plan[:steps]):
            apply_step(engine, step, float(index + 1))
        states.append(durable_state(engine))
    return states


CHILD_SCRIPT = """\
import json, sys, time

from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.server.engine import DCWSEngine
from repro.server.filestore import DiskStore
from repro.server.fsck import check_engine
from repro.server.threaded import ThreadedDCWSServer

mode, root, snapshot, journal, port = sys.argv[1:6]
plan = json.load(open(sys.argv[6])) if len(sys.argv) > 6 else []
coop = Location("coop", 9999)
config = ServerConfig(stats_interval=60.0, pinger_interval=60.0,
                      validation_interval=60.0, wal_fsync="always")
engine = DCWSEngine(Location("127.0.0.1", int(port)), config,
                    DiskStore(root), entry_points=["/index.html"],
                    peers=[coop])
server = ThreadedDCWSServer(engine, tick_period=0.05,
                            snapshot_path=snapshot, journal_path=journal)
server.start()

if mode == "dump":
    home = str(engine.location)
    loc = lambda value: "@home" if str(value) == home else str(value)
    with server._lock:
        migrations = {r.name: loc(r.location)
                      for r in engine.graph.migrated_documents()}
        documents = {r.name: [loc(r.location), r.version]
                     for r in engine.graph.documents()}
        state = {"migrations": migrations, "documents": documents,
                 "violations": check_engine(engine),
                 "recovery": engine.recovery.as_dict()}
    print(json.dumps(state), flush=True)
    server.stop()
    sys.exit(0)

print("READY", flush=True)
acked = 0
for step in plan:
    line = sys.stdin.readline().strip()
    while line == "CKPT":
        with server._lock:
            server._checkpoint_state(time.monotonic())
        print("CKPTOK", flush=True)
        line = sys.stdin.readline().strip()
    if line != "GO":
        break
    now = time.monotonic()
    with server._lock:
        engine._clock = now
        kind, name = step
        if kind == "migrate":
            engine.policy.force_migrate(name, coop, now=now)
        elif kind == "revoke":
            engine.policy.revoke(name)
        else:
            engine.update_document(name,
                                   engine.store.get(name) + b"<!--u-->")
    acked += 1
    print("ACK %d" % acked, flush=True)
while True:
    time.sleep(1.0)
"""


def spawn(tmp_path, mode, root, snapshot, journal, port, plan_file=None):
    script = tmp_path / "child.py"
    if not script.exists():
        script.write_text(CHILD_SCRIPT)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    argv = [sys.executable, str(script), mode, root, snapshot, journal,
            str(port)]
    if plan_file is not None:
        argv.append(plan_file)
    return subprocess.Popen(argv, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)


def dump_recovered(tmp_path, root, snapshot, journal, port):
    proc = spawn(tmp_path, "dump", root, snapshot, journal, port)
    try:
        line = proc.stdout.readline()
        assert line.strip(), f"dump produced no output (seed={SEED})"
        state = json.loads(line)
        proc.wait(timeout=30)
        return state
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def assert_prefix_consistent(recovered, plan, acked):
    assert recovered["violations"] == [], \
        f"fsck failed after recovery (seed={SEED}): " \
        f"{recovered['violations']}"
    expected = shadow_states(plan, acked)
    got = {"migrations": recovered["migrations"],
           "documents": recovered["documents"]}
    assert got in expected, (
        f"recovered state is not the acked prefix (acked={acked}, "
        f"seed={SEED})\n got      {got}\n expected {expected[0]}\n"
        f" or       {expected[1]}")


class TestSigkillRecovery:
    def test_kill_at_seeded_offsets_recovers_acked_prefix(self, tmp_path):
        plan = make_plan(SEED)
        rng = random.Random(SEED + 1)
        kill_points = sorted(rng.sample(range(2, len(plan) - 1), 3))
        for run, kill_after in enumerate(kill_points):
            workdir = tmp_path / f"run{run}"
            workdir.mkdir()
            root = str(workdir / "docs")
            store = DiskStore(root)
            for name, data in SITE.items():
                store.put(name, data)
            snapshot = str(workdir / "home.snapshot")
            journal = str(workdir / "home.wal")
            plan_file = workdir / "plan.json"
            plan_file.write_text(json.dumps(plan))
            port = free_port()
            proc = spawn(tmp_path, "run", root, snapshot, journal,
                         port, str(plan_file))
            try:
                assert proc.stdout.readline().strip() == "READY"
                for step in range(kill_after):
                    proc.stdin.write("GO\n")
                    proc.stdin.flush()
                    ack = proc.stdout.readline().strip()
                    assert ack == f"ACK {step + 1}", \
                        f"{ack!r} (seed={SEED})"
                # Release one more step and kill mid-flight: it may or
                # may not have reached the journal — both are legal.
                proc.stdin.write("GO\n")
                proc.stdin.flush()
                os.kill(proc.pid, signal.SIGKILL)
                proc.wait(timeout=10)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)
            recovered = dump_recovered(tmp_path, root, snapshot, journal,
                                       port)
            assert_prefix_consistent(recovered, plan, kill_after)
            assert recovered["recovery"]["records_replayed"] >= 1

    def test_kill_after_checkpoint_replays_only_the_tail(self, tmp_path):
        """A snapshot mid-plan must not change the recovered state —
        recovery = snapshot + tail, not snapshot alone."""
        plan = make_plan(SEED + 7)
        kill_after = len(plan) - 2
        root = str(tmp_path / "docs")
        store = DiskStore(root)
        for name, data in SITE.items():
            store.put(name, data)
        snapshot = str(tmp_path / "home.snapshot")
        journal = str(tmp_path / "home.wal")
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(plan))
        port = free_port()
        proc = spawn(tmp_path, "run", root, snapshot, journal, port,
                     str(plan_file))
        try:
            assert proc.stdout.readline().strip() == "READY"
            for step in range(kill_after):
                if step == kill_after // 2:
                    # Mid-plan checkpoint: the periodic thread is not
                    # due for one, so force it the way stop() would.
                    proc.stdin.write("CKPT\n")
                    proc.stdin.flush()
                    assert proc.stdout.readline().strip() == "CKPTOK"
                proc.stdin.write("GO\n")
                proc.stdin.flush()
                assert proc.stdout.readline().startswith("ACK")
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        assert os.path.exists(snapshot)
        recovered = dump_recovered(tmp_path, root, snapshot, journal, port)
        assert recovered["recovery"]["snapshot_loaded"], f"seed={SEED}"
        assert_prefix_consistent(recovered, plan, kill_after)


class TestJournalFaultInjection:
    """Torn/short writes and write errors on the journal file itself."""

    def server_with_faults(self, tmp_path, rules):
        root = str(tmp_path / "docs")
        store = DiskStore(root)
        for name, data in SITE.items():
            store.put(name, data)
        journal_path = str(tmp_path / "home.wal")
        plan = FaultPlan(
            [FaultRule(kind=rule_kind, name=os.path.abspath(journal_path),
                       **kwargs) for rule_kind, kwargs in rules],
            seed=SEED)
        config = ServerConfig(stats_interval=60.0, pinger_interval=60.0,
                              validation_interval=60.0, wal_fsync="always")
        engine = DCWSEngine(Location("127.0.0.1", free_port()), config,
                            store, entry_points=["/index.html"],
                            peers=[COOP])
        server = ThreadedDCWSServer(
            engine, tick_period=10.0,
            snapshot_path=str(tmp_path / "home.snapshot"),
            journal_path=journal_path, faults=plan)
        server.start()
        return server, journal_path

    def crash(self, server):
        """Die without the clean-stop checkpoint: threads stop, listener
        closes, but no snapshot is written and the journal file is left
        exactly as the last append (or torn append) left it."""
        server._stop.set()
        if server._listener is not None:
            server._listener.close()
        for thread in server._threads:
            thread.join(timeout=5.0)
        server.pool.close()
        server._listener = None

    def run_until_fault(self, server, plan_steps):
        applied = 0
        for index, step in enumerate(plan_steps):
            try:
                with server._lock:
                    apply_step(server.engine, step, float(index + 1))
                applied += 1
            except InjectedDiskError:
                break
        return applied

    def test_torn_journal_write_recovers_acked_prefix(self, tmp_path):
        plan = make_plan(SEED + 3)
        server, journal_path = self.server_with_faults(
            tmp_path, [("torn_write", {"skip_first": 5,
                                       "max_injections": 1})])
        acked = self.run_until_fault(server, plan)
        assert acked < len(plan), "torn write was never injected"
        self.crash(server)
        fresh = DCWSEngine(server.engine.location, ServerConfig(),
                           DiskStore(str(tmp_path / "docs")),
                           entry_points=["/index.html"], peers=[COOP])
        from repro.server.persistence import recover
        stats = recover(fresh, str(tmp_path / "home.snapshot"),
                        journal_path, now=100.0)
        assert stats.torn_tail_truncated, f"seed={SEED}"
        assert check_engine(fresh) == []
        expected = shadow_states(plan, acked)
        assert durable_state(fresh) in expected

    def test_journal_write_error_aborts_mutation_cleanly(self, tmp_path):
        plan = make_plan(SEED + 4)
        server, journal_path = self.server_with_faults(
            tmp_path, [("disk_write_error", {"skip_first": 4,
                                             "max_injections": 1})])
        failed_at = None
        applied = 0
        for index, step in enumerate(plan):
            try:
                with server._lock:
                    apply_step(server.engine, step, float(index + 1))
                applied += 1
            except InjectedDiskError:
                failed_at = index
                break
        assert failed_at is not None, "write error was never injected"
        # The failed mutation was not acknowledged.  Updates journal
        # before touching state (clean abort); migration decisions apply
        # first and journal after, so the live engine holds either the
        # applied prefix or one extra, half-durable step.
        assert durable_state(server.engine) in shadow_states(plan, applied)
        self.crash(server)
        fresh = DCWSEngine(server.engine.location, ServerConfig(),
                           DiskStore(str(tmp_path / "docs")),
                           entry_points=["/index.html"], peers=[COOP])
        from repro.server.persistence import recover
        stats = recover(fresh, str(tmp_path / "home.snapshot"),
                        journal_path, now=100.0)
        # Recovery replays exactly the acknowledged prefix: the failed
        # record never reached the journal.
        assert stats.records_replayed >= applied
        assert check_engine(fresh) == []
        assert durable_state(fresh) == shadow_states(plan, applied)[0]
