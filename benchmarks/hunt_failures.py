#!/usr/bin/env python3
"""Hunt failed operations: the benchmark's episodes, with every failure
written down.

    python3 benchmarks/hunt_failures.py [--workload W] [--runs N] [--seed S]
                                        [--seconds S] [--quick] [--disturb]

``benchmarks/e2e/run.py`` counts an operation as failed and keeps
nothing about it.  This file runs the same episodes — the same plan, the
same server processes, the same generator — on the tree it sits in,
importing ``benchmarks/e2e`` unmodified and wrapping four of its names
from the outside (``loadgen.Wires.exchange``, ``loadgen.verify``,
``loadgen.Walker.fetch``, ``episode.update_cycles``).  For every
operation the harness counts as failed it appends one JSON line to
``benchmarks/out-hunt/failures.jsonl``:

- ``workload``, ``run``, ``seed``, ``episode``, ``copy``, ``phase``
  (crawl, warmup, timed, update_cycles — only the last two reach
  ``run.py``'s ``failed``) and ``t``, seconds since the episode began;
- ``kind``: ``exception`` (the exchange raised), ``verify`` (a scripted
  reply failed ``loadgen.verify``; ``index`` is the script index),
  ``walker`` (``Walker.fetch`` gave up; ``hop`` and the ``chain`` of
  hops it took) or ``update_cycle`` (the read after an author's update:
  expected and served version, marker and digest verdicts);
- ``server`` (address and role), ``request`` (the request line),
  ``reused``/``retried`` (was the connection a kept one, and did the
  generator already retry on a fresh one), and ``error`` or ``status`` +
  the full lower-cased ``head`` + the first 200 ``body`` bytes;
- ``servers``: per server process, what moved since the last failure
  (or the launch): every ``engine.stats`` counter that changed — the
  ones named in ISSUE 20 always — plus breaker trips, suspicions and
  declared deaths read off ``/~dcws/peers`` and ``/~dcws/membership``
  (those two reads are themselves two requests in the next delta).
  Front-end connection drops sit in no counter a child exposes; a
  ``_refuse`` is told by its body, ``server overloaded``.

One line per finished episode goes to ``episodes.jsonl`` beside it, and
the last line of standard output sums them: attempted, failed, logged.

``--disturb`` loads the pinned CPU the way a busy shared box does, for
the length of the run: a second copy of this program (its own servers,
its own walker; its failures are logged with ``"copy": 2``) and a child
that spins for 50 ms - 1.2 s every 0.3 - 1.5 s, niced up when the
kernel allows it.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
import urllib.request
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
E2E = os.path.join(HERE, "e2e")
OUT = os.path.join(HERE, "out-hunt")
FAILURES = os.path.join(OUT, "failures.jsonl")
EPISODES = os.path.join(OUT, "episodes.jsonl")
sys.path.insert(0, E2E)

ALWAYS = ("responses_503", "responses_404", "pulls_degraded", "pulls_shed",
          "regenerations_shed", "breaker_trips", "deaths")
ADMIN_NUMBERS = (
    ("peers", "breaker_trips", rb"breaker trips \(lifetime\)\s+(\d+)"),
    ("membership", "suspicions", rb"suspicions\s+(\d+)"),
    ("membership", "deaths", rb"deaths declared\s+(\d+)"),
    ("membership", "rediscoveries", rb"rediscoveries\s+(\d+)"),
)


def append(path: str, record: dict) -> None:
    """One JSON line, in one write: copies append to the same files."""
    line = (json.dumps(record, sort_keys=True) + "\n").encode()
    descriptor = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(descriptor, line)
    finally:
        os.close(descriptor)


# ----------------------------------------------------------------------
# Episode mode: one traced episode in this process
# ----------------------------------------------------------------------

class Trace:
    """What the wrappers share: where the episode is, what the last
    exchange was, and the servers' counters at the last failure."""

    def __init__(self, tag: dict) -> None:
        self.tag = tag
        self.began = time.perf_counter()
        self.phase = "launch"
        self.cluster = None
        self.baseline: List[Dict[str, int]] = []
        self.last: Optional[dict] = None     # the latest exchange
        self.hops: Optional[List[dict]] = None   # inside Walker.fetch
        self.expect: Optional[dict] = None   # the read after an update
        self.cycle_failures = 0
        self.logged = 0

    def role(self, address) -> str:
        addresses = self.cluster.addresses if self.cluster else []
        if address not in addresses:
            return "unknown"
        index = addresses.index(address)
        return "home" if index == 0 else f"coop{index}"

    def counters(self) -> List[Dict[str, int]]:
        """Every server's counters now: the child's ``stats`` reply plus
        the numbers only the admin pages carry."""
        snapshot = []
        for index, address in enumerate(self.cluster.addresses):
            numbers = admin_numbers(address)
            try:
                stats = self.cluster.ask(index, op="stats")["stats"]
            except (OSError, RuntimeError, ValueError):
                stats = {}
            numbers.update({key: value for key, value in stats.items()
                            if isinstance(value, int)})
            snapshot.append(numbers)
        return snapshot

    def moved(self) -> Dict[str, Dict[str, int]]:
        """Per server, what changed since the last call."""
        now = self.counters()
        deltas = {}
        for index, (after, before) in enumerate(zip(now, self.baseline)):
            delta = {key: after[key] - before.get(key, 0) for key in after
                     if after[key] != before.get(key, 0) or key in ALWAYS}
            deltas[self.role(self.cluster.addresses[index])] = delta
        self.baseline = now
        return deltas

    def fail(self, kind: str, exchange: Optional[dict], **extra) -> None:
        record = dict(self.tag, kind=kind, phase=self.phase,
                      t=round(time.perf_counter() - self.began, 3))
        record.update(exchange or {})
        record.update(extra)
        if self.cluster is not None and self.cluster.children:
            record["servers"] = self.moved()
        append(FAILURES, record)
        self.logged += 1


def admin_numbers(address) -> Dict[str, int]:
    numbers: Dict[str, int] = {}
    pages: Dict[str, bytes] = {}
    for page, name, pattern in ADMIN_NUMBERS:
        if page not in pages:
            pages[page] = http_get(address, "/~dcws/" + page)
        match = re.search(pattern, pages[page])
        if match:
            numbers[name] = int(match.group(1))
    return numbers


def http_get(address, path: str) -> bytes:
    """One GET on its own connection; b"" when it fails."""
    try:
        with urllib.request.urlopen(
                f"http://{address[0]}:{address[1]}{path}", timeout=2.0) as page:
            return page.read()
    except OSError:
        return b""


def describe(trace: Trace, address, raw: bytes, reused: bool, retried: bool,
             reply=None, error: str = "") -> dict:
    exchange = {
        "server": f"{address[0]}:{address[1]} {trace.role(address)}",
        "request": raw.split(b"\r\n", 1)[0].decode("latin-1"),
        "reused": reused, "retried": retried,
    }
    if reply is None:
        exchange["error"] = error
    else:
        exchange.update(status=reply.status,
                        head=reply.head.decode("latin-1"),
                        body=reply.body[:200].decode("latin-1"))
    return exchange


def install(trace: Trace) -> None:
    """Wrap the harness from the outside."""
    import episode
    import launcher
    import loadgen

    plain_exchange = loadgen.Wires.exchange
    plain_verify = loadgen.verify
    plain_fetch = loadgen.Walker.fetch
    plain_cycles = episode.update_cycles
    plain_crawl = episode.crawl

    class Cluster(launcher.Cluster):
        def start(self) -> None:
            super().start()
            trace.cluster = self
            trace.baseline = trace.counters()

    class Recorder(loadgen.Recorder):
        """The episode opens two: the warm-up's, then the timed one."""

        def __init__(self, *args, **kwargs) -> None:
            trace.phase = "timed" if trace.phase == "warmup" else "warmup"
            super().__init__(*args, **kwargs)

    def exchange(wires, address, raw):
        reused = address in wires.socks
        reconnects = wires.reconnects
        try:
            reply = plain_exchange(wires, address, raw)
        except OSError as exc:
            trace.last = describe(trace, address, raw, reused,
                                  wires.reconnects > reconnects,
                                  error=repr(exc))
            trace.expect = None
            trace.fail("exception", trace.last,
                       hop=len(trace.hops) + 1 if trace.hops is not None
                       else None)
            raise
        closing = b"\r\nconnection: close" in reply.head
        trace.last = describe(trace, address, raw, reused,
                              wires.reconnects - reconnects > closing, reply)
        if trace.hops is not None:
            trace.hops.append(trace.last)
        expect, trace.expect = trace.expect, None
        if expect is not None and reply.status != 301:
            version = reply.header(loadgen.VERSION)
            verdict = {
                "expected_version": expect["version"],
                "served_version": version.decode() if version else None,
                "marker": b"<!-- rev %d -->" % expect["rev"] in reply.body,
                "digest": loadgen.digest_ok(
                    reply.body, reply.header(loadgen.DIGEST), None),
            }
            if not (reply.status == 200 and verdict["marker"]
                    and verdict["digest"] and verdict["served_version"]
                    == str(verdict["expected_version"])):
                trace.cycle_failures += 1
                trace.fail("update_cycle", trace.last, **verdict)
        return reply

    def verify(item, reply, index):
        good = plain_verify(item, reply, index)
        if not good:
            trace.fail("verify", trace.last, index=index,
                       item=f"{item.kind} {item.name}")
        return good

    def fetch(walker, address, path, window):
        trace.hops = []
        failed, logged = window.failed, trace.logged
        try:
            result = plain_fetch(walker, address, path, window)
            if window.failed > failed and trace.logged == logged:
                trace.fail("walker", trace.last, hop=len(trace.hops),
                           chain=[f"{hop['server']} {hop['request']} -> "
                                  f"{hop['status']}" for hop in trace.hops])
            return result
        finally:
            trace.hops = None

    class Asking:
        """The cluster as ``update_cycles`` uses it, remembering what
        each author's update returned for the read that follows."""

        def __init__(self, cluster) -> None:
            self.cluster = cluster
            self.home = cluster.home

        def ask(self, index, **command):
            answer = self.cluster.ask(index, **command)
            if command.get("op") == "update":
                trace.expect = {"rev": command["rev"],
                                "version": answer["version"]}
            return answer

    def update_cycles(cluster, targets, cycles):
        trace.phase = "update_cycles"
        times, attempted, failed = plain_cycles(Asking(cluster), targets,
                                                cycles)
        if failed != trace.cycle_failures:
            trace.fail("update_cycle_unexplained", None, counted=failed,
                       explained=trace.cycle_failures)
        return times, attempted, failed

    def crawl(cluster, names):
        trace.phase = "crawl"
        return plain_crawl(cluster, names)

    loadgen.Wires.exchange = exchange
    loadgen.verify = verify
    loadgen.Walker.fetch = fetch
    episode.update_cycles = update_cycles
    episode.crawl = crawl
    episode.Cluster = Cluster
    episode.Recorder = Recorder


def episode_main(spec: dict) -> int:
    trace = Trace(spec.pop("hunt"))
    install(trace)
    import episode

    print(json.dumps(episode.episode(spec)))
    return 0


# ----------------------------------------------------------------------
# Disturbance
# ----------------------------------------------------------------------

def burn() -> int:
    """Spin in bursts on the CPU this process was pinned to."""
    try:
        os.nice(-5)
    except OSError:
        pass
    rng = random.Random(os.getpid())
    while True:
        time.sleep(rng.uniform(0.3, 1.5))
        until = time.perf_counter() + rng.uniform(0.05, 1.2)
        while time.perf_counter() < until:
            pass


def start_disturbance(argv: List[str], hunt_id: str) -> List[subprocess.Popen]:
    """The second copy and the burner, each in a process group of its
    own so that stopping them stops their servers too."""
    copy = [sys.executable, os.path.abspath(__file__), *argv,
            "--copy", "2", "--hunt-id", hunt_id, "--runs", "1000000"]
    return [subprocess.Popen(command, stdout=subprocess.DEVNULL,
                             start_new_session=True)
            for command in (copy, [sys.executable, os.path.abspath(__file__),
                                   "--burn"])]


def stop_disturbance(children: List[subprocess.Popen]) -> None:
    for child in children:
        try:
            os.killpg(child.pid, signal.SIGTERM)
        except OSError:
            pass
    deadline = time.monotonic() + 10.0
    for child in children:
        try:
            child.wait(timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except OSError:
            pass
        child.wait()


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def run_episode(spec: dict, timeout: float) -> Optional[dict]:
    """One traced episode in a fresh process; ``None`` when it died."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--episode",
         json.dumps(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=timeout, env=dict(os.environ, PYTHONHASHSEED="0"))
    if done.returncode != 0:
        append(FAILURES, dict(spec["hunt"], kind="episode_died",
                              code=done.returncode,
                              stderr=done.stderr[-2000:]))
        return None
    return json.loads(done.stdout.splitlines()[-1])


def summary(hunt_id: str) -> dict:
    """Attempted and failed per copy and workload, from episodes.jsonl."""
    totals: Dict[str, Dict[str, Dict[str, int]]] = {}
    with open(EPISODES) as handle:
        for line in handle:
            record = json.loads(line)
            if record["hunt"] != hunt_id:
                continue
            slot = totals.setdefault(f"copy{record['copy']}", {}).setdefault(
                record["workload"], {"episodes": 0, "attempted": 0,
                                     "failed": 0, "died": 0})
            slot["episodes"] += 1
            for key in ("attempted", "failed", "died"):
                slot[key] += record[key]
    return totals


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--disturb", action="store_true")
    parser.add_argument("--copy", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--hunt-id", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--episode", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--burn", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.burn:
        return burn()
    if args.episode is not None:
        return episode_main(json.loads(args.episode))

    import run as bench

    spec = bench.load_json(os.path.join(ROOT, "BENCHMARK.json"))
    constants = bench.load_json(os.path.join(E2E, "constants.json"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; one of {names}")
        names = [args.workload]
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    args.trace = 0
    os.makedirs(OUT, exist_ok=True)
    bench.pin_to_last_cpu()
    bench.fix_address_space()
    hunt_id = args.hunt_id or f"{os.getpid()}-{int(time.time())}"
    sha = bench.git_sha()
    disturbance: List[subprocess.Popen] = []
    if args.disturb:
        passed = ["--quick"] if args.quick else []
        if args.workload is not None:
            passed += ["--workload", args.workload]
        passed += ["--seed", str(args.seed + 500_000),
                   "--seconds", str(args.seconds)]
        disturbance = start_disturbance(passed, hunt_id)
    try:
        for run in range(args.runs):
            for name in names:
                steps = bench.plan(name, argparse.Namespace(
                    seed=args.seed + run, quick=args.quick,
                    seconds=args.seconds, trace=0))
                for index, step in enumerate(steps):
                    tag = {"hunt": hunt_id, "git": sha, "copy": args.copy,
                           "workload": name, "run": run,
                           "seed": args.seed + run, "episode": index,
                           "disturbed": bool(args.disturb or args.copy > 1)}
                    result = run_episode(
                        dict(step, **constants[name], out=OUT, hunt=tag),
                        timeout=600.0)
                    timed = result is not None and "windows" in result
                    attempted = failed = 0
                    if timed:
                        attempted = result["update_attempted"] + sum(
                            w["attempted"] for w in result["windows"])
                        failed = result["update_failed"] + sum(
                            w["failed"] for w in result["windows"])
                    append(EPISODES, dict(tag, attempted=attempted,
                                          failed=failed,
                                          died=int(result is None)))
                    if args.copy == 1:
                        print(f"run {run} seed {args.seed + run} {name:13s} "
                              f"episode {index} attempted {attempted} "
                              f"failed {failed}"
                              f"{' DIED' if result is None else ''}",
                              flush=True)
    finally:
        stop_disturbance(disturbance)
        # What a stopped copy's episodes left of their sites.
        for entry in os.listdir(OUT) if args.copy == 1 else ():
            if entry.startswith("run-"):
                shutil.rmtree(os.path.join(OUT, entry), ignore_errors=True)
    totals = summary(hunt_id)
    print(json.dumps({
        "git": sha, "hunt": hunt_id, "runs": args.runs, "seed": args.seed,
        "disturb": args.disturb, "totals": totals,
        "failures_file": os.path.relpath(FAILURES, ROOT)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
