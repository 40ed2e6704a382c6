#!/usr/bin/env python3
"""The repo benchmark: real server processes, one closed-loop client.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--quick] [--agree N]

Launches real DCWS server processes through the public API, drives them
over loopback from a separate single-threaded generator process, verifies
every response and prints every metric by name with its unit; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  README.md beside this file
defines the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from measure import Metric, aggregate, median  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT = os.path.join(HERE, "out")
WINDOW_S = 1.0
MAX_FAILED_SHARE = 0.001
ADDR_NO_RANDOMIZE = 0x0040000
UPDATE_CYCLES = 120


def load_json(name: str) -> dict:
    with open(name) as handle:
        return json.load(handle)


def pin_to_last_cpu() -> Tuple[Optional[int], List[int]]:
    """Pin this process — and so every process it starts — to the last
    CPU it may use.

    Generator and servers share one CPU on purpose: left to the
    scheduler they are sometimes stacked and sometimes split, which is a
    bimodal median; pinned apart, throughput halves and windows vary by
    a third."""
    if not hasattr(os, "sched_getaffinity"):
        return None, []
    allowed = sorted(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {allowed[-1]})
    except OSError:
        return None, allowed
    return allowed[-1], allowed


def fix_address_space() -> bool:
    """Turn address-space randomisation off for every process started
    from here on (the flag is inherited).  A random layout moved server
    CPU per request by up to 17% from one launch to the next."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current < 0:
            return False
        return libc.personality(current | ADDR_NO_RANDOMIZE) >= 0
    except (OSError, AttributeError):
        return False


def file_system(path: str) -> str:
    """Type of the file system holding *path* (from /proc/mounts)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                __, mount, fstype = line.split()[:3]
                if path.startswith(mount) and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def run_episode(spec: dict) -> dict:
    """One fresh generator process with its own fresh servers."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "episode.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, text=True, timeout=170,
        env=dict(os.environ, PYTHONHASHSEED="0"))
    if done.returncode != 0:
        raise RuntimeError(f"episode exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def plan(name: str, args) -> List[dict]:
    """The episodes of one run, in order.

    Every episode is fresh server processes and a fresh generator
    process.  The first one's set-up warms bytecode and page cache and
    is not counted in ``setup_s``."""
    workload = WORKLOADS[name]
    timed = workload.episodes
    base = {"workload": name, "seed": args.seed, "out": OUT,
            "trace": bool(args.trace), "setup_only": False,
            "window_s": WINDOW_S, "warmup_s": workload.warmup_s}
    if args.quick:
        return [dict(base, windows=2, window_s=0.5, warmup_s=0.5, cycles=10)]
    total = max(2, int(args.seconds / WINDOW_S))
    if args.trace:
        # Counters and the request trail must come from one set of
        # processes, so the traced run is a single episode.
        return [dict(base, windows=total, cycles=UPDATE_CYCLES)]
    share = max(1, total // timed)
    full = dict(base, windows=share, cycles=UPDATE_CYCLES // timed)
    only = dict(base, setup_only=True)
    return [full] + [only] * workload.setup_launches + [full] * (timed - 1)


def run_workload(name: str, args, spec: dict,
                 constants: dict) -> Tuple[str, bool]:
    episodes = [run_episode(dict(step, **constants[name]))
                for step in plan(name, args)]
    timed = [e for e in episodes if "windows" in e]
    windows = [w for e in timed for w in e["windows"]]
    with open(os.path.join(OUT, f"windows-{name}.json"), "w") as handle:
        json.dump(windows, handle, indent=1)    # for diagnosis
    metrics: Dict[str, Metric] = aggregate(windows)
    setups = [e["setup_s"] for e in episodes]
    cycles = [t for e in timed for t in e["update_ms"]]
    metrics["setup_s"] = (median(setups[1:] or setups), "s")
    metrics["rss_mb"] = (median([e["rss_mb"] for e in timed]), "MB")
    metrics["client.update_ms"] = (median(cycles), "ms")
    metrics["client.reconnects"] = (
        sum(e["reconnects"] for e in timed), "count")
    for key, (value, unit) in (timed[0].get("layers") or {}).items():
        metrics[key] = (value, unit)
    for key, (value, unit) in metrics.items():
        print(f"{name:13s} {key:38s} {value:16.6f} {unit}")
    wanted = [m["name"] for m in
              spec["per_layer" if args.trace else "end_to_end"]]
    missing = [key for key in wanted if key not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    attempted = int(metrics["client.attempted"][0]) \
        + sum(e["update_attempted"] for e in timed)
    failed = int(metrics["client.failed"][0]) \
        + sum(e["update_failed"] for e in timed)
    correct = attempted > 0 and failed / attempted <= MAX_FAILED_SHARE
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": metrics[key][0], "unit": metrics[key][1]}
                    for key in wanted},
    }), correct


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one episode of 2 windows x 0.5 s (smoke)")
    parser.add_argument("--agree", type=int, default=0, metavar="N",
                        help="two interleaved sets of N runs of this code")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    constants = load_json(os.path.join(HERE, "constants.json"))
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; one of {names}")
        names = [args.workload]
    if args.agree:
        from agree import agreement

        return agreement(names, args, spec)
    os.makedirs(OUT, exist_ok=True)
    cpu, allowed = pin_to_last_cpu()
    fixed = fix_address_space()
    all_correct = True
    for name in names:
        steps = plan(name, args)
        print(f"env nproc={os.cpu_count()} affinity={allowed} "
              f"pinned={'true' if cpu is not None else 'false'} cpu={cpu} "
              f"aslr={'off' if fixed else 'on'} "
              f"python={platform.python_version()} git={git_sha()} "
              f"seed={args.seed} data={os.path.relpath(OUT, ROOT)} "
              f"fs={file_system(OUT)} episodes={len(steps)} "
              f"windows={sum(s.get('windows', 0) for s in steps)}"
              f"x{steps[0]['window_s']:g}s")
        line, correct = run_workload(name, args, spec, constants)
        all_correct = all_correct and correct
        print(line)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
