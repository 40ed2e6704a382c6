#!/usr/bin/env python3
"""One line per change in ``benchmarks/history.jsonl``: what the paired
benchmark runs said.

    python3 benchmarks/e2e/run.py --seed 11 > parent-11.txt   # in each tree
    python3 benchmarks/history.py --label "PR 20: ..." \\
        --parent parent-11.txt parent-12.txt ... \\
        --change change-11.txt change-12.txt ...

Reads saved standard outputs of ``benchmarks/e2e/run.py`` — the parent
commit's and the change's, paired by position — and appends one JSON
object: the label, both commits, the ``env`` line's fields, and per
workload and end-to-end metric (``BENCHMARK.json`` names them and says
which direction is better) both medians, the parent's quartile spread as
a share of its median, how many pairs there were and how many the change
won (ties count for neither side); beside them the operations attempted
and failed on each side and each side's median ``client.speed``, so a
run on a disturbed box can be told from a slow program.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HISTORY = os.path.join(HERE, "history.jsonl")
sys.path.insert(0, os.path.join(HERE, "e2e"))

from agree import spread  # noqa: E402  (quartile distance / median)
ENV_FIELD = re.compile(r"(\w+)=(\[[^\]]*\]|\S+)")


def parse_run(text: str) -> Dict[str, dict]:
    """One ``run.py`` output, by workload: its ``env`` fields, every
    metric it printed, and the attempted/failed of its summary line."""
    workloads: Dict[str, dict] = {}
    env: Dict[str, str] = {}
    current: Optional[dict] = None
    for line in text.splitlines():
        if line.startswith("env "):
            env = dict(ENV_FIELD.findall(line))
            current = None
        elif line.startswith("{"):
            if current is not None:
                verdict = json.loads(line)
                current["attempted"] = verdict["attempted"]
                current["failed"] = verdict["failed"]
        else:
            parts = line.split()
            if len(parts) != 4:
                continue
            try:
                value = float(parts[2])
            except ValueError:
                continue
            if current is None or current["name"] != parts[0]:
                current = workloads[parts[0]] = {
                    "name": parts[0], "env": env, "metrics": {},
                    "attempted": 0, "failed": 0}
            current["metrics"][parts[1]] = value
    return workloads


def compare(parent: List[Dict[str, dict]], change: List[Dict[str, dict]],
            end_to_end: List[dict]) -> Dict[str, dict]:
    """Per workload present in every run of both sides."""
    names = [name for name in parent[0]
             if all(name in run for run in parent + change)]
    report = {}
    for name in names:
        sides = {"parent": [run[name] for run in parent],
                 "change": [run[name] for run in change]}
        entry = {
            "attempted": {side: sum(run["attempted"] for run in runs)
                          for side, runs in sides.items()},
            "failed": {side: sum(run["failed"] for run in runs)
                       for side, runs in sides.items()},
            "speed": {side: statistics.median(
                run["metrics"].get("client.speed", 1.0) for run in runs)
                for side, runs in sides.items()},
            "metrics": {},
        }
        for metric in end_to_end:
            before = [run["metrics"][metric["name"]]
                      for run in sides["parent"]]
            after = [run["metrics"][metric["name"]]
                     for run in sides["change"]]
            higher = metric["better"] == "higher"
            entry["metrics"][metric["name"]] = {
                "unit": metric["unit"],
                "parent": statistics.median(before),
                "change": statistics.median(after),
                "parent_spread": round(spread(before), 4)
                if len(before) > 1 else 0.0,
                "pairs": min(len(before), len(after)),
                "won": sum(1 for old, new in zip(before, after)
                           if (new > old if higher else new < old)),
            }
        report[name] = entry
    return report


def shas(runs: List[Dict[str, dict]]) -> str:
    found = sorted({workload["env"].get("git", "none")
                    for run in runs for workload in run.values()})
    return ",".join(found)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", nargs="+", required=True, metavar="FILE")
    parser.add_argument("--change", nargs="+", required=True, metavar="FILE")
    parser.add_argument("--history", default=HISTORY)
    args = parser.parse_args(argv)
    if len(args.parent) != len(args.change):
        parser.error("runs are paired by position: as many --parent files "
                     "as --change files")

    def load(names: List[str]) -> List[Dict[str, dict]]:
        runs = []
        for name in names:
            with open(name) as handle:
                runs.append(parse_run(handle.read()))
        return runs

    parent, change = load(args.parent), load(args.change)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        end_to_end = json.load(handle)["end_to_end"]
    env = dict(next(iter(change[0].values()))["env"])
    for per_run in ("git", "seed"):
        env.pop(per_run, None)
    record = {"label": args.label, "parent": shas(parent),
              "change": shas(change), "env": env,
              "workloads": compare(parent, change, end_to_end)}
    with open(args.history, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    for name, entry in record["workloads"].items():
        for metric, row in entry["metrics"].items():
            base = row["parent"] or 1.0
            print(f"{name:13s} {metric:20s} {row['parent']:12.4f} -> "
                  f"{row['change']:12.4f} {row['unit']:5s} "
                  f"{(row['change'] - row['parent']) / base:+7.1%}  spread "
                  f"{row['parent_spread']:6.1%}  won {row['won']}/"
                  f"{row['pairs']}")
        print(f"{name:13s} failed {entry['failed']['parent']} of "
              f"{entry['attempted']['parent']} (parent), "
              f"{entry['failed']['change']} of "
              f"{entry['attempted']['change']} (change); speed "
              f"{entry['speed']['parent']:.2f} / "
              f"{entry['speed']['change']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
