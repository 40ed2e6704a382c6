"""``--agree N``: do two sets of runs of the same code agree?

Runs two interleaved sets (A B B A ...) of N full runs per workload,
every run a fresh ``run.py`` process with its own seed, and prints per
workload and end-to-end metric both medians, their relative difference,
each set's quartile spread, the bound, and PASS/FAIL.  The bounds and
the ``constants.json`` values are derived from its output (README.md).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))


def one_run(workload: str, seed: int, seconds: float) -> Dict[str, float]:
    """Every metric one untraced run printed, by name (plus its raw
    windows under ``"windows"``, for diagnosis)."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    values = {}
    for line in done.stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload:
            values[parts[1]] = float(parts[2])
    with open(os.path.join(HERE, "out", f"windows-{workload}.json")) as dump:
        values["windows"] = json.load(dump)
    return values


def spread(values: List[float]) -> float:
    """Distance between first and third quartile, as a share of the median."""
    low, __, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def agreement(names: List[str], args, spec: dict) -> int:
    runs = args.agree
    sets: Dict[str, Dict[str, List[Dict[str, float]]]] = {
        name: {"A": [], "B": []} for name in names}
    for index in range(runs):
        for side in ("AB" if index % 2 == 0 else "BA"):
            seed = args.seed + 2 * index + (side == "B")
            for name in names:
                sets[name][side].append(one_run(name, seed, args.seconds))
                print(f"# set {side} run {index + 1}/{runs} {name} "
                      f"seed {seed}", flush=True)
    failures = 0
    report = {"runs": runs, "seconds": args.seconds, "workloads": {}}
    print(f"{'workload':13s} {'metric':20s} {'median A':>12s} "
          f"{'median B':>12s} {'diff':>7s} {'iqr A':>7s} {'iqr B':>7s} "
          f"{'bound':>6s}")
    for name in names:
        table = report["workloads"][name] = {"metrics": {}}
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a = [run[key] for run in sets[name]["A"]]
            b = [run[key] for run in sets[name]["B"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            diff = abs(med_b - med_a) / med_a
            spreads = (spread(a), spread(b)) if runs >= 2 else (0.0, 0.0)
            # The driver exempts setup_s from the spread test only.
            steady = key == "setup_s" or max(spreads) <= bound
            passed = diff <= bound and steady
            failures += not passed
            print(f"{name:13s} {key:20s} {med_a:12.4f} {med_b:12.4f} "
                  f"{diff:7.4f} {spreads[0]:7.4f} {spreads[1]:7.4f} "
                  f"{bound:6.2f} {'PASS' if passed else 'FAIL'}")
            table["metrics"][key] = {
                "A": a, "B": b, "median_A": med_a, "median_B": med_b,
                "difference": diff, "spread_A": spreads[0],
                "spread_B": spreads[1], "bound": bound, "pass": passed}
        every = sets[name]["A"] + sets[name]["B"]
        own_us = statistics.median(r["client.cpu_us_per_req"] for r in every)
        raw_p50 = statistics.median(
            r["client.p50_ms"] * r["client.speed"] for r in every)
        table["runs"] = sets[name]
        table["suggested_constants"] = {
            "client_ref_us": round(own_us, 2),
            "limit_ms": round(10 * raw_p50, 2)}
        print(f"# {name}: measured client_ref_us={own_us:.2f} "
              f"limit_ms={10 * raw_p50:.2f}")
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "agreement.json"), "w") as handle:
        json.dump(report, handle, indent=1)
    print(f"agreement: {'all PASS' if not failures else f'{failures} FAIL'}")
    return 1 if failures else 0
