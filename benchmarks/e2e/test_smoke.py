"""Smoke test of the benchmark itself (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Every workload starts, serves, verifies and shuts its servers down; the
metric names it prints are exactly those of BENCHMARK.json; spans add
up; a failed run leaves no server process behind.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def quick(workload, trace):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--quick", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout.splitlines()


def server_processes(marker):
    """Command lines of live processes that mention *marker*."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as cmdline:
                text = cmdline.read().decode("latin-1")
        except OSError:
            continue
        if marker in text:
            found.append(text)
    return found


def test_spec_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert "setup_s" in [m["name"] for m in SPEC["end_to_end"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    lines = quick(workload, trace=0)
    assert lines[0].startswith("env ") and "pinned=" in lines[0]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not server_processes(os.path.join(HERE, "child.py"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_spans(workload):
    lines = quick(workload, trace=1)
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["server.aio.transport_us"] >= 0
    assert values["server.threaded.transport_us"] >= 0
    assert values["client.failed"] == 0
    with open(os.path.join(HERE, "out", f"trace-{workload}.jsonl")) as trace:
        spans = [json.loads(line) for line in trace]
    requests = [s for s in spans if s["name"] == "request"]
    assert requests
    for parent in requests:
        children = [s for s in spans if s["parent"] == parent["span"]]
        assert {c["name"] for c in children} == {
            "http.wire.parse", "server.engine.serve",
            "http.messages.serialize_head"}
        covered = sum(c["end"] - c["start"] for c in children)
        duration = parent["end"] - parent["start"]
        assert parent["self"] >= 0
        assert abs(covered + parent["self"] - duration) < 1e-9
        assert all(c["request"] == parent["request"] for c in children)


def test_failed_run_leaves_no_server():
    """An episode that fails after its servers are up still stops them."""
    out = os.path.join(HERE, "out", f"smoke-{os.getpid()}")
    spec = {"workload": "cached_get", "seed": 1, "out": out, "trace": False,
            "setup_only": False, "windows": 1, "window_s": 0.2,
            "warmup_s": 0.2, "cycles": 1, "limit_ms": 1.0,
            "client_ref_us": 0.0}       # divides by zero after the run
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "episode.py"), json.dumps(spec)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONHASHSEED="0"))
    assert done.returncode != 0
    assert "ZeroDivisionError" in done.stderr
    assert not server_processes(out)
    assert os.listdir(out) == []    # its data went with it
    os.rmdir(out)
