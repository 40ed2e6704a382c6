"""``benchmarks/history.py`` turns saved ``run.py`` outputs into one
history line."""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_history():
    spec = importlib.util.spec_from_file_location(
        "benchmarks_history", os.path.join(ROOT, "benchmarks", "history.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned(sha, seed, rps, cpu, failed, speed=1.0):
    """What ``run.py --workload cached_get`` prints, cut to the lines
    that matter plus one that does not."""
    metrics = {"setup_s": (0.3, "s"), "rps": (rps, "1/s"),
               "cpu_us_per_req": (cpu, "us"), "p95_ms": (0.15, "ms"),
               "slo_share": (0.9999, "ratio"),
               "wire_bytes_per_req": (2482.0, "B"), "rss_mb": (30.0, "MB"),
               "client.speed": (speed, "ratio")}
    lines = [f"env nproc=2 affinity=[0, 1] pinned=true cpu=1 aslr=off "
             f"python=3.11.7 git={sha} seed={seed} data=benchmarks/e2e/out "
             f"fs=ext4 episodes=4 windows=12x1s"]
    lines += [f"{'cached_get':13s} {name:38s} {value:16.6f} {unit}"
              for name, (value, unit) in metrics.items()]
    lines.append("a line of something else")
    lines.append(json.dumps({
        "correct": True, "attempted": 100_000, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return "\n".join(lines) + "\n"


def test_two_pairs_make_one_line(tmp_path, capsys):
    history = load_history()
    runs = {
        "parent-1": canned("aaaaaaa", 1, 10_000.0, 80.0, failed=0),
        "parent-2": canned("aaaaaaa", 2, 9_000.0, 82.0, failed=1, speed=1.4),
        "change-1": canned("bbbbbbb", 1, 13_000.0, 60.0, failed=0),
        "change-2": canned("bbbbbbb", 2, 8_000.0, 82.0, failed=0, speed=1.4),
    }
    for name, text in runs.items():
        (tmp_path / name).write_text(text)
    target = tmp_path / "history.jsonl"
    target.write_text('{"label": "an earlier line"}\n')
    assert history.main([
        "--label", "PR 0: canned", "--history", str(target),
        "--parent", str(tmp_path / "parent-1"), str(tmp_path / "parent-2"),
        "--change", str(tmp_path / "change-1"), str(tmp_path / "change-2"),
    ]) == 0
    lines = target.read_text().splitlines()
    assert len(lines) == 2 and json.loads(lines[0])["label"] == \
        "an earlier line"
    record = json.loads(lines[1])
    assert record["label"] == "PR 0: canned"
    assert (record["parent"], record["change"]) == ("aaaaaaa", "bbbbbbb")
    assert record["env"]["affinity"] == "[0, 1]"
    assert record["env"]["windows"] == "12x1s"
    assert "git" not in record["env"] and "seed" not in record["env"]
    cached = record["workloads"]["cached_get"]
    assert cached["attempted"] == {"parent": 200_000, "change": 200_000}
    assert cached["failed"] == {"parent": 1, "change": 0}
    assert cached["speed"] == {"parent": 1.2, "change": 1.2}
    rps = cached["metrics"]["rps"]
    assert (rps["parent"], rps["change"]) == (9_500.0, 10_500.0)
    assert (rps["pairs"], rps["won"]) == (2, 1)     # higher is better
    cpu = cached["metrics"]["cpu_us_per_req"]
    assert (cpu["pairs"], cpu["won"]) == (2, 1)     # lower is; one tie
    assert cpu["parent_spread"] > 0
    assert set(cached["metrics"]) == {
        "setup_s", "rps", "cpu_us_per_req", "p95_ms", "slo_share",
        "wire_bytes_per_req", "rss_mb"}
    assert "cached_get" in capsys.readouterr().out


def history_line(label, rps, cpu):
    """A history line holding one workload's change medians."""
    metrics = {"rps": rps, "cpu_us_per_req": cpu, "rss_mb": 30.0}
    return json.dumps({"label": label, "workloads": {"cached_get": {
        "metrics": {name: {"parent": value, "change": value}
                    for name, value in metrics.items()}}}})


def test_drift_flags_creep_that_fits_each_bound(tmp_path, capsys):
    """Two changes each 12 % slower fit the 20 % ``cpu_us_per_req``
    bound against their parents, but not against the line before
    both; ``rps`` within its bound and an unchanged ``rss_mb`` are
    not flagged."""
    history = load_history()
    target = tmp_path / "history.jsonl"
    target.write_text("\n".join([
        history_line("the base line", 10_000.0, 50.0),
        history_line("one step", 9_500.0, 56.0),
        history_line("another step", 9_000.0, 62.7),
    ]) + "\n")
    assert history.main(["--drift", "one step", "--history",
                         str(target)]) == 0
    assert "0 adverse drift(s)" in capsys.readouterr().out
    assert history.main(["--drift", "base", "--history",
                         str(target)]) == 1
    out = capsys.readouterr().out
    flagged = [line.split()[1] for line in out.splitlines()
               if line.endswith("DRIFT")]
    assert flagged == ["cpu_us_per_req"]
    assert "from the base line" in out and "1 adverse drift(s)" in out
    assert target.read_text().count("\n") == 3      # nothing appended
