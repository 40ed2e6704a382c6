"""One episode: fresh server processes, a fresh generator process.

``run.py`` starts this file several times per run.  Each episode builds
the site, launches the workload's servers, crawls every document once
(that is ``setup_s``), warms up, measures its share of the run's timed
windows, times author updates, stops the servers, and prints one JSON
object.  A run is split into episodes because a process's memory layout
shifts its speed by a few percent for as long as it lives — for servers
and generator alike — and only fresh processes average that out.

With ``"trace": true`` the episode also computes the per-layer metrics
(``layers.py``) before it exits.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import shutil
import sys
import time
from typing import List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from launcher import SRC, Cluster, write_site  # noqa: E402

sys.path.insert(0, SRC)

from loadgen import (DIGEST, VERSION, Recorder, Walker, Window,  # noqa: E402
                     Wires, digest_ok, run_script)
from measure import load_share_max, window_stats  # noqa: E402
from workloads import (WORKLOADS, build_script, build_site,  # noqa: E402
                       request_bytes, update_targets)


def crawl(cluster: Cluster, names: List[str]) -> Optional[float]:
    """The first full warm crawl: every document once, verified.
    Returns when (if at all) it first met a migrated document."""
    wires = Wires()
    window = Window()
    walker = Walker(wires, cluster.home, "/", seed=0)
    try:
        for name in names:
            walker.fetch(cluster.home, name, window)
    finally:
        wires.close()
    if window.failed:
        raise RuntimeError(f"warm crawl: {window.failed} of "
                           f"{window.attempted} requests failed")
    return walker.first_moved_at


def update_cycles(cluster: Cluster, targets: List[str],
                  cycles: int) -> Tuple[List[float], int, int]:
    """Author updates a page; time until a client sees the new version.

    Returns (seconds per good cycle, attempted, failed).  Pages that have
    migrated away answer 301 and are skipped: only home-served pages are
    timed."""
    wires = Wires()
    times: List[float] = []
    attempted = failed = 0
    try:
        for turn, name in enumerate(targets * 3):
            if len(times) >= cycles:
                break
            raw = request_bytes(name)
            if wires.exchange(cluster.home, raw).status != 200:
                continue
            marker = b"<!-- rev %d -->" % (turn + 1)
            started = time.perf_counter()
            version = cluster.ask(0, op="update", name=name,
                                  rev=turn + 1)["version"]
            reply = wires.exchange(cluster.home, raw)
            elapsed = time.perf_counter() - started
            if reply.status == 301:
                continue    # migrated between the probe and the update
            attempted += 1
            if reply.status == 200 and marker in reply.body \
                    and reply.header(VERSION) == str(version).encode() \
                    and digest_ok(reply.body, reply.header(DIGEST), None):
                times.append(elapsed)
            else:
                failed += 1
    finally:
        wires.close()
    return times, attempted, failed


def episode(spec: dict) -> dict:
    workload = WORKLOADS[spec["workload"]]
    seed = spec["seed"]
    scratch = os.path.join(spec["out"], f"run-{os.getpid()}-{workload.name}")
    shutil.rmtree(scratch, ignore_errors=True)
    documents, entry = build_site(workload)
    home_root = os.path.join(scratch, "home")
    write_site(home_root, documents)
    cluster = Cluster(workload, home_root, scratch, entry)
    wires = Wires()
    result: dict = {}
    try:
        # setup_s: launch, engine.initialize, listen, first full crawl.
        started = time.perf_counter()
        cluster.start()
        first_moved_at = crawl(cluster, sorted(documents))
        result["setup_s"] = time.perf_counter() - started
        if spec["setup_only"]:
            return result
        script = build_script(workload, documents, seed)
        targets = update_targets(documents, seed)
        # Nothing allocated so far is garbage worth scanning while timing.
        gc.collect()
        gc.freeze()
        walker = Walker(wires, cluster.home, entry[0], seed) \
            if workload.walk else None
        revisions = itertools.count(1)

        def author_update() -> None:
            revision = next(revisions)
            cluster.ask(0, op="update", rev=revision,
                        name=targets[revision % len(targets)])

        def drive(recorder: Recorder) -> Recorder:
            if walker is not None:
                walker.run(recorder)
            else:
                run_script(wires, cluster.home, script, recorder,
                           workload.update_every, author_update)
            return recorder

        drive(Recorder(spec["warmup_s"], 1, cluster.cpu_s))
        before = cluster.stats()
        recorder = drive(Recorder(spec["window_s"], spec["windows"],
                                  cluster.cpu_s))
        after = cluster.stats()
        cycle_times, cycle_attempted, cycle_failed = update_cycles(
            cluster, targets, spec["cycles"])
        if first_moved_at is None and walker is not None:
            first_moved_at = walker.first_moved_at
        windows = [window_stats(w, spec["client_ref_us"], spec["limit_ms"])
                   for w in recorder.windows]
        # The update cycles follow the last window at once, so its speed
        # is the best estimate of the machine's speed during them.
        speed = windows[-1]["speed"]
        result.update({
            "windows": windows,
            "rss_mb": sum(s["rss_hwm_kb"] for s in after) / 1024.0,
            "update_ms": [t * 1e3 / speed for t in cycle_times],
            "update_attempted": cycle_attempted,
            "update_failed": cycle_failed,
            "reconnects": wires.reconnects,
        })
        if spec["trace"]:
            from layers import layer_metrics, live_probes

            result["layers"] = layer_metrics(workload, spec["out"], {
                "documents": documents, "entry": entry, "targets": targets,
                "script": script, "walker": walker,
                "before": before, "after": after,
                "rps_raw": sorted(w["rps_raw"] for w in windows)[
                    len(windows) // 2],
                "load_share_max": load_share_max(windows)
                if workload.walk else 1.0,
                "first_moved_s": first_moved_at - cluster.launched_at
                if first_moved_at is not None else 0.0,
                "live": live_probes(cluster),
            })
        return result
    finally:
        wires.close()
        cluster.stop()
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    print(json.dumps(episode(json.loads(sys.argv[1]))))
