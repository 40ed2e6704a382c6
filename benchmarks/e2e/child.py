"""One DCWS server process, driven over a newline-JSON control pipe.

``run.py`` launches this file once per server.  It builds the engine and
front end through the public API exactly as ``python -m repro serve``
does, then answers commands on stdin with one JSON line on stdout each:

- ``cpu``     — this process's CPU seconds so far (window boundaries);
- ``stats``   — public counters: ``engine.stats``, ``cache_counters()``,
  ``journal.describe()``, integrity counters, VmHWM;
- ``update``  — an author's ``engine.update_document`` under the server's
  engine lock (the way ``tests/test_server_aio.py`` issues one);
- ``stop``    — exit.

EOF on stdin (the parent died) ends the process too, so no child
outlives a failed run.  The process exits without ``server.stop()``:
a threaded server's workers sit in ``recv`` on idle keep-alive peer
connections for up to ``keep_alive_timeout`` (5 s), ``stop()`` joins
them, and nothing here needs the state it would save.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time


def peak_rss_kb():
    """VmHWM of this process in kB (0 where /proc is unavailable)."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def revised(data, revision):
    """*data* as an author would re-save it: same links, new marker.

    The marker goes before ``</body>`` so the page's link set — and so
    the LDG edges and the link template's span count — is unchanged and
    every update costs the same."""
    marker = b"<!-- rev %d -->" % revision
    head, separator, tail = data.rpartition(b"</body>")
    if not separator:
        return data + marker
    return head + marker + separator + tail


def build(spec):
    from repro.core.config import ServerConfig
    from repro.core.document import Location
    from repro.server.aio import AsyncDCWSServer
    from repro.server.engine import DCWSEngine
    from repro.server.filestore import DiskStore
    from repro.server.threaded import ThreadedDCWSServer

    config = ServerConfig()
    if spec.get("time_factor"):
        config = config.scaled(spec["time_factor"])
    store = DiskStore(spec["root"], fsync=spec.get("store_fsync", True))
    engine = DCWSEngine(
        Location(spec["host"], spec["port"]), config, store,
        entry_points=spec.get("entry_points", ()),
        peers=[Location.parse(peer) for peer in spec.get("peers", ())])
    front_end = (AsyncDCWSServer if spec["front_end"] == "aio"
                 else ThreadedDCWSServer)
    server = front_end(engine, journal_path=spec.get("journal"))
    return engine, server


def counters(engine, server):
    stats = dataclasses.asdict(engine.stats)
    stats.pop("decisions")
    journal = server.journal.describe() if server.journal else None
    return {
        "rss_hwm_kb": peak_rss_kb(),
        "stats": stats,
        "caches": engine.cache_counters(),
        "journal": journal,
        "integrity": engine.integrity.describe(),
    }


def main():
    spec = json.loads(sys.argv[1])
    engine, server = build(spec)
    server.start()
    server.wait_ready()
    originals = {}

    def original(name):
        # The bytes first seen for a page; revisions are cut from them
        # so a page does not grow with every update.
        if name not in originals:
            originals[name] = engine.store.get(name)
        return originals[name]

    def reply(message):
        sys.stdout.write(json.dumps(message) + "\n")
        sys.stdout.flush()

    reply({"ready": True})
    try:
        for line in sys.stdin:
            command = json.loads(line)
            op = command["op"]
            if op == "cpu":
                reply({"cpu_s": time.process_time()})
            elif op == "stats":
                reply(counters(engine, server))
            elif op == "update":
                data = revised(original(command["name"]), command["rev"])
                with server._lock:
                    engine.update_document(command["name"], data)
                    version = engine.graph.get(command["name"]).version
                reply({"version": version})
            elif op == "stop":
                break
    finally:
        sys.stdout.flush()
        os._exit(0)


if __name__ == "__main__":
    main()
