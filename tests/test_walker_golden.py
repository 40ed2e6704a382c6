"""A golden fetch trace of the simulator's Algorithm 2 clients.

``tests/golden/walker_trace.json`` holds, for every ``SimClient`` of a
few seeded simulated clusters, each exchange it saw — the virtual time
the answer arrived, the URL asked for, and the status (``null`` for a
server that never answered) — plus the counters and latencies the
figures read off it.  The clusters cover both corpora, think time, a
co-op crash (the failover to the home) and an overload that sheds
(503 backoff).  A change to the walk's rules or to the simulator's
client that moves any fetch shows here first.

Re-record (only ever at a commit whose walk is the reference) with
``PYTHONPATH=src python -m tests.test_walker_golden``.
"""

import json
import pathlib

import pytest

from repro.core.config import ServerConfig
from repro.datasets.lod import build_lod
from repro.datasets.sblog import build_sblog
from repro.sim.cluster import ClusterConfig, SimCluster

GOLDEN = pathlib.Path(__file__).parent / "golden" / "walker_trace.json"

# The WalkerStats fields a SimulationResult (and so every figure) reads.
COUNTERS = ("sequences", "steps", "requests", "bytes_received",
            "cache_hits", "drops", "redirects", "errors", "backoff_time",
            "replica_fallbacks")


def _crash_coop(cluster):
    cluster.loop.schedule(4.0, lambda: cluster.crash_server(1))


CASES = {
    "lod": (build_lod, dict(servers=3, clients=2, duration=12.0), None),
    "sblog": (build_sblog, dict(servers=3, clients=4, duration=12.0), None),
    "think": (build_sblog, dict(servers=2, clients=4, duration=15.0,
                                think_time=0.5), None),
    "crash": (build_lod, dict(servers=3, clients=3, duration=9.0,
                              prewarm=True), _crash_coop),
    "overload": (build_lod, dict(
        servers=1, clients=8, duration=4.0,
        server_config=ServerConfig(worker_threads=1,
                                   socket_queue_length=2).scaled(0.2)),
        None),
}


def run_case(name):
    build, overrides, setup = CASES[name]
    settings = dict(sample_interval=4.0, seed=5,
                    server_config=ServerConfig().scaled(0.2))
    settings.update(overrides)
    cluster = SimCluster(build(seed=0), ClusterConfig(**settings))
    traces = []
    for client in cluster.clients:
        trace = []
        traces.append(trace)

        def send(url, request, on_response, _send=client.send, _trace=trace):
            def answered(response):
                _trace.append([round(cluster.loop.now, 9), str(url),
                               None if response is None
                               else int(response.status)])
                on_response(response)
            _send(url, request, answered)

        client.send = send
    cluster.run(extra_setup=setup)
    return [{"trace": trace,
             "stats": {key: round(getattr(client.stats, key), 9)
                       for key in COUNTERS},
             "latencies": [round(t, 9) for t in client.latencies]}
            for client, trace in zip(cluster.clients, traces)]


def record():
    return {name: run_case(name) for name in CASES}


def dump(recorded):
    return json.dumps(recorded, separators=(",", ":")) + "\n"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_sim_clients_replay_the_golden_trace(golden, name):
    assert json.loads(dump({name: run_case(name)}))[name] == golden[name]


def test_the_trace_covers_what_it_claims(golden):
    def statuses(name):
        return {status for client in golden[name]
                for __, __, status in client["trace"]}

    def total(name, key):
        return sum(client["stats"][key] for client in golden[name])

    for name in CASES:
        assert total(name, "steps") > 0 and total(name, "sequences") > 1
    assert 301 in statuses("sblog") and 301 in statuses("crash")
    assert None in statuses("crash") and total("crash", "replica_fallbacks")
    assert 503 in statuses("overload") and total("overload", "backoff_time")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(dump(record()))
    print(f"recorded {GOLDEN}")
