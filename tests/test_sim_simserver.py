"""Unit tests for simulated server nodes (queueing, drops, crash)."""

from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.core.naming import encode_migrated_path
from repro.http.messages import Request
from repro.server.engine import DCWSEngine
from repro.server.filestore import MemoryStore
from repro.sim.events import EventLoop
from repro.sim.network import CostModel
from repro.sim.simserver import SimServer, StaticServer

HOME = Location("home", 80)


def collect(responses):
    def respond(response):
        responses.append(response)
    return respond


def make_static(loop, *, workers=2, queue_length=3, costs=None):
    store = MemoryStore({"/a.html": b"<html>doc</html>",
                         "/big.bin": b"x" * 1_000_000})
    return StaticServer("s", store, loop, costs or CostModel(),
                        workers=workers, queue_length=queue_length)


class TestStaticServing:
    def test_serves_document(self):
        loop = EventLoop()
        server = make_static(loop)
        responses = []
        server.deliver(Request("GET", "/a.html"), collect(responses))
        loop.run_until(1.0)
        assert len(responses) == 1
        assert responses[0].status == 200
        assert responses[0].body == b"<html>doc</html>"

    def test_404(self):
        loop = EventLoop()
        server = make_static(loop)
        responses = []
        server.deliver(Request("GET", "/missing"), collect(responses))
        loop.run_until(1.0)
        assert responses[0].status == 404

    def test_response_takes_time(self):
        loop = EventLoop()
        server = make_static(loop)
        arrival_times = []
        server.deliver(Request("GET", "/a.html"),
                       lambda r: arrival_times.append(loop.now))
        loop.run_until(1.0)
        # At least CPU (1 ms) plus latency.
        assert arrival_times[0] >= 0.001

    def test_large_transfer_limited_by_nic(self):
        loop = EventLoop()
        server = make_static(loop)
        arrival_times = []
        server.deliver(Request("GET", "/big.bin"),
                       lambda r: arrival_times.append(loop.now))
        loop.run_until(10.0)
        # 1 MB at 100 Mbps is 80 ms of transfer.
        assert arrival_times[0] >= 0.08


class TestQueueing:
    def test_overflow_drops_with_503(self):
        loop = EventLoop()
        # 1 worker busy with the big file + queue of 2 -> 4th drops.
        server = make_static(loop, workers=1, queue_length=2)
        responses = []
        for __ in range(4):
            server.deliver(Request("GET", "/big.bin"), collect(responses))
        loop.run_until(60.0)
        statuses = sorted(r.status for r in responses)
        assert statuses == [200, 200, 200, 503]
        assert server.dropped == 1

    def test_queued_requests_served_in_order(self):
        loop = EventLoop()
        server = make_static(loop, workers=1, queue_length=10)
        order = []
        for index in range(3):
            server.deliver(
                Request("GET", "/a.html"),
                lambda r, i=index: order.append(i))
        loop.run_until(10.0)
        assert order == [0, 1, 2]

    def test_workers_parallelize(self):
        loop = EventLoop()
        slow = CostModel(request_cpu=0.0)  # pure transfer, no CPU queueing
        server = make_static(loop, workers=2, queue_length=10, costs=slow)
        finish_times = []
        for __ in range(2):
            server.deliver(Request("GET", "/a.html"),
                           lambda r: finish_times.append(loop.now))
        loop.run_until(10.0)
        assert len(finish_times) == 2


class TestCrash:
    def test_crashed_server_times_out(self):
        loop = EventLoop()
        server = make_static(loop)
        server.crash()
        responses = []
        server.deliver(Request("GET", "/a.html"), collect(responses))
        loop.run_until(60.0)
        assert responses == [None]

    def test_queued_requests_fail_on_crash(self):
        loop = EventLoop()
        server = make_static(loop, workers=1, queue_length=5)
        responses = []
        for __ in range(3):
            server.deliver(Request("GET", "/big.bin"), collect(responses))
        server.crash()
        loop.run_until(60.0)
        # Queued requests (not yet started) answer None on timeout.
        assert None in responses

    def test_recover(self):
        loop = EventLoop()
        server = make_static(loop)
        server.crash()
        server.recover()
        responses = []
        server.deliver(Request("GET", "/a.html"), collect(responses))
        loop.run_until(10.0)
        assert responses[0].status == 200


class TestSimServerEngine:
    def test_hosts_real_engine(self):
        loop = EventLoop()
        costs = CostModel()
        store = MemoryStore({"/index.html": b'<html><a href="a.html">a</a></html>',
                             "/a.html": b"<html>a</html>"})
        engine = DCWSEngine(HOME, ServerConfig(), store,
                            entry_points=["/index.html"])
        engine.initialize(0.0)
        server = SimServer(engine, loop, costs,
                           send=lambda *a: None)
        responses = []
        server.deliver(Request("GET", "/a.html"), collect(responses))
        loop.run_until(1.0)
        assert responses[0].status == 200
        assert engine.stats.responses_200 == 1

    def test_drop_recorded_in_engine_metrics(self):
        loop = EventLoop()
        costs = CostModel()
        store = MemoryStore({"/a.html": b"<html>a</html>"})
        config = ServerConfig(worker_threads=1, socket_queue_length=1)
        engine = DCWSEngine(HOME, config, store)
        engine.initialize(0.0)
        server = SimServer(engine, loop, costs, send=lambda *a: None)
        responses = []
        for __ in range(5):
            server.deliver(Request("GET", "/a.html"), collect(responses))
        loop.run_until(10.0)
        assert server.dropped >= 1
        drops = engine.metrics.drops
        assert round(drops.rate(10.0) * drops.window) == server.dropped


class TestCoopCircuit:
    def test_crashed_home_gets_at_most_one_pull_per_backoff_period(self):
        """Five clients keep asking a co-op for a copy it never fetched
        from a home that crashed.  The first pulls time out and open the
        home's circuit; from then on one pull leaves per backoff period
        and every other request is answered 503 without sending one."""
        loop = EventLoop()
        costs = CostModel()
        config = ServerConfig(reprobe_interval=1.0, reprobe_max_interval=8.0,
                              reprobe_jitter=0.0)
        engine = DCWSEngine(Location("coop", 80), config, MemoryStore(),
                            peers=[HOME])
        engine.initialize(0.0)
        pulls = []

        def crashed_home(source, destination, request, respond):
            pulls.append(loop.now)
            loop.schedule_after(costs.request_timeout, lambda: respond(None))

        server = SimServer(engine, loop, costs, send=crashed_home)
        key = encode_migrated_path(HOME, "/d.html")
        statuses = []

        def client():
            if loop.now < 60.0:
                server.deliver(Request("GET", key), answered)

        def answered(response):
            statuses.append(response.status)
            loop.schedule_after(0.1, client)

        for __ in range(5):
            client()
        loop.run_until(80.0)
        # Everything sent after the first pulls timed out was admitted
        # by the open circuit: at least a backoff period apart.
        later = [t for t in pulls if t > costs.request_timeout]
        assert later
        assert all(b - a >= config.reprobe_interval
                   for a, b in zip(later, later[1:]))
        assert statuses.count(503) > 10 * len(pulls)
