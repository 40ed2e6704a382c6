"""Striped locks and the shard map (repro.server.striping)."""

import threading

from repro.server.striping import (
    DEFAULT_STRIPES,
    StripedLock,
    shard_of,
)


class TestShardOf:
    def test_stable_across_calls(self):
        # CRC-32, not the per-process salted hash(): every worker
        # process must map the same name to the same shard.
        assert shard_of("/a.html", 16) == shard_of("/a.html", 16)

    def test_known_value_is_crc32(self):
        import zlib
        assert shard_of("/a.html", 16) == zlib.crc32(b"/a.html") % 16

    def test_range(self):
        for i in range(200):
            assert 0 <= shard_of(f"/doc{i}.html", 7) < 7

    def test_single_stripe_collapses_to_zero(self):
        assert shard_of("/anything", 1) == 0
        assert shard_of("/anything", 0) == 0

    def test_distribution_not_degenerate(self):
        shards = {shard_of(f"/doc{i}.html", DEFAULT_STRIPES)
                  for i in range(256)}
        assert len(shards) > DEFAULT_STRIPES // 2


class TestStripedLock:
    def test_same_name_same_lock(self):
        locks = StripedLock(8)
        assert locks.lock_for("/x.html") is locks.lock_for("/x.html")

    def test_holding_is_exclusive_per_stripe(self):
        locks = StripedLock(4)
        with locks.holding("/x.html"):
            lock = locks.lock_for("/x.html")
            assert not lock.acquire(blocking=False)
        lock = locks.lock_for("/x.html")
        assert lock.acquire(blocking=False)
        lock.release()

    def test_holding_all_takes_every_stripe(self):
        locks = StripedLock(4)
        with locks.holding_all():
            for name in ("/a", "/b", "/c", "/d", "/e", "/f"):
                assert not locks.lock_for(name).acquire(blocking=False)

    def test_concurrent_different_stripes_do_not_block(self):
        locks = StripedLock(64)
        entered = threading.Event()
        name_a, name_b = "/a.html", "/b.html"
        assert shard_of(name_a, 64) != shard_of(name_b, 64)

        def hold_b():
            with locks.holding(name_b):
                entered.set()

        with locks.holding(name_a):
            worker = threading.Thread(target=hold_b)
            worker.start()
            assert entered.wait(2.0)
            worker.join(2.0)
