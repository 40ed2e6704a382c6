"""The shard map (repro.server.striping)."""

from repro.server.striping import shard_of

STRIPES = 16  # ServerConfig.lock_stripes' default


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
        shards = {shard_of(f"/doc{i}.html", STRIPES)
                  for i in range(256)}
        assert len(shards) > STRIPES // 2
