"""A stable name-to-shard map: CRC-32 of the name, not ``hash()``,
which Python salts per process.

The engine uses it to spread hosted copies' first validations over
T_val; the benchmark harness pins this module (and
``ServerConfig.lock_stripes``), which is why it stays a module.
"""

from __future__ import annotations

import zlib


def shard_of(name: str, stripes: int) -> int:
    """The stripe *name* belongs to — stable across processes and runs."""
    if stripes <= 1:
        return 0
    return zlib.crc32(name.encode("utf-8", "surrogatepass")) % stripes
