"""The stable document-to-shard map.

``shard_of(name, stripes)`` assigns every document to one of a fixed
number of shards.  Two things are partitioned by it: the byte and
response caches (:mod:`repro.server.cache` — each stripe has its own
LRU order and its own share of the budget, which is what keeps a few
half-megabyte bodies from evicting the small hot set; DESIGN.md section
4 has the measurement) and, in the multi-process front end
(:mod:`repro.server.multiproc`), which worker pulls a hosted document.

No lock lives here.  The engine has exactly one synchronisation rule:
every engine call runs under the host's lock.

Shard assignment uses CRC-32 of the document name, *not* ``hash()``:
Python salts string hashes per process, and every worker process must
agree on which shard — and therefore which worker — owns a document.
"""

from __future__ import annotations

import zlib


def shard_of(name: str, stripes: int) -> int:
    """The stripe *name* belongs to — stable across processes and runs."""
    if stripes <= 1:
        return 0
    return zlib.crc32(name.encode("utf-8", "surrogatepass")) % stripes
