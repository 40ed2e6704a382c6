"""Versioned serve-path caches (byte cache and rendered-response cache).

DistCache-style observation: a small cache in front of a distributed
store absorbs the skewed head of web load.  Two layers sit on the DCWS
serve hot path:

- :class:`CachingStore` — a size-bounded LRU *byte cache* wrapped around
  any :class:`~repro.server.filestore.DocumentStore` (in practice the
  :class:`~repro.server.filestore.DiskStore`), so repeat ``get`` calls for
  hot documents stop re-reading the disk.  ``put``/``delete`` write
  through and invalidate.
- :class:`ResponseCache` — rendered 200 responses keyed by
  ``(name, version, method)``, so a repeat hit skips the store entirely
  and reuses the same immutable body bytes — and, on the engine's
  short-circuit, the header block framed for them
  (:attr:`CachedResponse.framed`).  Version bumps (author
  updates, migration/revocation dirtying) change the key, and
  regeneration explicitly invalidates, so a stale body is never served.

:class:`Rendition` is the record beside them that is *not* a cache: what
a stored copy's ``(version, digest)`` determines — validators, framed
304 blocks, the gzip variant — kept by the engine per store key, for
home documents and fetched hosted copies alike, so an eviction above
never costs a second deflate pass.

Both caches keep their own locking, and the counters feed the admin
endpoint and benchmarks.  With ``stripes > 1`` the lock and the LRU
structure are partitioned by ``shard_of(name, stripes)`` and capacity is
split evenly across stripes.  Every engine call now runs under the
host's one lock, so on the serve path the per-shard locks are never
contended; what the partition buys is isolation — a few large bodies
can only evict within their own stripes (DESIGN.md section 4 has the
measurement).  The default of one stripe preserves the original
global-LRU semantics exactly.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.http.content import etag_for, last_modified_for
from repro.http.headers import Headers
from repro.server.filestore import DocumentStore
from repro.server.striping import shard_of


@dataclass
class CacheStats:
    """Cumulative counters one cache exposes to stats/admin."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "hit_rate": round(self.hit_rate, 4)}


class _ByteShard:
    """One stripe of :class:`LRUByteCache`: entries + lock + budget."""

    __slots__ = ("capacity", "entries", "used", "lock")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: "OrderedDict[str, bytes]" = OrderedDict()
        self.used = 0
        self.lock = threading.Lock()


class LRUByteCache:
    """A byte-bounded LRU map of document name -> bytes.

    ``capacity_bytes <= 0`` disables the cache (every lookup misses).
    Oversized single values are not cached rather than flushing the
    whole cache to make room.  With ``stripes > 1`` the byte budget,
    the LRU order, and the lock are all per-stripe.
    """

    def __init__(self, capacity_bytes: int, *, stripes: int = 1) -> None:
        self.capacity_bytes = capacity_bytes
        self.stripes = max(1, stripes)
        self.stats = CacheStats()
        per_shard = (max(1, capacity_bytes // self.stripes)
                     if capacity_bytes > 0 else 0)
        self._shards: List[_ByteShard] = [
            _ByteShard(per_shard) for __ in range(self.stripes)]

    def _shard(self, name: str) -> _ByteShard:
        return self._shards[shard_of(name, self.stripes)]

    @property
    def used_bytes(self) -> int:
        return sum(shard.used for shard in self._shards)

    def __len__(self) -> int:
        return sum(len(shard.entries) for shard in self._shards)

    def __contains__(self, name: object) -> bool:
        if not isinstance(name, str):
            return False
        return name in self._shard(name).entries

    def get(self, name: str) -> Optional[bytes]:
        shard = self._shard(name)
        with shard.lock:
            data = shard.entries.get(name)
            if data is None:
                self.stats.misses += 1
                return None
            shard.entries.move_to_end(name)
            self.stats.hits += 1
            return data

    def put(self, name: str, data: bytes) -> None:
        if self.capacity_bytes <= 0:
            return
        size = len(data)
        shard = self._shard(name)
        with shard.lock:
            old = shard.entries.pop(name, None)
            if old is not None:
                shard.used -= len(old)
            if size > shard.capacity:
                return
            shard.entries[name] = data
            shard.used += size
            while shard.used > shard.capacity:
                __, evicted = shard.entries.popitem(last=False)
                shard.used -= len(evicted)
                self.stats.evictions += 1

    def invalidate(self, name: str) -> None:
        shard = self._shard(name)
        with shard.lock:
            data = shard.entries.pop(name, None)
            if data is not None:
                shard.used -= len(data)
                self.stats.invalidations += 1

    def clear(self) -> None:
        for shard in self._shards:
            with shard.lock:
                shard.entries.clear()
                shard.used = 0


class CachingStore(DocumentStore):
    """LRU byte cache in front of another :class:`DocumentStore`.

    Reads fill the cache; writes and deletes go through to the inner
    store and keep the cache coherent (the fresh bytes replace the cached
    entry rather than merely invalidating it, so a concurrent reader can
    never observe a partially written disk file).
    """

    def __init__(self, inner: DocumentStore, capacity_bytes: int, *,
                 stripes: int = 1) -> None:
        self.inner = inner
        self.cache = LRUByteCache(capacity_bytes, stripes=stripes)

    def get(self, name: str) -> bytes:
        data = self.cache.get(name)
        if data is not None:
            return data
        data = self.inner.get(name)
        self.cache.put(name, data)
        return data

    def put(self, name: str, data: bytes) -> None:
        data = bytes(data)
        self.inner.put(name, data)
        self.cache.put(name, data)

    def delete(self, name: str) -> None:
        self.inner.delete(name)
        self.cache.invalidate(name)

    def names(self) -> List[str]:
        return self.inner.names()

    def __contains__(self, name: object) -> bool:
        return name in self.inner

    def size(self, name: str) -> int:
        return self.inner.size(name)

    def items(self) -> Iterator[Tuple[str, bytes]]:
        return self.inner.items()

    def sendfile_source(self, name: str) -> Optional[Tuple[str, int]]:
        """Delegate zero-copy sourcing to the inner store — unless the
        bytes are already memory-resident here, in which case reading
        from cache beats a sendfile syscall pair."""
        if name in self.cache:
            return None
        return self.inner.sendfile_source(name)


@dataclass(frozen=True)
class CachedResponse:
    """One rendered 200: shared immutable body plus the header facts.

    Filled at one site, ``DCWSEngine._serve_copy``, for a home document
    or a hosted copy alike.  ``etag``/``last_modified`` and ``gzip_body``
    are the copy's :class:`Rendition`'s (the validators empty for a
    versionless hosted copy, which is never cached; the variant ``None``
    when compression is not worthwhile), so gzip negotiation on a cache
    hit costs a header check, never a compression pass.

    ``framed`` is the one mutable part: the finished header block of
    this entry's plain 200, one per ``(gzip variant, connection
    persists)`` — four at most; HEAD is a cache entry of its own.  The
    engine's cached-read short-circuit fills it on a flavour's first hit
    with the headers it rendered (their serialized form included) and
    copies it on every later one, never handing out the stored block
    itself.  It is reachable only through this entry, so whatever
    invalidates or evicts the entry drops its blocks with it.
    """

    body: bytes
    content_length: int
    content_type: str
    version: str
    etag: str = ""
    last_modified: str = ""
    gzip_body: Optional[bytes] = None
    # Strong digest of the identity body (``sha256:<hex>``), copied from
    # the document record at fill time and stamped as ``X-DCWS-Digest``
    # on full responses; "" when the record had none.
    digest: str = ""
    framed: Dict[Tuple[bool, bool], Headers] = field(
        default_factory=dict, compare=False, repr=False)


@dataclass
class Rendition:
    """What one stored copy's ``(version, digest)`` stamp determines.

    The engine keeps one per store key — a home document's name or a
    fetched hosted copy's ``/~migrate/...`` key — *replaces* it when the
    copy's version or digest moves, and drops it with a hosted copy's
    bytes; no field here is ever corrected in place, so nothing derived
    from an older stamp can survive it.  ``etag``/``last_modified`` are
    set at construction (:meth:`of`; empty for a versionless legacy
    pull).  The other two fill lazily and only ever from
    ``None``/absent to their one value: ``gzip_body`` is the variant of
    the bytes that hash to ``digest``, made by the first GET cache fill
    from bytes it has hashed to that digest (a later fill may pair it
    only with bytes it has hashed the same way); ``not_modified`` holds
    the framed 304 header block per "connection persists" flavour.

    Unlike :class:`CachedResponse` this is not inside any cache's
    budget: it is O(stored copies), like the LDG and the hosted table —
    the point is that a response-cache eviction loses the identity
    bytes, which the byte cache or the disk give back, and not the
    deflate pass.
    """

    version: object        # a home's int, or the str a co-op was handed
    digest: str
    etag: str
    last_modified: str
    gzip_body: Optional[bytes] = None
    not_modified: Dict[bool, Headers] = field(default_factory=dict)

    @classmethod
    def of(cls, key: str, version: object, digest: str) -> "Rendition":
        """The empty rendition of *key* at ``(version, digest)``."""
        versioned = version != ""
        return cls(version, digest,
                   etag_for(key, version) if versioned else "",
                   last_modified_for(version) if versioned else "")


class _ResponseShard:
    """One stripe of :class:`ResponseCache`: LRU + name index + lock."""

    __slots__ = ("capacity", "entries", "by_name", "lock")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: "OrderedDict[Tuple[str, str, str], CachedResponse]" = \
            OrderedDict()
        self.by_name: Dict[str, set] = {}
        self.lock = threading.Lock()

    def unindex(self, key: Tuple[str, str, str]) -> None:
        """Drop *key* from the per-name index (lock held by caller)."""
        keys = self.by_name.get(key[0])
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self.by_name[key[0]]


class ResponseCache:
    """Rendered-response LRU keyed by ``(name, version, method)``.

    Bounded by entry count.  ``invalidate(name)`` drops every version and
    method of *name* — used when a regeneration or a hosted-copy refresh
    rewrites bytes without the version changing observably.  A per-name
    key index keeps that O(cached versions of *name*): migration events
    invalidate on the hot path, and a scan of every entry under the lock
    would make each invalidation O(total entries).

    ``on_invalidate`` (when set) is called with the document name after
    any invalidation that actually dropped entries — the multi-process
    front end hangs its cross-worker version broadcast here.  It fires
    outside the shard lock and never for invalidations that arrive *as*
    broadcasts (``broadcast=False``), so relays cannot loop.
    """

    def __init__(self, capacity_entries: int, *, stripes: int = 1) -> None:
        self.capacity_entries = capacity_entries
        self.stripes = max(1, stripes)
        self.stats = CacheStats()
        self.on_invalidate: Optional[Callable[[str], None]] = None
        per_shard = (max(1, capacity_entries // self.stripes)
                     if capacity_entries > 0 else 0)
        self._shards: List[_ResponseShard] = [
            _ResponseShard(per_shard) for __ in range(self.stripes)]

    def _shard(self, name: str) -> _ResponseShard:
        return self._shards[shard_of(name, self.stripes)]

    def __len__(self) -> int:
        return sum(len(shard.entries) for shard in self._shards)

    @property
    def enabled(self) -> bool:
        return self.capacity_entries > 0

    def get(self, name: str, version: object,
            method: str) -> Optional[CachedResponse]:
        if not self.enabled:
            return None
        key = (name, str(version), method)
        shard = self._shard(name)
        with shard.lock:
            entry = shard.entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            shard.entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def put(self, name: str, version: object, method: str,
            entry: CachedResponse) -> None:
        if not self.enabled:
            return
        key = (name, str(version), method)
        shard = self._shard(name)
        with shard.lock:
            shard.entries[key] = entry
            shard.entries.move_to_end(key)
            shard.by_name.setdefault(name, set()).add(key)
            while len(shard.entries) > shard.capacity:
                evicted, __ = shard.entries.popitem(last=False)
                shard.unindex(evicted)
                self.stats.evictions += 1

    def invalidate(self, name: str, *, broadcast: bool = True) -> int:
        """Drop every cached rendering of *name*; returns how many.

        The per-name index makes this O(cached versions of *name*)
        rather than a scan of every entry under the lock.
        ``broadcast=False`` marks an invalidation that arrived over the
        cross-worker channel: it is applied but not re-announced."""
        shard = self._shard(name)
        with shard.lock:
            stale = shard.by_name.pop(name, None)
            if stale:
                for key in stale:
                    del shard.entries[key]
                self.stats.invalidations += len(stale)
        if broadcast and self.on_invalidate is not None:
            self.on_invalidate(name)
        return len(stale) if stale else 0

    def clear(self) -> None:
        for shard in self._shards:
            with shard.lock:
                shard.entries.clear()
                shard.by_name.clear()
