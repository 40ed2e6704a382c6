"""The copy cache: one LRU and one byte budget for every stored copy.

DistCache-style observation: a small cache in front of a distributed
store absorbs the skewed head of web load, and the hot set that matters
is small in count and skewed in size — so the bound is bytes, not
entries.

One :class:`CopyEntry` per store key — a home document's name or a
fetched hosted copy's ``/~migrate/...`` key — holds everything the serve
path makes of that copy's bytes: the identity body, the gzip variant
a GET's fill makes, the validators, the framed 200 blocks per flavour
and the framed 304 blocks.  The entry is stamped with the copy's
``(version, digest)``; a lookup under another stamp misses, and the
fill that follows replaces the entry in place, so a key never holds two
versions and one :meth:`CopyCache.invalidate` reaches everything made
from a copy.

There is no lock here: every caller runs under the host's one engine
lock.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple, ValuesView

from repro.http.content import etag_for, last_modified_for
from repro.http.headers import Headers


@dataclass
class CacheStats:
    """Cumulative counters the cache exposes to stats/admin."""

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


@dataclass(eq=False)
class CopyEntry:
    """One stored copy as the serve path renders it.

    Made by one fill, ``DCWSEngine._serve_copy``, from bytes it has just
    read: ``gzip_body`` is the deflate of ``body`` (``None`` when
    compression is not worthwhile or was not asked for), made only from
    bytes hashed to ``digest`` when a digest exists.  ``methods`` are
    the request methods a fill has been made for: a lookup by any other
    misses, and its fill joins them.  A HEAD fill makes no variant, so
    only a GET fill settles ``gzip_body``.

    ``framed`` and ``not_modified`` are the two memos of finished header
    blocks — a GET's 200 per ``(gzip variant, connection persists)``
    and the 304 per "connection persists".  They are reachable only
    through this entry, so whatever replaces, evicts or invalidates it
    drops them with it.  An entry that is not in the cache (a versionless
    copy's, or the validators :meth:`of` derives for a 304 with nothing
    cached) keeps its memos for the one response that made it.
    """

    version: object        # a home's int, or the str a co-op was handed
    digest: str
    body: bytes
    content_type: str
    etag: str
    last_modified: str
    gzip_body: Optional[bytes] = None
    methods: FrozenSet[str] = frozenset()
    framed: Dict[Tuple[bool, bool], Headers] = field(
        default_factory=dict, repr=False)
    not_modified: Dict[bool, Headers] = field(
        default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        # What the entry costs the budget; its bytes never change.
        self.size = len(self.body) + len(self.gzip_body or b"")

    @classmethod
    def of(cls, key: str, version: object, digest: str) -> "CopyEntry":
        """A body-less entry for *key* at ``(version, digest)``: its
        validators, empty for a versionless hosted copy."""
        versioned = version != ""
        return cls(version, digest, b"", "",
                   etag_for(key, version) if versioned else "",
                   last_modified_for(version) if versioned else "")


class CopyCache:
    """An LRU of :class:`CopyEntry` by store key, bounded by bytes.

    ``budget`` counts identity plus variant bytes; ``budget <= 0``
    switches the cache off (every lookup misses).  A versionless entry,
    or one larger than the whole budget, is not cached.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.used_bytes = 0
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, CopyEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def peek(self, key: str) -> Optional[CopyEntry]:
        """The entry under *key*, whatever its stamp — not booked as a
        lookup and not moved in the LRU order."""
        return self._entries.get(key)

    def entries(self) -> ValuesView[CopyEntry]:
        """Every entry, least recently used first, without booking."""
        return self._entries.values()

    @property
    def variant_bytes(self) -> int:
        return sum(len(entry.gzip_body) for entry in self._entries.values()
                   if entry.gzip_body is not None)

    def get(self, key: str, version: object, method: str,
            digest: Optional[str] = None, *,
            book_miss: bool = True) -> Optional[CopyEntry]:
        """The entry under *key* if it is stamped *version* (and
        *digest*, when given) and filled for *method*, booked as a hit;
        else a miss.  ``book_miss=False`` is for a lookup whose miss the
        caller hands on to one that looks again (the short-circuit's, to
        the slow path's), so that every booked miss is one store read."""
        entry = self._entries.get(key)
        if entry is None or entry.version != version \
                or (digest is not None and entry.digest != digest) \
                or method not in entry.methods:
            if book_miss:
                self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def put(self, key: str, entry: CopyEntry) -> None:
        """Install a fill as *key*'s one entry, replacing whatever it
        held, and evict from the cold end down to the budget."""
        old = self._entries.pop(key, None)
        if old is not None:
            self.used_bytes -= old.size
        if entry.version == "" or entry.size > self.budget \
                or self.budget <= 0:
            return
        self._entries[key] = entry
        self.used_bytes += entry.size
        while self.used_bytes > self.budget:
            __, evicted = self._entries.popitem(last=False)
            self.used_bytes -= evicted.size
            self.stats.evictions += 1

    def invalidate(self, key: str) -> int:
        """Drop *key*'s entry; returns how many entries went (0 or 1)."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return 0
        self.used_bytes -= entry.size
        self.stats.invalidations += 1
        return 1

    def clear(self) -> None:
        self._entries.clear()
        self.used_bytes = 0
