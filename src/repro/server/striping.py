"""Striped per-shard locks and the stable document-to-shard map.

- **Striped locks** (:class:`StripedLock`): the PR 2 per-document
  regeneration guard kept one ``threading.Lock`` per *name* in an
  unbounded dict.  Generalized here: ``shard_of(name, n_stripes)`` maps
  every document to one of a fixed set of locks, so unrelated documents
  in different stripes never contend while two writers of the *same*
  document still serialize — and the lock table stops growing with the
  corpus.  The byte and response caches stripe themselves the same way.

These locks guard work that runs *off* the engine lock (the dirty-
document splice, cache stripes).  The engine itself has exactly one
synchronisation rule: every engine call runs under the host's lock.

Shard assignment uses CRC-32 of the document name, *not* ``hash()``:
Python salts string hashes per process, and the multi-process front end
(:mod:`repro.server.multiproc`) needs every worker to agree on which
shard — and therefore which worker — owns a document.
"""

from __future__ import annotations

import threading
import zlib
from contextlib import contextmanager
from typing import Iterator, List

DEFAULT_STRIPES = 16


def shard_of(name: str, stripes: int) -> int:
    """The stripe *name* belongs to — stable across processes and runs."""
    if stripes <= 1:
        return 0
    return zlib.crc32(name.encode("utf-8", "surrogatepass")) % stripes


class StripedLock:
    """A fixed array of locks addressed by document name.

    Replaces the unbounded per-name lock dict: memory is O(stripes),
    and two documents contend only when they hash to the same stripe.
    ``acquire_all`` (ordered, deadlock-free) is available for the rare
    whole-table operations.
    """

    def __init__(self, stripes: int = DEFAULT_STRIPES) -> None:
        if stripes < 1:
            raise ValueError("stripes must be >= 1")
        self.stripes = stripes
        self._locks: List[threading.Lock] = [
            threading.Lock() for __ in range(stripes)]

    def lock_for(self, name: str) -> threading.Lock:
        return self._locks[shard_of(name, self.stripes)]

    @contextmanager
    def holding(self, name: str) -> Iterator[None]:
        lock = self.lock_for(name)
        lock.acquire()
        try:
            yield
        finally:
            lock.release()

    @contextmanager
    def holding_all(self) -> Iterator[None]:
        """Every stripe, acquired in index order (deadlock-free)."""
        for lock in self._locks:
            lock.acquire()
        try:
            yield
        finally:
            for lock in reversed(self._locks):
                lock.release()
