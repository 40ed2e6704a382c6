"""The benchmark's client-side cache (paper section 5.2).

Web browsers keep a client-side cache that significantly reduces temporal
locality of server-visible requests.  The custom benchmark simulates this
with a cache maintained for the duration of each access sequence (1–25
document requests) and reset between sequences.  Two real-world effects the
paper calls out: hot images linked from many pages hit the server less, and
stale hyperlinks cached client-side generate 301 redirects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class ClientCache:
    """URL-keyed cache of fetched resources for one browse sequence.

    Keys are full URL strings (location-sensitive: the same document at its
    home and at a co-op are distinct cache entries, exactly as a browser
    sees them).  Values carry the response body size and the document's
    outgoing links so a cached page can still be navigated.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, Tuple[int, List[str]]] = {}

    def lookup(self, url: str) -> Optional[Tuple[int, List[str]]]:
        """Return ``(size, links)`` or ``None``."""
        return self._entries.get(url)

    def store(self, url: str, size: int, links: List[str]) -> None:
        self._entries[url] = (size, list(links))

    def __contains__(self, url: object) -> bool:
        return url in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def reset(self) -> None:
        """Called between sequences ("reset cache", Algorithm 2)."""
        self._entries.clear()


@dataclass
class ValidatorEntry:
    """What a browser's disk cache remembers about one URL: the
    validators to revalidate with and enough of the entity (size, parsed
    links) to reuse the stored copy on a 304."""

    etag: str = ""
    last_modified: str = ""
    size: int = 0
    links: List[str] = field(default_factory=list)
    images: List[str] = field(default_factory=list)


class ValidatorCache:
    """Browser-style validator store, persistent *across* sequences.

    :class:`ClientCache` models the per-sequence memory cache Algorithm 2
    resets; this models the disk cache that survives the reset — entries
    are never served without revalidation, but a revalidation that comes
    back 304 costs validator headers instead of the entity bytes.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, ValidatorEntry] = {}
        self.revalidations = 0   # conditional requests sent
        self.not_modified = 0    # of those, answered 304

    def entry(self, url: str) -> Optional[ValidatorEntry]:
        return self._entries.get(url)

    def store(self, url: str, *, etag: str = "", last_modified: str = "",
              size: int = 0, links: Optional[List[str]] = None,
              images: Optional[List[str]] = None) -> None:
        if not etag and not last_modified:
            return  # nothing to revalidate with
        self._entries[url] = ValidatorEntry(
            etag=etag, last_modified=last_modified, size=size,
            links=list(links or []), images=list(images or []))

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
