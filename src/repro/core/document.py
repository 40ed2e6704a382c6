"""The local-document-graph tuple (paper Figure 2).

Each document a server knows about is one :class:`DocumentRecord`::

    (Name, Location, Size, Hits, LinkTo, LinkFrom, Dirty)

``Name`` is the request path (``/dir/foo.html``) and doubles as the disk
file name.  ``Location`` is the server currently hosting the document.
``LinkTo``/``LinkFrom`` are document names on the same site; ``LinkFrom``
is maintained as the exact transpose of ``LinkTo`` by
:class:`~repro.core.ldg.LocalDocumentGraph`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set


@dataclass(frozen=True)
class Location:
    """A server identity: ``host:port``.

    Server names in the GLT and in ``Location`` fields use this one type so
    comparisons are never string-formatting-sensitive.
    """

    host: str
    port: int

    def __eq__(self, other: object) -> bool:
        # Identity first: a record at home holds the engine's own
        # Location, so the common comparison is decided by ``is``.  The
        # dataclass still derives the hash from (host, port).
        if self is other:
            return True
        if other.__class__ is not Location:
            return NotImplemented
        return self.host == other.host and self.port == other.port

    def __ne__(self, other: object) -> bool:
        # Spelled out so that ``!=`` on the same object is one call too.
        return self is not other and not self == other

    @classmethod
    def parse(cls, text: str) -> "Location":
        host, sep, port_text = text.partition(":")
        if not sep or not host:
            raise ValueError(f"malformed location: {text!r}")
        return cls(host, int(port_text))

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"


@dataclass
class DocumentRecord:
    """One tuple of the local document graph.

    Beyond the paper's seven fields this carries ``entry_point`` (step 2 of
    Algorithm 1 must never migrate well-known entry points), ``embedded_in``
    (names of documents embedding this one as an image/frame, a subset of
    ``link_from``), a ``version`` counter driving validation (section 4.5),
    ``replicas`` for the replication extension, and ``migrated_at``, the
    time the document last left home (``None`` while it is at home).
    """

    name: str
    location: Location
    size: int
    hits: int = 0
    link_to: Set[str] = field(default_factory=set)
    link_from: Set[str] = field(default_factory=set)
    dirty: bool = False

    entry_point: bool = False
    content_type: str = "text/html"
    version: int = 0
    # Strong content digest of the identity body at ``version``
    # (``sha256:<hex>``; "" when never computed).  Anchors bit-rot and
    # in-transit verification — see repro.server.integrity.
    digest: str = ""
    # Recent-window hits, reset each stats interval; Algorithm 1 selects on
    # these so selection tracks the *current* access pattern.
    window_hits: int = 0
    # Extra locations when replication (future work) is enabled.
    replicas: Set[Location] = field(default_factory=set)
    # Set by the LDG when the document leaves home, kept across a holder
    # promotion, reset by a re-migration (T_home counts from it).
    migrated_at: Optional[float] = None

    @property
    def is_html(self) -> bool:
        return self.content_type.startswith("text/html")

    def locations(self) -> Set[Location]:
        """Primary location plus replicas."""
        return {self.location} | set(self.replicas)

    def record_hit(self, count: int = 1) -> None:
        self.hits += count
        self.window_hits += count

    def reset_window(self) -> None:
        self.window_hits = 0
