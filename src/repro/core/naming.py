"""The migrated-document naming convention (paper section 3.4).

A document ``/dir1/dir2/foo.html`` whose home server is ``h_name:h_port``
is addressed on a co-op server as::

    http://c_name:c_port/~migrate/h_name/h_port/dir1/dir2/foo.html

The co-op recovers the original URL by stripping everything up to and
including the ``~migrate`` component and re-assembling host, port and path
from the following segments.  The encoding is self-describing: co-op
servers need no out-of-band state to know which home server to pull from.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.document import Location
from repro.errors import NamingError
from repro.http.urls import URL, split_path

MIGRATE_MARKER = "~migrate"
_MIGRATE_PREFIX = f"/{MIGRATE_MARKER}/"

# Replication extension: a home server's redirect for a replicated
# document names every live holder (comma-separated ``host:port``) so
# requesters can apply power-of-two-choices — and fail over — without a
# second round trip.  Shared by the engine (writer) and the real client
# (reader); ordinary clients ignore the extension header.
REPLICAS_HEADER = "X-DCWS-Replicas"


def encode_migrated_path(home: Location, path: str) -> str:
    """Encode *path* (on its *home* server) into the co-op request path.

    >>> encode_migrated_path(Location("www.cs.arizona.edu", 80), "/a/foo.html")
    '/~migrate/www.cs.arizona.edu/80/a/foo.html'
    """
    if not path.startswith("/"):
        raise NamingError(f"document path must be absolute: {path!r}")
    if is_migrated_path(path):
        raise NamingError(f"path is already in migrated form: {path!r}")
    return f"/{MIGRATE_MARKER}/{home.host}/{home.port}{path}"


def decode_migrated_path(path: str) -> Tuple[Location, str]:
    """Recover ``(home, original_path)`` from a migrated-form path.

    >>> decode_migrated_path("/~migrate/www.cs.arizona.edu/80/a/foo.html")
    (Location(host='www.cs.arizona.edu', port=80), '/a/foo.html')
    """
    segments = split_path(path)
    if not segments or segments[0] != MIGRATE_MARKER:
        raise NamingError(f"not a migrated-form path: {path!r}")
    if len(segments) < 4:
        raise NamingError(f"migrated-form path too short: {path!r}")
    host = segments[1]
    try:
        port = int(segments[2])
    except ValueError as exc:
        raise NamingError(f"migrated-form path has bad port: {path!r}") from exc
    if not (0 < port < 65536):
        raise NamingError(f"migrated-form path port out of range: {path!r}")
    original = "/" + "/".join(segments[3:])
    return Location(host, port), original


def is_migrated_path(path: str) -> bool:
    """True when *path*'s first component is ``~migrate``."""
    return path.startswith(_MIGRATE_PREFIX)


def migrated_url(coop: Location, home: Location, path: str) -> URL:
    """The full URL a hyperlink is rewritten to after migration.

    This is the exact string embedded into referring documents by the
    rewriter, and the ``Location`` header value of the home server's 301.
    """
    return URL(host=coop.host, port=coop.port,
               path=encode_migrated_path(home, path))


def home_url(home: Location, path: str) -> URL:
    """The original (pre-migration) URL of a document."""
    return URL(host=home.host, port=home.port, path=path)


def _home_fallback(url: URL) -> Optional[URL]:
    """The home URL a migrated-form *url* encodes, or ``None`` when it
    encodes none or names the server *url* already addresses.

    Pull-through naming means the home always holds the permanent copy,
    so a client that cannot reach a co-op re-derives the home URL from
    the path alone and asks there once: the failover both client
    transports (the real socket one and the simulator's) apply.
    """
    try:
        home, original = decode_migrated_path(url.path)
    except NamingError:
        return None
    target = home_url(home, original)
    return None if target.same_server(url) else target
