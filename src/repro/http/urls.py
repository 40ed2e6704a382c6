"""URL parsing, joining, and path utilities.

Implemented from scratch (no :mod:`urllib`) because the DCWS naming
convention (paper section 3.4) needs precise control over every path
component: a migrated document's URL embeds its home server's host and port
as ordinary path segments under ``/~migrate/``.

Only ``http`` URLs are modelled; that is all the 1998 prototype speaks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.errors import URLError

DEFAULT_HTTP_PORT = 80


@dataclass(frozen=True)
class URL:
    """A parsed ``http://host:port/path?query`` URL.

    ``path`` always begins with ``/``.  ``query`` is ``None`` when absent
    (distinct from an empty query string, mirroring the wire form).
    """

    host: str
    port: int = DEFAULT_HTTP_PORT
    path: str = "/"
    query: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.host:
            raise URLError("URL host must be non-empty")
        # Hostnames are case-insensitive (RFC 3986 section 3.2.2); fold at
        # construction time so same_server and dict keys never misroute on
        # mixed-case configs (HOST.example:80 == host.example:80).
        if not self.host.islower():
            object.__setattr__(self, "host", self.host.lower())
        if not (0 < self.port < 65536):
            raise URLError(f"URL port out of range: {self.port}")
        if not self.path.startswith("/"):
            raise URLError(f"URL path must start with '/': {self.path!r}")

    @property
    def authority(self) -> str:
        """``host`` or ``host:port``, omitting the default port."""
        if self.port == DEFAULT_HTTP_PORT:
            return self.host
        return f"{self.host}:{self.port}"

    @property
    def request_target(self) -> str:
        """The path-plus-query form used on the request line."""
        if self.query is None:
            return self.path
        return f"{self.path}?{self.query}"

    def with_path(self, path: str) -> "URL":
        return replace(self, path=path, query=None)

    def same_server(self, other: "URL") -> bool:
        """True when both URLs point at the same host:port."""
        return self.host == other.host and self.port == other.port

    def __str__(self) -> str:
        return f"http://{self.authority}{self.request_target}"


def parse_url(text: str) -> URL:
    """Parse an absolute ``http://`` URL.

    >>> parse_url("http://www.cs.arizona.edu:8080/dcws/index.html")
    URL(host='www.cs.arizona.edu', port=8080, path='/dcws/index.html', query=None)
    """
    scheme = "http://"
    if not text.startswith(scheme):
        raise URLError(f"not an absolute http URL: {text!r}")
    rest = text[len(scheme):]
    if not rest:
        raise URLError(f"URL has no authority: {text!r}")
    slash = rest.find("/")
    if slash < 0:
        authority, path_query = rest, "/"
    else:
        authority, path_query = rest[:slash], rest[slash:]
    host, port = _parse_authority(authority, text)
    path, query = _split_query(path_query)
    return URL(host=host, port=port, path=path, query=query)


def _parse_authority(authority: str, original: str) -> Tuple[str, int]:
    host, sep, port_text = authority.partition(":")
    if not host:
        raise URLError(f"URL has empty host: {original!r}")
    if not sep:
        return host, DEFAULT_HTTP_PORT
    try:
        port = int(port_text)
    except ValueError as exc:
        raise URLError(f"URL has non-numeric port: {original!r}") from exc
    return host, port


def _split_query(path_query: str) -> Tuple[str, Optional[str]]:
    path, sep, query = path_query.partition("?")
    return path, (query if sep else None)


def split_path(path: str) -> List[str]:
    """Split an absolute path into its non-empty segments.

    >>> split_path("/a/b//c/")
    ['a', 'b', 'c']
    """
    if not path.startswith("/"):
        raise URLError(f"split_path requires an absolute path: {path!r}")
    return [segment for segment in path.split("/") if segment]


def normalize_path(path: str) -> str:
    """Resolve ``.`` and ``..`` segments; keep a trailing slash if present.

    ``..`` never escapes the root (matching browser behaviour).
    """
    if not path.startswith("/"):
        raise URLError(f"normalize_path requires an absolute path: {path!r}")
    if "/." not in path and "//" not in path:
        return path  # no empty, "." or ".." segment: nothing to resolve
    stack: List[str] = []
    for segment in path.split("/"):
        if segment in ("", "."):
            continue
        if segment == "..":
            if stack:
                stack.pop()
            continue
        stack.append(segment)
    normalized = "/" + "/".join(stack)
    if path.endswith("/") and normalized != "/":
        normalized += "/"
    return normalized


def join_url(base: URL, reference: str) -> URL:
    """Resolve *reference* (absolute URL, absolute path, or relative path)
    against *base*, the way a browser resolves a hyperlink.

    >>> str(join_url(parse_url("http://a/dir/page.html"), "img/x.gif"))
    'http://a/dir/img/x.gif'
    >>> str(join_url(parse_url("http://a/dir/page.html"), "/top.html"))
    'http://a/top.html'
    """
    if reference.startswith("http://"):
        return parse_url(reference)
    if reference.startswith("//"):
        host, port = _parse_authority(reference[2:].split("/", 1)[0], reference)
        path_start = reference.find("/", 2)
        path_query = reference[path_start:] if path_start >= 0 else "/"
        path, query = _split_query(path_query)
        return URL(host=host, port=port, path=path, query=query)
    if reference.startswith("/"):
        path, query = _split_query(reference)
        return URL(base.host, base.port, normalize_path(path), query)
    # Relative reference: resolve against the base path's directory.
    ref_path, query = _split_query(reference)
    if ref_path == "" and query is not None:
        # Query-only reference ("?page=2"): same document, new query string
        # (RFC 3986 section 5.3).
        return URL(base.host, base.port, base.path, query)
    if ref_path.startswith("#") or ref_path == "":
        # Fragment-only (or empty) references point back at the base document.
        return URL(base.host, base.port, base.path, base.query)
    directory = base.path.rsplit("/", 1)[0]
    combined = normalize_path(f"{directory}/{ref_path}")
    return URL(base.host, base.port, combined, query)


def strip_fragment(reference: str) -> str:
    """Drop a ``#fragment`` suffix from a raw hyperlink reference."""
    return reference.split("#", 1)[0]
