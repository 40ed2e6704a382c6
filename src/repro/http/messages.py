"""HTTP request and response messages with wire (de)serialization.

These objects are shared verbatim between the real socket server
(:mod:`repro.server.threaded`) and the discrete-event simulator
(:mod:`repro.sim`): the simulator constructs the same :class:`Request` and
:class:`Response` values it would have read off a socket, so the DCWS engine
cannot tell which transport it is running on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Tuple

from repro.errors import HTTPError, InvalidContentLength
from repro.http.headers import Headers
from repro.http.status import StatusCode, reason_phrase
from repro.http.urls import normalize_path

SUPPORTED_METHODS = ("GET", "HEAD", "POST")
SUPPORTED_VERSIONS = ("HTTP/1.0", "HTTP/1.1")


@dataclass
class Request:
    """An HTTP request as the DCWS front-end sees it.

    ``target`` is the origin-form request target (``/path?query``).
    ``body`` is kept as bytes; the prototype only ever uses empty bodies.
    """

    method: str
    target: str
    headers: Headers = field(default_factory=Headers)
    version: str = "HTTP/1.0"
    body: bytes = b""
    #: ``(target, its normalised path)`` — :attr:`route`'s memo, no field.
    _route = ("", "")

    def __post_init__(self) -> None:
        if self.method not in SUPPORTED_METHODS:
            raise HTTPError(f"unsupported method: {self.method!r}")
        if self.version not in SUPPORTED_VERSIONS:
            raise HTTPError(f"unsupported HTTP version: {self.version!r}")
        if not self.target.startswith("/"):
            raise HTTPError(f"request target must be origin-form: {self.target!r}")

    @property
    def path(self) -> str:
        """The target without its query string."""
        return self.target.split("?", 1)[0]

    @property
    def route(self) -> str:
        """:attr:`path` with ``.`` and ``..`` resolved — what the engine
        looks a document up by — worked out once per ``target``."""
        target, route = self._route
        if target is not self.target:
            route = normalize_path(self.path)
            self._route = (self.target, route)
        return route

    def serialize(self) -> bytes:
        """Render the request in wire form."""
        headers = self.headers
        if self.body and "content-length" not in headers:
            headers = headers.copy()
            headers.set("Content-Length", str(len(self.body)))
        start = f"{self.method} {self.target} {self.version}\r\n"
        return b"".join((start.encode("latin-1"), headers.serialize_bytes(),
                         b"\r\n", self.body))


@lru_cache(maxsize=64)
def _status_line(version: str, status: int) -> bytes:
    """The status line, rendered once per ``(version, status)``."""
    return f"{version} {status} {reason_phrase(status)}\r\n".encode("latin-1")


@dataclass(frozen=True)
class FileBody:
    """A response body that still lives on disk.

    Attached by the engine when a front end opted into ``os.sendfile``
    delivery of large disk-backed documents: ``path`` is the on-disk
    file and ``size`` the byte count the response's Content-Length was
    computed from.  Front ends without sendfile support (and
    :meth:`Response.serialize`) simply read the file.
    """

    path: str
    size: int


@dataclass
class Response:
    """An HTTP response.

    ``body`` carries the document bytes in real-transport mode.  In
    simulation mode the body may be empty while ``headers`` still carry the
    byte count the transport should account for (see
    :class:`repro.sim.simserver.SimServer`).  ``body_file`` (exclusive
    with a non-empty ``body``) defers large disk-backed bodies to the
    transport — ``socket.sendfile`` on the threaded front end.
    """

    status: int
    headers: Headers = field(default_factory=Headers)
    body: bytes = b""
    version: str = "HTTP/1.0"
    body_file: Optional[FileBody] = None

    @property
    def reason(self) -> str:
        return reason_phrase(self.status)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def body_length(self) -> int:
        """Byte count of the entity this response will put on the wire."""
        if self.body_file is not None and not self.body:
            return self.body_file.size
        return len(self.body)

    def serialize_head(self) -> bytes:
        """Render status line + headers + blank line, without the body.

        Byte-identical prefix of :meth:`serialize`: front ends writev
        ``[serialize_head(), body]`` so the (possibly large, shared,
        cached) body is never concatenated per request.  The field
        block is the headers' own memoised rendering; they are copied
        only when a ``Content-Length`` has to be synthesised.
        """
        headers = self.headers
        if not headers.facts().framed:
            headers = headers.copy()
            headers.set("Content-Length", str(self.body_length()))
        return b"".join((_status_line(self.version, self.status),
                         headers.serialize_bytes(), b"\r\n"))

    def serialize(self) -> bytes:
        """Render the response in wire form (always with Content-Length)."""
        body = self.body
        if self.body_file is not None and not body:
            with open(self.body_file.path, "rb") as handle:
                body = handle.read()
        return self.serialize_head() + body


def wants_keep_alive(version: str, headers: Headers) -> bool:
    """Persistent-connection semantics for one message.

    HTTP/1.1 defaults to persistent unless ``Connection: close``;
    HTTP/1.0 defaults to one-shot unless ``Connection: keep-alive``
    (the de-facto extension the 1998 prototype's era browsers spoke).
    Any ``close`` wins over any ``keep-alive`` (read off the memoised facts).
    """
    facts = headers.facts()
    return not facts.close and (facts.keep_alive or version == "HTTP/1.1")


def request_wants_keep_alive(request: Request) -> bool:
    """Does *request* ask for the connection to stay open afterwards?"""
    return wants_keep_alive(request.version, request.headers)


def response_allows_keep_alive(response: Response) -> bool:
    """Does *response* permit reusing the connection afterwards?"""
    return wants_keep_alive(response.version, response.headers)


def _split_head(data: bytes) -> Tuple[str, bytes]:
    separator = data.find(b"\r\n\r\n")
    if separator < 0:
        raise HTTPError("message head not terminated by blank line")
    head = data[:separator].decode("latin-1")
    body = data[separator + 4:]
    return head, body


def validated_content_length(headers: Headers) -> int:
    """The request's body length per RFC 7230 section 3.3.2, strictly.

    Raises :class:`~repro.errors.HTTPError` for multiple *differing*
    ``Content-Length`` fields (the classic smuggling vector — ``get``
    would silently return the first); repeated identical values collapse
    to one.  Raises :class:`~repro.errors.InvalidContentLength` for any
    value that is not a plain ASCII-digit integer (negative, signed,
    padded, or underscored values frame no body at all).
    """
    values = headers.get_all("content-length")
    if not values:
        return 0
    if len(set(values)) > 1:
        raise HTTPError(f"conflicting Content-Length fields: {values!r}")
    raw = values[0]
    if not (raw.isascii() and raw.isdigit()):
        raise InvalidContentLength(f"invalid Content-Length: {raw!r}")
    return int(raw)


def parse_request_head(head: str) -> Tuple[Request, int]:
    """Parse a request head — request line and fields, the blank line
    already cut off — into a body-less :class:`Request` and the body
    length its ``Content-Length`` frames.

    The one head parser under :func:`parse_request` and
    :meth:`repro.http.wire.RequestParser.next_request`, so both raise
    the same exceptions from the same bytes.
    """
    lines = head.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise HTTPError(f"malformed request line: {lines[0]!r}")
    method, target, version = parts
    headers = Headers.parse_lines(lines[1:])
    length = validated_content_length(headers)
    return Request(method=method, target=target, headers=headers,
                   version=version), length


def parse_request(data: bytes) -> Request:
    """Parse a serialized request (head and body must be complete)."""
    head, body = _split_head(data)
    request, length = parse_request_head(head)
    request.body = body[:length]
    return request


def parse_response(data: bytes) -> Response:
    """Parse a serialized response (head and body must be complete)."""
    head, body = _split_head(data)
    lines = head.split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2:
        raise HTTPError(f"malformed status line: {lines[0]!r}")
    version, status_text = parts[0], parts[1]
    try:
        status = int(status_text)
    except ValueError as exc:
        raise HTTPError(f"non-numeric status code: {status_text!r}") from exc
    headers = Headers.parse_lines(lines[1:])
    length = headers.get_int("content-length")
    if length is not None:
        body = body[:length]
    return Response(status=status, headers=headers, body=body, version=version)


def redirect_response(location: str, version: str = "HTTP/1.0",
                      status: int = StatusCode.MOVED_PERMANENTLY) -> Response:
    """Build the redirect a home server sends for a migrated document
    (paper section 4.4).  301 by default; a co-op degrading a failed
    pull sends 302 (the move back to home is not permanent)."""
    headers = Headers()
    headers.set("Location", location)
    body = (f"<html><head><title>{int(status)} Moved</title></head>"
            f"<body>Moved to <a href=\"{location}\">{location}</a></body></html>"
            ).encode("latin-1")
    headers.set("Content-Type", "text/html")
    return Response(status=status, headers=headers,
                    body=body, version=version)


def error_response(status: int, detail: str = "", version: str = "HTTP/1.0") -> Response:
    """Build a minimal HTML error response (404, 503, ...)."""
    reason = reason_phrase(status)
    headers = Headers()
    headers.set("Content-Type", "text/html")
    body = (f"<html><head><title>{status} {reason}</title></head>"
            f"<body><h1>{status} {reason}</h1>{detail}</body></html>"
            ).encode("latin-1")
    return Response(status=status, headers=headers, body=body, version=version)
