"""Exception hierarchy shared by every subsystem of the DCWS reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch one base class at the API boundary.  Subsystems define narrower types
here rather than in their own modules so that low-level packages (``http``,
``html``) never import higher-level ones.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` library."""


class HTTPError(ReproError):
    """Malformed HTTP message, header, or URL."""


class InvalidContentLength(HTTPError):
    """A ``Content-Length`` value that is not a plain ASCII-digit integer.

    Negative numbers, signs, whitespace, underscores — anything ``int()``
    would tolerate but RFC 7230 section 3.3.2 forbids.  Raised separately
    from the base class because an invalid length frames *no* body bytes:
    a connection-oriented parser can consume exactly the request head,
    answer 400, and keep serving subsequent pipelined requests.
    """


class RecoverableProtocolError(HTTPError):
    """A request-level protocol violation whose bytes were fully consumed.

    Raised by :class:`repro.http.wire.RequestParser` after it has removed
    the offending request from its buffer: the front end should answer
    400 for *this* request and may keep the connection open — the next
    pipelined request still parses from a clean buffer.  Contrast with
    plain :class:`HTTPError`, where framing is unknowable and the only
    safe reaction is to close the connection.
    """


class URLError(HTTPError):
    """A URL could not be parsed, joined, or encoded."""


class DigestMismatch(HTTPError):
    """A response body failed verification against its ``X-DCWS-Digest``.

    The bytes were corrupted in transit or at the sender (bit-rot served
    before the scrubber caught it).  An HTTPError subclass so every
    transport-failure handler (pool retry, pull degradation) treats it as
    a failed exchange — the one divergence is that callers who *know*
    the distinction count it separately (a corrupt answer is still an
    answer: the peer is reachable) and may retry another holder
    immediately.
    """

    def __init__(self, target: str, expected: str, actual: str) -> None:
        super().__init__(
            f"digest mismatch from {target}: expected {expected}, "
            f"got {actual}")
        self.target = target
        self.expected = expected
        self.actual = actual


class HTMLParseError(ReproError):
    """The HTML tokenizer/parser met input it cannot recover from.

    The parser is deliberately lenient (real-world 1998 HTML is messy), so
    this is raised only for conditions that indicate a caller bug, such as
    serializing a foreign object injected into a parse tree.
    """


class DocumentNotFound(ReproError):
    """A requested document name has no tuple in the local document graph."""

    def __init__(self, name: str) -> None:
        super().__init__(f"document not found: {name!r}")
        self.name = name


class MigrationError(ReproError):
    """A document-migration operation violated a policy invariant.

    Examples: migrating a well-known entry point, migrating a document that
    is already hosted by a co-op server, or revoking a document that was
    never migrated.
    """


class NamingError(ReproError):
    """A migrated-document URL does not follow the ``~migrate`` convention."""


class SimulationError(ReproError):
    """The discrete-event simulator detected an inconsistency.

    Raised for programming errors such as scheduling an event in the past or
    running a cluster with no clients; never raised for modelled phenomena
    like dropped requests (those are results, not errors).
    """


class ConfigError(ReproError):
    """A server/benchmark configuration value is out of its valid domain."""
