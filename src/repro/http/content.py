"""Serve-path content negotiation: validators, gzip variants, byte ranges.

The versioned serve path makes real HTTP validators nearly free: every
(name, version) pair identifies one immutable rendering, so an ``ETag``
derived from it — and a ``Last-Modified`` date derived from the version
counter — lets clients revalidate with ``If-None-Match`` /
``If-Modified-Since`` and be answered 304 without a single document-store
read.  This module holds the pure functions behind that scheme, plus gzip
negotiation (``Accept-Encoding`` / ``Vary``) and single-range ``Range``
parsing, shared by the engine and the real client.

Validator derivation is deterministic: ``Last-Modified`` maps version *n*
to ``DCWS_EPOCH + n`` seconds, so dates are monotonic in versions, stable
across restarts, and need no wall clock (the engine's time is an explicit
``now`` argument; a wall-clock header would leak real time into otherwise
deterministic tests and simulations).
"""

from __future__ import annotations

import gzip as _gzip
import hashlib
import zlib
from email.utils import formatdate, parsedate_to_datetime
from typing import Optional, Tuple

from repro.http.headers import Headers

#: Header carrying the strong content digest of the *identity* body on
#: every inter-server and client-facing 200 response.  Receivers verify
#: the decoded (identity) bytes against it; partial (206) responses never
#: carry it because the digest covers the whole entity.
DIGEST_HEADER = "X-DCWS-Digest"

#: Header a co-op attaches when notifying the home that its hosted copy
#: was quarantined (scrub or serve-path mismatch) — the home drops the
#: holder and re-replicates from a verified copy.
QUARANTINE_HEADER = "X-DCWS-Quarantined"

#: 1999-01-01T00:00:00Z — the paper's era, and version 0's Last-Modified.
DCWS_EPOCH = 915148800

#: Entities smaller than this are never worth a gzip member's overhead.
GZIP_MIN_BYTES = 256

#: Content types worth compressing (HTML-heavy datasets dominate; images
#: and other already-compressed media are left alone).
_COMPRESSIBLE_PREFIXES = ("text/",)
_COMPRESSIBLE_TYPES = frozenset({
    "application/json",
    "application/javascript",
    "application/xml",
    "application/xhtml+xml",
    "image/svg+xml",
})

#: Sentinel returned by :func:`parse_range` when the range is syntactically
#: valid but lies wholly outside the entity (RFC 7233: answer 416).
RANGE_UNSATISFIABLE = object()


# ----------------------------------------------------------------------
# Content digests (end-to-end integrity)
# ----------------------------------------------------------------------

def body_digest(data: bytes) -> str:
    """The strong content digest of an identity body.

    ``sha256:<hex>`` — self-describing so the algorithm can rotate without
    ambiguity in journals and snapshots.  The digest always covers the
    *identity* (uncompressed) bytes; gzip variants and range slices are
    derived renderings of the same entity and share its digest.
    """
    return "sha256:" + hashlib.sha256(data).hexdigest()


def digest_matches(data: bytes, digest: str) -> bool:
    """Do *data*'s bytes hash to *digest*?  Unknown digest schemes (a
    future algorithm rotation talking to an old node) verify as True —
    integrity checking must fail open across versions, not reject every
    body."""
    if not digest:
        return True
    scheme, _, expected = digest.partition(":")
    if scheme != "sha256" or not expected:
        return True
    return hashlib.sha256(data).hexdigest() == expected


# ----------------------------------------------------------------------
# Validators: ETag and Last-Modified from (name, version)
# ----------------------------------------------------------------------

def version_timestamp(version: object) -> int:
    """Map a version counter to a deterministic Unix timestamp."""
    text = str(version)
    if text.isdigit():
        return DCWS_EPOCH + int(text)
    # Foreign version strings (a co-op echoing a home's opaque version)
    # still get a stable, collision-resistant date.
    return DCWS_EPOCH + zlib.crc32(text.encode("utf-8")) % 1_000_000

def http_date(timestamp: float) -> str:
    """Render *timestamp* as an IMF-fixdate (``Sun, 06 Nov 1994 ...``)."""
    return formatdate(timestamp, usegmt=True)


def parse_http_date(text: str) -> Optional[float]:
    """Parse an HTTP date to a Unix timestamp; ``None`` when malformed."""
    if not text:
        return None
    try:
        parsed = parsedate_to_datetime(text)
    except (TypeError, ValueError, IndexError):
        return None
    if parsed is None:
        return None
    try:
        return parsed.timestamp()
    except (OverflowError, OSError, ValueError):
        return None


def last_modified_for(version: object) -> str:
    """The ``Last-Modified`` value of a document at *version*."""
    return http_date(version_timestamp(version))


def etag_for(name: str, version: object) -> str:
    """A strong ``ETag`` for one rendering of *name* at *version*."""
    return '"{:08x}-{}"'.format(zlib.crc32(name.encode("utf-8")), version)


def etag_matches(header_value: str, etag: str) -> bool:
    """Does an ``If-None-Match`` value match *etag*?

    Handles the ``*`` wildcard and comma-separated candidate lists; the
    weak-comparison rule applies (``W/`` prefixes are ignored), which is
    correct for cache revalidation per RFC 7232 section 3.2.
    """
    for candidate in header_value.split(","):
        candidate = candidate.strip()
        if candidate == "*":
            return True
        if candidate.startswith("W/"):
            candidate = candidate[2:]
        if candidate == etag:
            return True
    return False


def not_modified(headers: Headers, etag: str, last_modified: str) -> bool:
    """Do the request's conditional headers validate this rendering?

    ``If-None-Match`` takes precedence over ``If-Modified-Since`` when
    both are present (RFC 7232 section 6).
    """
    if_none_match = headers.get("If-None-Match")
    if if_none_match is not None:
        return bool(etag) and etag_matches(if_none_match, etag)
    if_modified_since = headers.get("If-Modified-Since")
    if if_modified_since and last_modified:
        entity_time = parse_http_date(last_modified)
        request_time = parse_http_date(if_modified_since)
        if entity_time is not None and request_time is not None:
            return entity_time <= request_time
    return False


# ----------------------------------------------------------------------
# gzip negotiation
# ----------------------------------------------------------------------

def compressible(content_type: str) -> bool:
    """Is an entity of *content_type* worth compressing?"""
    base = content_type.split(";", 1)[0].strip().lower()
    return base.startswith(_COMPRESSIBLE_PREFIXES) \
        or base in _COMPRESSIBLE_TYPES


def gzip_bytes(data: bytes) -> bytes:
    """Compress *data* deterministically (fixed mtime, so the same entity
    always yields the same wire bytes — cache- and test-friendly)."""
    return _gzip.compress(data, compresslevel=6, mtime=0)


def gunzip_bytes(data: bytes) -> bytes:
    """Decompress one gzip member (raises ``OSError`` subclasses on
    corruption, which callers treat as a framing error)."""
    return _gzip.decompress(data)


def maybe_gzip(data: bytes, content_type: str) -> Optional[bytes]:
    """The compressed variant to store alongside an identity body.

    ``None`` when compression is not worthwhile: wrong content type, body
    below the size floor, or gzip failing to actually shrink it.
    """
    if len(data) < GZIP_MIN_BYTES or not compressible(content_type):
        return None
    compressed = gzip_bytes(data)
    return compressed if len(compressed) < len(data) else None


def accepts_gzip(headers: Headers) -> bool:
    """Does ``Accept-Encoding`` admit a gzip response (q > 0)?  Read off
    the headers' memoised facts."""
    return headers.facts().gzip


# ----------------------------------------------------------------------
# Byte ranges (single range only — the large-object resume case)
# ----------------------------------------------------------------------

def parse_range(value: str, size: int):
    """Interpret a ``Range`` header against an entity of *size* bytes.

    Returns an inclusive ``(start, end)`` pair to serve with 206;
    ``None`` when the header should be ignored and the full entity served
    with 200 (malformed specs, non-byte units, multi-range requests); or
    :data:`RANGE_UNSATISFIABLE` when the spec is valid but selects nothing
    (answer 416 with ``Content-Range: bytes */size``).
    """
    if not value.startswith("bytes="):
        return None
    spec = value[len("bytes="):].strip()
    if not spec or "," in spec:
        # Multi-range replies need multipart framing; the prototype keeps
        # to the single-range resume case and serves the rest as 200.
        return None
    first, sep, last = spec.partition("-")
    if not sep:
        return None
    first, last = first.strip(), last.strip()
    if not first:
        # Suffix form: the final N bytes of the entity.
        if not last.isdigit():
            return None
        suffix = int(last)
        if suffix == 0 or size == 0:
            return RANGE_UNSATISFIABLE
        return (max(0, size - suffix), size - 1)
    if not first.isdigit():
        return None
    start = int(first)
    if start >= size:
        return RANGE_UNSATISFIABLE
    if not last:
        return (start, size - 1)
    if not last.isdigit():
        return None
    end = int(last)
    if end < start:
        return None
    return (start, min(end, size - 1))


def content_range(span: Tuple[int, int], size: int) -> str:
    """The ``Content-Range`` value for a satisfied single range."""
    return f"bytes {span[0]}-{span[1]}/{size}"
