"""HTTP status codes used by the DCWS prototype.

The paper's protocol surface is small: ``200 OK`` for served documents,
``301 Moved Permanently`` for requests reaching a home server after
migration (section 4.4), ``503 Service Unavailable`` for graceful request
dropping when the socket queue overflows (section 5.2), plus the usual
``404`` and ``400`` for robustness.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Dict


class StatusCode(IntEnum):
    """The status codes the DCWS servers and clients understand."""

    OK = 200
    PARTIAL_CONTENT = 206
    MOVED_PERMANENTLY = 301
    FOUND = 302
    NOT_MODIFIED = 304
    BAD_REQUEST = 400
    FORBIDDEN = 403
    NOT_FOUND = 404
    REQUEST_TIMEOUT = 408
    RANGE_NOT_SATISFIABLE = 416
    INTERNAL_SERVER_ERROR = 500
    NOT_IMPLEMENTED = 501
    BAD_GATEWAY = 502
    SERVICE_UNAVAILABLE = 503


STATUS_REASONS: Dict[int, str] = {
    StatusCode.OK: "OK",
    StatusCode.PARTIAL_CONTENT: "Partial Content",
    StatusCode.MOVED_PERMANENTLY: "Moved Permanently",
    StatusCode.FOUND: "Found",
    StatusCode.NOT_MODIFIED: "Not Modified",
    StatusCode.BAD_REQUEST: "Bad Request",
    StatusCode.FORBIDDEN: "Forbidden",
    StatusCode.NOT_FOUND: "Not Found",
    StatusCode.REQUEST_TIMEOUT: "Request Timeout",
    StatusCode.RANGE_NOT_SATISFIABLE: "Range Not Satisfiable",
    StatusCode.INTERNAL_SERVER_ERROR: "Internal Server Error",
    StatusCode.NOT_IMPLEMENTED: "Not Implemented",
    StatusCode.BAD_GATEWAY: "Bad Gateway",
    StatusCode.SERVICE_UNAVAILABLE: "Service Unavailable",
}


def reason_phrase(code: int) -> str:
    """Return the canonical reason phrase, or ``"Unknown"``."""
    return STATUS_REASONS.get(code, "Unknown")

