"""HTTP substrate for the DCWS reproduction.

A small, dependency-free HTTP/1.0-1.1 message layer: case-insensitive
headers, status codes, URL parsing/joining, request/response objects with
wire (de)serialization, and the ``X-DCWS-*`` extension-header codec used to
piggyback global load information on ordinary transfers (paper section 3.3).
"""

from repro.http.headers import Headers
from repro.http.messages import (
    Request,
    Response,
    parse_response,
    response_allows_keep_alive,
)
from repro.http.piggyback import LoadReport, attach_load_reports, extract_load_reports
from repro.http.status import (
    STATUS_REASONS,
    StatusCode,
    reason_phrase,
)
from repro.http.urls import URL, join_url, parse_url, split_path

__all__ = [
    "Headers",
    "LoadReport",
    "Request",
    "Response",
    "STATUS_REASONS",
    "StatusCode",
    "URL",
    "attach_load_reports",
    "extract_load_reports",
    "join_url",
    "parse_response",
    "parse_url",
    "reason_phrase",
    "response_allows_keep_alive",
    "split_path",
]
