"""Piggybacked load-information extension headers (paper section 3.3).

DCWS servers never open connections just to gossip load: whenever an HTTP
transfer already happens between two servers (a lazy-migration pull, a
validation re-request, or a pinger probe), each side attaches its view of
the global load table as ``X-DCWS-Load`` extension headers.  Standard HTTP
semantics guarantee unknown extension headers are ignored by servers and
clients that do not understand them, so the mechanism is fully compatible
with ordinary web traffic.

Wire format, one header per known server::

    X-DCWS-Load: server=<host:port>; metric=<float>; ts=<float>

``ts`` is the origin server's timestamp for the measurement; receivers merge
with newest-timestamp-wins (:meth:`repro.core.glt.GlobalLoadTable.merge`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from repro.errors import HTTPError
from repro.http.headers import Headers

LOAD_HEADER = "X-DCWS-Load"
SENDER_HEADER = "X-DCWS-Sender"


@dataclass(frozen=True, order=True)
class LoadReport:
    """One server's load measurement at one point in time."""

    server: str
    metric: float
    timestamp: float

    def encode(self) -> str:
        return f"server={self.server}; metric={self.metric:.6g}; ts={self.timestamp:.6f}"

    @classmethod
    def decode(cls, text: str) -> "LoadReport":
        fields = {}
        for part in text.split(";"):
            key, sep, value = part.strip().partition("=")
            if not sep:
                raise HTTPError(f"malformed load report field: {part!r}")
            fields[key.strip()] = value.strip()
        try:
            return cls(server=fields["server"],
                       metric=float(fields["metric"]),
                       timestamp=float(fields["ts"]))
        except (KeyError, ValueError) as exc:
            raise HTTPError(f"malformed load report: {text!r}") from exc


def attach_load_reports(headers: Headers, sender: str,
                        reports: Iterable[LoadReport]) -> None:
    """Attach *sender*'s identity and its load-table snapshot to *headers*."""
    headers.set(SENDER_HEADER, sender)
    headers.remove(LOAD_HEADER)
    for report in reports:
        headers.add(LOAD_HEADER, report.encode())


def extract_load_reports(headers: Headers) -> List[LoadReport]:
    """Parse every piggybacked load report out of *headers*.

    Malformed reports raise :class:`repro.errors.HTTPError`; an absent
    header yields an empty list (plain clients piggyback nothing).
    """
    return [LoadReport.decode(raw) for raw in headers.get_all(LOAD_HEADER)]


def extract_sender(headers: Headers) -> str:
    """Return the ``X-DCWS-Sender`` value, or ``""`` when not a DCWS peer."""
    return headers.facts().sender
