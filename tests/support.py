"""Helpers shared by the test modules.

``free_port`` reserves a loopback port for a server that must know its
port before it starts (a peer list, a restart on the same port, a
subprocess).  Binding port 0 and closing the probe would leave a window
in which another process — a parallel test run — takes the number before
the server binds it.  So the probe stays bound, with ``SO_REUSEADDR``
and without listening, until the test ends: a plain ``bind`` elsewhere
fails and the kernel hands the number to nobody else, while this
project's servers, which listen with ``SO_REUSEADDR``, may bind it
beside the probe.  ``tests/conftest.py`` releases every reservation
when its test finishes; by then the server has long been listening.

``parse_request`` parses one complete serialized request the way the
servers do, through :class:`repro.http.wire.RequestParser`.
"""

from __future__ import annotations

import socket
from typing import Dict

from repro.errors import HTTPError
from repro.http.messages import Request
from repro.http.wire import RequestParser

_reserved: Dict[int, socket.socket] = {}


def free_port() -> int:
    """A loopback port held for this process until :func:`release`."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    _reserved[port] = probe
    return port


def release(port: int) -> None:
    """Give *port*'s reservation up (a no-op when none is held)."""
    probe = _reserved.pop(port, None)
    if probe is not None:
        probe.close()


def release_all() -> None:
    for port in list(_reserved):
        release(port)


def parse_request(data: bytes) -> Request:
    """The one complete request in *data*; :class:`HTTPError` when the
    bytes are malformed or end before the request does."""
    parser = RequestParser()
    parser.feed(data)
    parser.feed_eof()
    request = parser.next_request()
    if request is None:
        raise HTTPError("no request in the bytes")
    return request
