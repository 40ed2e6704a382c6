"""The shared test helpers in :mod:`tests.support`."""

import socket

import pytest

from tests.support import free_port, release


def test_a_reserved_port_cannot_be_bound_until_released():
    """The race this closes: a port probed and closed at once could be
    bound by anyone before the server that was told it got there."""
    port = free_port()
    with socket.socket() as other:
        with pytest.raises(OSError):
            other.bind(("127.0.0.1", port))
    release(port)
    with socket.socket() as other:
        other.bind(("127.0.0.1", port))

