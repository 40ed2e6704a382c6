"""Pooled persistent server-to-server HTTP channels.

The 1998 prototype paid full TCP setup/teardown for every inter-server
transfer (lazy pulls, validations, pings).  :class:`ConnectionPool` keeps
one or more keep-alive channels per peer instead: a fetch takes an idle
channel (or opens one), runs a framed request/response exchange on it,
and returns it for the next transfer to the same peer.

Because every pooled exchange is a server-to-server transfer, the
piggybacked ``X-DCWS-Load`` headers ride each reuse for free — channel
reuse directly raises the global-load-table refresh rate (paper
section 3.3) on top of saving the connection overhead.

Health is observed, not probed: a channel that raises ``OSError`` or
misframes a response is evicted on the spot; if it had been idle in the
pool (the peer may simply have timed it out), the exchange is retried
once on a fresh connection.  The retry is restricted to idempotent
methods (GET/HEAD): a non-idempotent request whose exchange failed is
*not* silently replayed — the peer may have executed it before the
channel died — and raises instead.

Whether a fetch should be attempted at all is the caller's question:
the engine asks its peer ledger (:meth:`repro.core.membership.
MembershipTable.admit`) before it emits a transfer.  An optional
:class:`repro.faults.FaultPlan` injects deterministic connect/exchange
faults for the chaos suite.
"""

from __future__ import annotations

import socket
import threading
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core.document import Location
from repro.errors import DigestMismatch, HTTPError
from repro.faults import apply_corruption
from repro.http.content import DIGEST_HEADER, body_digest, digest_matches
from repro.http.messages import Request, Response, response_allows_keep_alive
from repro.client.realclient import read_framed_response

if TYPE_CHECKING:
    from repro.faults import FaultPlan

#: Methods safe to replay once on a fresh connection after a failed
#: exchange on a previously-idle channel.
_IDEMPOTENT_METHODS = ("GET", "HEAD")


class _Channel:
    """One persistent socket plus its read-ahead buffer."""

    __slots__ = ("sock", "buffer", "exchanges", "peer_key")

    def __init__(self, sock: socket.socket, peer_key: str = "") -> None:
        self.sock = sock
        self.buffer = bytearray()
        self.exchanges = 0
        self.peer_key = peer_key

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class ConnectionPool:
    """Bounded per-peer pool of persistent HTTP channels.

    Thread-safe: channels are checked out under a lock and the blocking
    exchange runs outside it, so concurrent workers fetch from the same
    peer over distinct channels.

    Counters (``opens``, ``reuses``, ``evictions``, ``requests``) let
    tests and the admin endpoints assert channel reuse: a healthy pool
    shows ``opens`` far below ``requests``.
    """

    def __init__(self, *, max_per_peer: int = 4,
                 timeout: float = 10.0,
                 faults: "Optional[FaultPlan]" = None) -> None:
        if max_per_peer < 1:
            raise ValueError(f"max_per_peer must be >= 1: {max_per_peer}")
        self.max_per_peer = max_per_peer
        self.timeout = timeout
        # Deterministic fault injection (chaos suite); None in production.
        self.faults = faults
        self._idle: Dict[str, List[_Channel]] = {}
        self._lock = threading.Lock()
        self._closed = False
        self.opens = 0
        self.reuses = 0
        self.evictions = 0
        self.requests = 0
        self.digest_rejects = 0     # bodies failing X-DCWS-Digest checks

    # ------------------------------------------------------------------
    # The one public operation
    # ------------------------------------------------------------------

    def fetch(self, peer: Location, request: Request, *,
              timeout: Optional[float] = None) -> Response:
        """Send *request* to *peer* over a pooled channel; return the
        response.  Raises ``OSError``/``HTTPError`` on peer failure."""
        if timeout is None:
            timeout = self.timeout
        request.headers.set("Connection", "keep-alive")
        key = f"{peer.host}:{peer.port}"
        channel = self._take(key)
        reused = channel is not None
        if channel is None:
            channel = self._open(peer, timeout)
        try:
            response, framed = self._exchange(channel, request, timeout)
        except (OSError, HTTPError) as exc:
            self._evict(channel)
            # A digest mismatch is retry-worthy even on a fresh channel:
            # in-transit corruption is transient, and the request never
            # mutated anything on the peer (GET/HEAD only, below).
            if not (reused or isinstance(exc, DigestMismatch)) \
                    or request.method not in _IDEMPOTENT_METHODS:
                # Fresh-connection failure, or a method the peer may have
                # executed before the channel died: never silently replay.
                raise
            # An idle channel the peer had silently closed: retry once on
            # a fresh connection before declaring the peer unhealthy.
            channel = self._open(peer, timeout)
            try:
                response, framed = self._exchange(channel, request, timeout)
            except (OSError, HTTPError):
                self._evict(channel)
                raise
        if framed and response_allows_keep_alive(response) \
                and not channel.buffer:
            self._give_back(key, channel)
        else:
            channel.close()
        return response

    # ------------------------------------------------------------------

    def _exchange(self, channel: _Channel, request: Request,
                  timeout: float) -> Tuple[Response, bool]:
        corrupt = None
        if self.faults is not None:
            corrupt = self.faults.on_exchange(channel.peer_key)
        channel.sock.settimeout(timeout)
        channel.sock.sendall(request.serialize())
        response, framed = read_framed_response(
            channel.sock, channel.buffer,
            head_request=request.method == "HEAD")
        channel.exchanges += 1
        if corrupt is not None:
            # Injected in-transit corruption (chaos suite): flip after
            # the read so framing succeeds and only verification can
            # tell the body is wrong.
            response.body = apply_corruption(corrupt, response.body)
        self._verify_digest(channel.peer_key, request, response)
        return response, framed

    def _verify_digest(self, key: str, request: Request,
                       response: Response) -> None:
        """Reject a 200 body that fails its ``X-DCWS-Digest``.

        The digest covers the whole identity entity, so only full
        uncompressed 200 bodies are checkable here (inter-server
        transfers are exactly that); encoded or partial responses pass
        through for higher layers to verify after decoding.
        """
        claimed = response.headers.get(DIGEST_HEADER)
        if not claimed or response.status != 200 \
                or request.method == "HEAD" \
                or response.headers.get("Content-Encoding"):
            return
        if not digest_matches(response.body, claimed):
            with self._lock:
                self.digest_rejects += 1
            raise DigestMismatch(key, claimed, body_digest(response.body))

    def _take(self, key: str) -> Optional[_Channel]:
        with self._lock:
            self.requests += 1
            idle = self._idle.get(key)
            if not idle:
                return None
            self.reuses += 1
            return idle.pop()  # LIFO: the most recently warm channel

    def _open(self, peer: Location, timeout: float) -> _Channel:
        key = f"{peer.host}:{peer.port}"
        if self.faults is not None:
            self.faults.on_connect(key)
        sock = socket.create_connection((peer.host, peer.port),
                                        timeout=timeout)
        with self._lock:
            self.opens += 1
        return _Channel(sock, key)

    def _give_back(self, key: str, channel: _Channel) -> None:
        with self._lock:
            if not self._closed:
                idle = self._idle.setdefault(key, [])
                if len(idle) < self.max_per_peer:
                    idle.append(channel)
                    return
        channel.close()

    def _evict(self, channel: _Channel) -> None:
        with self._lock:
            self.evictions += 1
        channel.close()

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close every idle channel and refuse new returns."""
        with self._lock:
            self._closed = True
            channels = [c for idle in self._idle.values() for c in idle]
            self._idle.clear()
        for channel in channels:
            channel.close()

    def idle_count(self) -> int:
        with self._lock:
            return sum(len(idle) for idle in self._idle.values())

    def __enter__(self) -> "ConnectionPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"ConnectionPool(requests={self.requests}, "
                f"opens={self.opens}, reuses={self.reuses}, "
                f"evictions={self.evictions}, idle={self.idle_count()})")
