"""Resource model: serializers, bandwidth, and the calibrated cost model.

Every contended resource — a node's CPU, its NIC egress, the switch
fabric — is a :class:`Serializer`: work reserves an interval on it and the
reservation start is pushed back while the resource is busy.  This is the
classic store-and-forward approximation; it captures saturation and
queueing delay, which is what the paper's scalability shapes depend on,
without per-packet bookkeeping.

Calibration (``CostModel`` defaults) targets the paper's absolute scale on
1998 hardware:

- ``request_cpu`` ≈ 1 ms: a 200 MHz Pentium running 12 worker threads
  peaked around 950 connections/s/server in the paper's LOD runs
  (7150 CPS over 8 servers, 15150 over 16);
- ``reconstruct_cpu`` = 20 ms and ``parse_cpu`` = 3 ms are taken directly
  from section 5.3;
- ``node_bandwidth`` = 100 Mbps switched Ethernet, ``switch_bandwidth`` =
  2.4 Gbps aggregate (section 5.2);
- ``client_overhead`` ≈ 22 ms models the client workstation's share of
  per-request work (the paper saw ~700 CPS per 8-instance client machine,
  i.e. roughly 45 requests/s per simulated client thread).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, TYPE_CHECKING

from repro.errors import SimulationError

if TYPE_CHECKING:
    from repro.faults import FaultPlan


class Serializer:
    """A resource that serves one reservation at a time.

    ``reserve`` returns the interval actually granted; the caller schedules
    its completion event at the returned end time.
    """

    __slots__ = ("name", "_busy_until", "_busy_time")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._busy_until = 0.0
        self._busy_time = 0.0

    def reserve(self, earliest: float, duration: float) -> Tuple[float, float]:
        """Reserve *duration* seconds starting no earlier than *earliest*."""
        if duration < 0:
            raise SimulationError(f"negative duration on {self.name}: {duration}")
        start = max(earliest, self._busy_until)
        end = start + duration
        self._busy_until = end
        self._busy_time += duration
        return start, end

    def busy_until(self) -> float:
        return self._busy_until

    def utilization(self, elapsed: float) -> float:
        """Fraction of [0, elapsed] this resource spent busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self._busy_time / elapsed)


class BandwidthLink(Serializer):
    """A serializer whose reservations are sized in bytes."""

    __slots__ = ("bits_per_second",)

    def __init__(self, bits_per_second: float, name: str = "") -> None:
        super().__init__(name)
        if bits_per_second <= 0:
            raise SimulationError(f"bandwidth must be positive: {bits_per_second}")
        self.bits_per_second = bits_per_second

    def transfer_time(self, nbytes: int) -> float:
        return (nbytes * 8.0) / self.bits_per_second

    def reserve_bytes(self, earliest: float, nbytes: int) -> Tuple[float, float]:
        return self.reserve(earliest, self.transfer_time(nbytes))


@dataclass(frozen=True)
class CostModel:
    """Calibrated timing constants for the simulated testbed."""

    # Server-side CPU costs (seconds).
    request_cpu: float = 0.001       # serve a document (lookup + syscall path)
    # Per-byte CPU for moving the document through the server (disk read,
    # buffer copies): ~20 MB/s on a Pentium-200.  This is what makes
    # large-file workloads CPU-heavier per connection (SBLog's ~400
    # conn/s/server vs LOD's ~950 in the paper).
    cpu_per_byte: float = 5e-8
    redirect_cpu: float = 0.0003     # 301: no disk fetch (section 4.4)
    error_cpu: float = 0.0002        # 404/400/503 generation
    reconstruct_cpu: float = 0.020   # parse + rewrite + regenerate (section 5.3)
    parse_cpu: float = 0.003         # parse without regeneration (section 5.3)
    # Link-template splice reconstruction: replacement URLs are spliced
    # into the document's canonical bytes without re-parsing, so a dirty
    # document costs a memory copy instead of the full 20 ms round trip.
    # Calibrated from two BENCHMARK.json layer metrics,
    # html.template.splice_us against html.parser.index_us (80 vs
    # 608 us on browse_mix pages, 318 vs 1,993 us on SBLog's).
    splice_cpu: float = 0.002

    # Network.
    node_bandwidth: float = 100e6    # bits/s per workstation NIC
    switch_bandwidth: float = 2.4e9  # bits/s aggregate through the switch
    link_latency: float = 0.0005     # one-way propagation + stack, seconds
    connection_overhead_bytes: int = 400   # TCP setup/teardown packets
    request_bytes: int = 240         # typical GET head on the wire
    # Persistent connections: when True, requests reuse established
    # channels (the real server's keep-alive front-end and pooled
    # server-to-server channels), so each request pays only the per-
    # exchange framing/ACK overhead instead of full setup/teardown.
    keep_alive: bool = False
    keepalive_overhead_bytes: int = 40     # ACKs + header growth per reuse

    # Client-side.
    client_overhead: float = 0.022   # per-request client work (main thread)
    image_helpers: int = 4           # parallel image fetch threads
    request_timeout: float = 4.0     # deadline for declaring a peer dead
    # 503 exponential backoff (section 5.2): 1 s, 2 s, 4 s, ... capped.
    # Benchmarks compress these together with the Table 1 intervals.
    backoff_base: float = 1.0
    backoff_ceiling: float = 64.0

    def effective_connection_overhead(self) -> int:
        """Per-request wire overhead under the current connection model."""
        if self.keep_alive:
            return self.keepalive_overhead_bytes
        return self.connection_overhead_bytes

    def cpu_cost(self, *, redirected: bool = False, error: bool = False,
                 reconstructed: bool = False, spliced: bool = False,
                 body_bytes: int = 0) -> float:
        """Total CPU charge for one served request.

        ``spliced`` qualifies a reconstruction as the link-template fast
        path, charged ``splice_cpu`` instead of ``reconstruct_cpu``.
        """
        if error:
            return self.error_cpu
        if redirected:
            return self.redirect_cpu
        cost = self.request_cpu + body_bytes * self.cpu_per_byte
        if reconstructed:
            cost += self.splice_cpu if spliced else self.reconstruct_cpu
        return cost


#: The default, paper-calibrated cost model.
PAPER_COSTS = CostModel()


class FaultyTransport:
    """Adapter between a :class:`repro.faults.FaultPlan` and virtual time.

    The simulator has no sockets to refuse or reset, so an injected fault
    becomes *when the sender observes failure*: refused/reset/truncated
    transfers fail after one link latency (the peer answered the attempt
    immediately), a blackholed peer burns the full request timeout (the
    partition swallows the packets), and a delay stretches the transfer.
    One consult per transfer in connect-then-exchange order, mirroring the
    real socket path, so a seed's schedule lines up across transports.
    """

    def __init__(self, plan: "FaultPlan", *, request_timeout: float,
                 link_latency: float) -> None:
        self.plan = plan
        self.request_timeout = request_timeout
        self.link_latency = link_latency

    def intercept(self, peer: str) -> Tuple[Optional[float], float]:
        """Consult the plan for one transfer toward *peer*.

        Returns ``(fail_after, extra_delay)``: ``fail_after=None`` lets
        the transfer proceed (``extra_delay`` added to its latency);
        otherwise the sender must observe failure after ``fail_after``
        virtual seconds.
        """
        event = self.plan.decide("connect", peer)
        if event is None:
            event = self.plan.decide("exchange", peer)
        if event is None:
            return None, 0.0
        if event.kind == "delay":
            return None, event.delay
        if event.kind == "corrupt":
            # Silent corruption: the transfer proceeds — the simulator
            # moves no real bytes, but consuming the event here keeps the
            # seeded schedule (and flip offsets) aligned with the socket
            # transports.
            return None, 0.0
        if event.kind == "blackhole":
            return self.request_timeout, 0.0
        return self.link_latency, 0.0

    # ------------------------------------------------------------------
    # Runtime partition control (membership/rediscovery chaos scenarios)
    # ------------------------------------------------------------------

    def partition(self, peer: str) -> None:
        """Blackhole every subsequent transfer toward *peer*.

        Note the plan is *this host's outbound* view: a bidirectional
        partition (the shape that exercises false-death rediscovery,
        since the victim must also stop gossiping back) needs
        ``partition`` called on both sides' transports.
        """
        self.plan.block(peer)

    def heal(self, peer: str) -> None:
        """Lift the partition toward *peer*; the rediscovery daemon's
        next re-probe then succeeds and triggers rejoin reconciliation."""
        self.plan.unblock(peer)
