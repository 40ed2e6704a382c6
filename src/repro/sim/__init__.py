"""Discrete-event cluster simulator.

Substitutes for the paper's testbed (64 Pentium-200 workstations on
100 Mbps switched Ethernet) with a virtual-time model that hosts *real*
:class:`~repro.server.engine.DCWSEngine` instances and a faithful
Algorithm 2 client: every policy decision, hyperlink rewrite, piggybacked
header and 301/503 in a simulated run is produced by the same code the
real socket server runs, down to the serve route
(:func:`repro.server.dispatch.serve`) a client's GET head takes — only
time, queueing and byte transport are modelled.

Model summary (see DESIGN.md for the calibration rationale):

- each server node has one CPU serializer (the prototype's 12 worker
  threads share a single-processor Pentium) and one NIC egress serializer
  (100 Mbps); the switch is a shared 2.4 Gbps aggregate;
- request service costs CPU (per-request parse/lookup, more for a dirty
  regeneration), then transmits the response through the NIC;
- the socket queue holds ``socket_queue_length`` connections; overflow is
  answered 503 by the front-end, and clients back off exponentially;
- clients walk hyperlinks per Algorithm 2 with a per-sequence cache and
  four parallel image helpers.
"""

from repro.sim.cluster import ClusterConfig, SimCluster, SimulationResult
from repro.sim.events import EventLoop
from repro.sim.network import CostModel, Serializer
from repro.sim.simclient import SimClient
from repro.sim.simserver import SimServer

__all__ = [
    "ClusterConfig",
    "CostModel",
    "EventLoop",
    "Serializer",
    "SimClient",
    "SimCluster",
    "SimServer",
    "SimulationResult",
]
