"""DCWS core: the paper's primary contribution.

Data structures and policies for application-level load balancing by
hyperlink rewriting:

- :class:`~repro.core.config.ServerConfig` — the Table 1 parameters;
- :class:`~repro.core.ldg.LocalDocumentGraph` — the per-server document
  graph of ``(Name, Location, Size, Hits, LinkTo, LinkFrom, Dirty)`` tuples;
- :class:`~repro.core.glt.GlobalLoadTable` — each server's best-effort view
  of cluster load, spread by piggybacking;
- :mod:`~repro.core.naming` — the ``~migrate`` URL convention;
- :mod:`~repro.core.selection` — Algorithm 1, document selection;
- :class:`~repro.core.migration.MigrationPolicy` — when/where to migrate,
  rate limits, revocation, optional hot-spot replication (future work §6);
- :class:`~repro.core.membership.MembershipTable` — peer liveness and the
  pinger's dead-peer rule (section 4.5).  The section's timers are rounds
  of the engine's tick (:meth:`repro.server.engine.DCWSEngine.tick`).
"""

from repro.core.config import ServerConfig
from repro.core.document import DocumentRecord, Location
from repro.core.glt import GlobalLoadTable
from repro.core.ldg import LocalDocumentGraph
from repro.core.metrics import LoadMetricKind, ServerMetrics, WindowCounter
from repro.core.migration import MigrationDecision, MigrationPolicy
from repro.core.naming import (
    MIGRATE_MARKER,
    decode_migrated_path,
    encode_migrated_path,
    is_migrated_path,
)
from repro.core.selection import select_documents_for_migration

__all__ = [
    "DocumentRecord",
    "GlobalLoadTable",
    "LoadMetricKind",
    "LocalDocumentGraph",
    "Location",
    "MIGRATE_MARKER",
    "MigrationDecision",
    "MigrationPolicy",
    "ServerConfig",
    "ServerMetrics",
    "WindowCounter",
    "decode_migrated_path",
    "encode_migrated_path",
    "is_migrated_path",
    "select_documents_for_migration",
]
