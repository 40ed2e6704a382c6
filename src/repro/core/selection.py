"""Algorithm 1: Document Selection for Migration (paper Figure 4).

Given a home server's local document graph and a hit threshold ``T``:

1. Candidate set C = all documents in the graph.
2. Remove well-known entry points; if C is empty, return nil.
3. Remove documents with load below T; if that empties C, restore it and
   retry with a reduced T until non-empty.
4. Among C, keep the documents pointed to by a minimal number of LinkFrom
   documents that do not reside on the home server.
5. If several remain, pick one pointing to a minimal number of LinkTo
   documents.

Step 3 ensures migrations are worth their cost; step 4 minimizes network
traffic for regenerating referrers hosted remotely; step 5 keeps the
migrated document itself cheap to keep consistent.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.document import DocumentRecord
from repro.core.ldg import LocalDocumentGraph

#: Step 3's retry: the factor by which T shrinks while it empties C.
THRESHOLD_REDUCTION_FACTOR = 0.5


def eligible_candidates(
    graph: LocalDocumentGraph,
    threshold: float,
    *,
    protect_entry_points: bool = True,
) -> List[DocumentRecord]:
    """Steps 1-3 of Algorithm 1: the candidate set after entry-point and
    threshold filtering.

    ``protect_entry_points=False`` skips step 2 — an ablation knob used to
    quantify the entry-points hypothesis (section 3.1), never the default.
    """
    # Step 1 (restricted to home-resident documents) and step 2.
    candidates = [record for record in graph.documents()
                  if record.location == graph.home
                  and (not protect_entry_points or not record.entry_point)]
    if not candidates:
        return []

    # Step 3, with threshold reduction.  A document with zero recent hits
    # "does not do much good for load balancing", so zero-hit documents are
    # never selected no matter how far the threshold falls.
    candidates = [record for record in candidates if record.window_hits > 0]
    if not candidates:
        return []
    effective = threshold
    while effective > 1.0:
        filtered = [r for r in candidates if r.window_hits >= effective]
        if filtered:
            candidates = filtered
            break
        effective *= THRESHOLD_REDUCTION_FACTOR
    return candidates


def select_documents_for_migration(
    graph: LocalDocumentGraph,
    threshold: float,
    *,
    count: int = 1,
    protect_entry_points: bool = True,
) -> List[DocumentRecord]:
    """Run Algorithm 1 and return up to *count* documents to migrate.

    Only documents currently at home are candidates (a document already on
    a co-op cannot be migrated again by its home; re-migration goes through
    revocation first).  Load is the recent-window hit count.  Returns an
    empty list when the graph holds nothing but entry points or already-
    migrated documents.
    """
    candidates = eligible_candidates(
        graph, threshold, protect_entry_points=protect_entry_points)
    if not candidates:
        return []

    selected: List[DocumentRecord] = []
    remaining = list(candidates)
    for _ in range(max(1, count)):
        choice = _select_one(graph, remaining)
        if choice is None:
            break
        selected.append(choice)
        remaining = [r for r in remaining if r.name != choice.name]
    return selected


def _select_one(graph: LocalDocumentGraph,
                candidates: List[DocumentRecord]) -> Optional[DocumentRecord]:
    if not candidates:
        return None
    # Step 4: minimal count of remote LinkFrom referrers.
    remote_counts = {r.name: graph.remote_linkfrom_count(r.name)
                     for r in candidates}
    minimum_remote = min(remote_counts.values())
    step4 = [r for r in candidates if remote_counts[r.name] == minimum_remote]
    if len(step4) == 1:
        return step4[0]
    # Step 5: minimal LinkTo fan-out; remaining ties break toward the
    # hottest document (best balancing effect), then by name (determinism).
    minimum_fanout = min(len(r.link_to) for r in step4)
    step5 = [r for r in step4 if len(r.link_to) == minimum_fanout]
    step5.sort(key=lambda r: (-r.window_hits, r.name))
    return step5[0]
