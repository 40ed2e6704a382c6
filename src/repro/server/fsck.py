"""Engine invariant checker: is this (recovered) engine self-consistent?

Crash recovery (:func:`repro.server.persistence.recover`) promises a
*prefix-consistent* engine: some acknowledged tail of work may be lost,
but what remains must be coherent — no hyperlink pointing at a co-op the
home has forgotten, no hosted entry claiming bytes that are not there.  :func:`check_engine`
verifies exactly that, and the crash/chaos suites run it after every
recovery so "the server came back up" is never mistaken for "the server
came back up *right*".

The eight checked invariants:

1.  entry points are at home whenever the config protects them;
2.  every *fetched* hosted entry is backed by store bytes; unfetched
    entries carry no size/version (they re-pull on demand — never 404);
3.  every document record's bytes exist in the store (a home must be
    able to serve or re-serve everything it owns);
4.  *clean* (not dirty) HTML home documents contain no stale
    migrated-form links: a link rewritten toward a co-op must point at a
    current location of its target — otherwise a crash forgot a
    revocation that the on-disk hyperlinks still remember.  A clean
    HTML document located away from home has no relative link to a
    same-site document either: served from a foreign path, it would
    resolve against the co-op — its relocation forgot to dirty it;
6.  replica sets are well-formed: no replica equals the home location
    or duplicates the primary, every holder of a replicated document is
    a server the GLT still knows, every replicated hosted entry has
    bytes present or is registered unfetched, and every replication
    group tracks a currently migrated document;
7.  membership agreement: no peer the membership table considers dead
    (or forgotten) still holds any document — a dead holder lingering
    in a serving set means repair forgot to drop it, which is exactly
    the "two primaries" hazard the rejoin reconciliation must prevent;
8.  quarantine agreement: no copy the integrity manager has quarantined
    is still in any serve table — a quarantined hosted entry must be
    unfetched (digestless, versionless), and no quarantined key, home
    or hosted, may have a copy-cache entry, or a known-corrupt body
    could reach a client;
9.  copy-cache accounting: the cache's ``used_bytes`` is the sum of its
    entries' sizes and within its budget.

Every check only reads: the copy cache is looked at with ``in`` and
:meth:`~repro.server.cache.CopyCache.entries`, never through a booked
lookup, so running fsck moves no counter and no LRU order.

There is no invariant 5 (validation deadlines now live on the hosted
entries, leaving no second ledger to agree with them); the other
numbers are kept because tests and DESIGN.md cite them.

Violations are strings (path + what is wrong), so test failures read as
a diagnosis rather than a boolean.
"""

from __future__ import annotations

from typing import List

from repro.core.naming import decode_migrated_path, is_migrated_path
from repro.errors import DocumentNotFound, NamingError, ReproError
from repro.html.links import extract_links
from repro.html.parser import parse_html
from repro.http.urls import normalize_path, parse_url, strip_fragment
from repro.server.engine import DCWSEngine


class FsckError(ReproError):
    """Raised by :func:`assert_clean` when an engine fails its fsck."""


def check_engine(engine: DCWSEngine, *,
                 check_links: bool = True) -> List[str]:
    """Every invariant violation found in *engine* (empty = clean).

    ``check_links=False`` skips the parse-every-clean-document pass
    (invariant 4) for callers that only need the cheap structural
    checks.
    """
    violations: List[str] = []
    home = engine.location

    # 1. entry points at home
    if engine.config.protect_entry_points:
        for record in engine.graph.entry_points():
            if record.location != home:
                violations.append(
                    f"entry point {record.name} migrated to "
                    f"{record.location}")

    # 2. hosted entries: fetched ↔ bytes
    for key, entry in engine.hosted.items():
        if entry.fetched:
            if key not in engine.store:
                violations.append(
                    f"hosted entry {key} marked fetched but store has "
                    f"no bytes")
        else:
            if entry.version:
                violations.append(
                    f"unfetched hosted entry {key} carries version "
                    f"{entry.version!r}")

    # 3. every home document's bytes are in the store
    for record in engine.graph.documents():
        if record.name not in engine.store:
            violations.append(
                f"document {record.name} in the graph but its bytes "
                f"are missing from the store")

    # 6. replica invariants
    violations.extend(_check_replicas(engine))

    # 7. membership agreement: dead peers hold nothing
    violations.extend(_check_membership(engine))

    # 8. quarantined copies are out of every serve table
    violations.extend(_check_quarantine(engine))

    # 9. the copy cache's byte accounting
    cache = engine.response_cache
    held = sum(entry.size for entry in cache.entries())
    if cache.used_bytes != held:
        violations.append(
            f"copy cache books {cache.used_bytes} bytes but its entries "
            f"hold {held}")
    if cache.used_bytes > cache.budget:
        violations.append(
            f"copy cache holds {cache.used_bytes} bytes, over its budget "
            f"of {cache.budget}")

    # 4. clean documents carry no stale migrated-form links
    if check_links:
        violations.extend(_check_clean_links(engine))
    return violations


def _check_clean_links(engine: DCWSEngine) -> List[str]:
    """Invariant 4: parse each clean HTML document and verify every
    migrated-form hyperlink of one at home points at a current location
    of its target, and that one away from home links nothing on the
    site relatively."""
    violations: List[str] = []
    home = engine.location
    for record in engine.graph.documents():
        if record.dirty or not record.is_html:
            continue
        try:
            source = engine.store.get(record.name).decode("latin-1")
        except DocumentNotFound:
            continue  # already reported by invariant 3
        # The tree path, not the engine's index_source: the links are
        # derived independently of the code whose results are checked.
        for link in extract_links(parse_html(source)):
            raw = strip_fragment(link.value).strip()
            if not raw:
                continue
            try:
                url = parse_url(raw)
            except Exception:
                # Relative (or malformed): served from a co-op, a
                # relative link resolves against the co-op's path.
                if record.location != home and engine._resolve_to_name(
                        record.name, raw) in engine.graph:
                    violations.append(
                        f"clean document {record.name} at "
                        f"{record.location} links {raw!r} relatively: "
                        f"never regenerated since it moved")
                continue
            path = normalize_path(url.path)
            if record.location != home or not is_migrated_path(path):
                continue
            try:
                link_home, original = decode_migrated_path(path)
            except NamingError:
                continue
            if link_home != home:
                continue  # a link into some other site's migrated space
            target = engine.graph.find(original)
            if target is None:
                violations.append(
                    f"clean document {record.name} links to migrated "
                    f"form of unknown document {original}")
                continue
            link_host = f"{url.host}:{url.port}"
            current = {str(loc) for loc in target.locations()}
            if link_host not in current:
                violations.append(
                    f"clean document {record.name} links {original} at "
                    f"{link_host}, but its current locations are "
                    f"{sorted(current)} (stale rewritten link)")
    return violations


def _check_replicas(engine: DCWSEngine) -> List[str]:
    """Invariant 6: replica sets and replication groups are well-formed."""
    violations: List[str] = []
    home = engine.location
    for record in engine.graph.documents():
        if not record.replicas:
            continue
        if home in record.replicas:
            violations.append(
                f"document {record.name} lists its home {home} as a "
                f"replica")
        if record.location in record.replicas:
            violations.append(
                f"document {record.name} lists its primary "
                f"{record.location} among its replicas")
        if record.location == home:
            violations.append(
                f"document {record.name} is at home but still carries "
                f"replicas {sorted(map(str, record.replicas))}")
    # A hosted (co-op side) copy of a replicated document must either be
    # backed by bytes or registered unfetched (it then re-pulls from the
    # home on demand); an unfetched entry claiming a size would serve a
    # phantom.  Complements invariant 2's fetched-without-bytes check.
    for key, entry in engine.hosted.items():
        if not entry.fetched and entry.size:
            violations.append(
                f"unfetched hosted entry {key} claims size {entry.size}")
    # Every holder of a group-managed document must still be a server
    # the GLT knows (a dead holder must have been dropped by repair, not
    # linger in the serving set), and every group must track a
    # currently migrated document.
    for name in engine.replication.groups:
        record = engine.graph.find(name)
        if record is None or record.location == home:
            violations.append(
                f"replication group for {name} but the document is "
                f"not migrated")
            continue
        for holder in sorted(record.locations(), key=str):
            if holder != home and holder not in engine.glt:
                violations.append(
                    f"document {name} held by {holder}, which the "
                    f"GLT no longer knows")
    return violations


def _check_membership(engine: DCWSEngine) -> List[str]:
    """Invariant 7: no document is held by a peer the membership table
    has declared dead or forgotten.

    ``_declare_dead`` revokes every document from the dying peer in the
    same bracket that journals the membership transition, and rejoin
    reconciliation only re-admits a returning copy as a *replica*; if a
    dead peer still appears among a document's locations, one of those
    paths lost a race — and a healed partition would resurrect a second
    primary."""
    violations: List[str] = []
    membership = getattr(engine, "membership", None)
    if membership is None:
        return violations
    dead = {peer for peer, state in membership.states().items()
            if state in ("dead", "forgotten")}
    if not dead:
        return violations
    for record in engine.graph.documents():
        for holder in sorted(record.locations(), key=str):
            if str(holder) in dead:
                violations.append(
                    f"document {record.name} held by {holder}, which "
                    f"membership declares {membership.state(str(holder))}")
    return violations


def _check_quarantine(engine: DCWSEngine) -> List[str]:
    """Invariant 8: nothing quarantined is servable.

    A quarantined hosted copy must have reverted to unfetched (its bytes
    deleted, version and digest blanked) and no quarantined key may have
    a copy-cache entry — both are the mechanical guarantees behind "zero
    corrupt 200 bodies"."""
    violations: List[str] = []
    integrity = getattr(engine, "integrity", None)
    if integrity is None:
        return violations
    for qrec in integrity.active():
        key = qrec.key
        if key in engine.response_cache:
            violations.append(
                f"quarantined {qrec.kind} copy {key} still has a "
                f"copy-cache entry")
        if qrec.kind == "hosted":
            entry = engine.hosted.get(key)
            if entry is not None and entry.fetched:
                violations.append(
                    f"quarantined hosted entry {key} is still marked "
                    f"fetched (servable)")
            if entry is not None and (entry.version or entry.digest):
                violations.append(
                    f"quarantined hosted entry {key} still carries "
                    f"version/digest state")
    return violations


def assert_clean(engine: DCWSEngine, *, check_links: bool = True) -> None:
    """Raise :class:`FsckError` listing every violation, if any."""
    violations = check_engine(engine, check_links=check_links)
    if violations:
        raise FsckError(
            "engine failed fsck:\n  " + "\n  ".join(violations))
