"""The DCWS request engine: transport-independent server behaviour.

One :class:`DCWSEngine` embodies everything a DCWS server does apart from
moving bytes over a network:

- serve local documents, regenerating dirty ones with rewritten hyperlinks
  (paper section 4.3);
- answer requests for documents migrated *away* with a 301 redirect
  (section 4.4);
- act as a co-op server for documents migrated *to* it, pulling the bytes
  from the home server on first use — lazy migration (section 4.2);
- run the periodic machinery: statistics re-calculation and migration
  decisions every T_st, document validation every T_val, pinging every
  T_pi (sections 3.3, 4.5);
- piggyback and merge global-load-table rows on every server-to-server
  transfer (section 3.3).

The engine never sleeps, spawns threads, or opens sockets.  Time is an
explicit ``now`` argument and all outbound communication is returned as
*directives* (:class:`PullFromHome`, :class:`OutboundAction`) that the host
— the real threaded server or the simulator — executes and completes.
This is what lets the benchmarks drive the identical policy code under
virtual time.

The engine is not itself thread-safe, and its whole concurrency contract
is one sentence: every engine call runs under the host's lock (one
``threading.Lock`` in the socket front ends; the simulator is
single-threaded by construction).

A note on the naming convention's pull-through property: a co-op serves
*any* ``/~migrate/h/p/path`` request by pulling from ``h:p``, whether or
not the home server explicitly migrated that document here.  Migrated
documents therefore have their own outgoing links rewritten to absolute
URLs at regeneration time, so relative links inside them cannot silently
turn the co-op into an accidental mirror of the whole site.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING, Union

from repro.core.config import ServerConfig
from repro.core.eventlog import EventLog
from repro.core.document import DocumentRecord, Location
from repro.core.glt import GlobalLoadTable
from repro.core.ldg import LocalDocumentGraph
from repro.core.metrics import ServerMetrics
from repro.core.membership import (
    ALIVE,
    DEAD,
    MembershipTable,
    SUSPECT,
)
from repro.core.migration import MigrationDecision, MigrationPolicy
from repro.core.naming import (
    MIGRATE_MARKER,
    REPLICAS_HEADER,
    decode_migrated_path,
    encode_migrated_path,
    home_url,
    is_migrated_path,
    migrated_url,
)
from repro.errors import DocumentNotFound, HTTPError, NamingError
from repro.http.content import (
    DIGEST_HEADER,
    QUARANTINE_HEADER,
    RANGE_UNSATISFIABLE,
    accepts_gzip,
    body_digest,
    compressible,
    content_range,
    digest_matches,
    maybe_gzip,
    not_modified,
    parse_range,
)
from repro.html.template import LinkTemplate, index_source
from repro.http.headers import Headers
from repro.http.messages import (
    FileBody,
    Request,
    Response,
    error_response,
    redirect_response,
    wants_keep_alive,
)
from repro.http.piggyback import (
    attach_load_reports,
    extract_load_reports,
    extract_sender,
)
from repro.http.status import StatusCode
from repro.http.urls import (
    DEFAULT_HTTP_PORT,
    URL,
    join_url,
    normalize_path,
    strip_fragment,
)
from repro.server.admin import ADMIN_PREFIX, HEALTH_PATH
from repro.server.cache import CopyCache, CopyEntry
from repro.server.filestore import DocumentStore, guess_content_type
from repro.server.integrity import (
    IntegrityManager,
    KIND_HOME,
    KIND_HOSTED,
    REASON_SCRUB,
    REASON_SERVE,
)
from repro.server.replication import ReplicationManager
from repro.server.striping import shard_of

if TYPE_CHECKING:
    from repro.http.wire import ParsedHead
    from repro.server.persistence import RecoveryStats
    from repro.server.wal import WriteAheadJournal

VERSION_HEADER = "X-DCWS-Version"
PURPOSE_HEADER = "X-DCWS-Purpose"
# A co-op piggybacks the hits a hosted document received since the last
# report its home answered; the home credits them to the document's LDG tuple, so
# selection/re-migration/replication see demand that lands on co-ops.
HOSTED_HITS_HEADER = "X-DCWS-Hosted-Hits"
# Rejoin reconciliation: a server answering a ping/probe from a peer
# attaches the (original path, version) manifest of every document it
# still hosts *for that peer*, so a home rediscovering a falsely-dead
# co-op can compare the returning hosted set against its current
# LDG/replication-group state without an extra round trip.
HOSTED_MANIFEST_HEADER = "X-DCWS-Hosted-Manifest"
# Manifest size cap: a pathological co-op cannot bloat probe responses.
HOSTED_MANIFEST_LIMIT = 128


@dataclass
class EngineReply:
    """A finished response plus accounting the host may need.

    ``reconstructed`` flags that serving this request required a
    dirty-document regeneration; ``spliced`` says it was the cheap
    link-template splice — the only kind there is, so the two are equal
    (the simulator's cost model reads ``spliced``).
    """

    response: Response
    doc_name: str = ""
    reconstructed: bool = False
    spliced: bool = False


@dataclass
class _FastHit:
    """A clean read answered from memory, pending its rendering and its
    counters: a cached 200, or a 304 off the copy's validators.

    ``copy`` is what :meth:`DCWSEngine._serve_copy` would have been
    handed: the LDG record of a home document, or the entry of a hosted
    copy; ``entry`` is the copy-cache entry of a 200, or the validators
    of a 304.  Produced by :meth:`DCWSEngine.fast_lookup` and booked by
    :meth:`DCWSEngine.fast_commit`, both within one hold of the host's
    engine lock.
    """

    copy: Union[DocumentRecord, "HostedDocument"]
    entry: CopyEntry
    kind: str              # "identity", "gzip" or "304"


@dataclass
class PullFromHome:
    """Directive: fetch a migrated document's bytes from its home server.

    The host sends ``request`` to ``home`` and passes the answer to
    :meth:`DCWSEngine.complete_pull` together with this directive.
    """

    key: str               # migrated-form path on this co-op
    home: Location
    original: str          # path on the home server
    request: Request
    client_request: Request


@dataclass
class OutboundAction:
    """Directive: a periodic server-to-server transfer.

    ``kind`` is ``"ping"`` (forced load-information exchange / liveness
    probe) or ``"validate"`` (co-op consistency re-request).  The host
    sends ``request`` to ``peer`` and reports the outcome through
    :meth:`DCWSEngine.complete_action`; a ``None`` response means the peer
    was unreachable.
    """

    kind: str
    peer: Location
    request: Request
    key: str = ""          # hosted key, for validations


@dataclass
class HostedDocument:
    """Co-op-side record of one document migrated (or pulled through) here."""

    key: str               # migrated-form path, e.g. /~migrate/h/80/a.html
    home: Location
    original: str          # original path on the home server
    fetched: bool = False
    size: int = 0
    hits: int = 0
    version: str = ""      # home's version, echoed for 304 validation
    content_type: str = "text/html"
    hits_reported: int = 0  # hits the home has answered a report of
    # Home's content digest of the identity body, claimed on the pull /
    # validation response and verified before install; "" for legacy
    # copies pulled from digestless homes.
    digest: str = ""
    validated_at: float = 0.0  # last validated; due again T_val later

    def schedule_first_validation(self, now: float,
                                  config: ServerConfig) -> None:
        """A fresh copy's first validation comes a CRC-of-key share of
        T_val early, so a burst of pulls does not validate in one storm."""
        jitter = shard_of(self.key, 997) / 997.0
        self.validated_at = now - jitter * config.validation_interval


@dataclass
class EngineStats:
    """Cumulative counters surfaced to benchmarks and tests."""

    requests: int = 0
    fast_hits: int = 0         # requests answered by the short-circuit
    responses_200: int = 0
    responses_301: int = 0
    responses_304: int = 0
    responses_404: int = 0
    bytes_sent: int = 0
    reconstructions: int = 0
    splices: int = 0           # reconstructions served by template splice
    template_builds: int = 0   # link templates built (each costs a scan)
    parses: int = 0
    responses_503: int = 0
    responses_206: int = 0
    responses_416: int = 0
    conditional_304s: int = 0   # client-validator 304s (ETag/IMS), not peer
    gzip_responses: int = 0
    gzip_bytes_saved: int = 0   # identity length minus gzip length, summed
    regenerations_shed: int = 0  # dirty regenerations refused under overload
    pulls_shed: int = 0          # first-use co-op pulls refused under overload
    pulls_started: int = 0
    pulls_completed: int = 0
    pulls_degraded: int = 0    # failed pulls answered 302-to-home or 503
    validations: int = 0
    pings: int = 0
    migrations: int = 0
    revocations: int = 0
    replications: int = 0
    replica_drops: int = 0   # dead holders shed from replication groups
    repairs: int = 0         # replacement holders added by the repair loop
    # The most recent decisions only (the EventLog's bound): a
    # long-lived server books one per migration, revocation and repair.
    decisions: deque[MigrationDecision] = field(
        default_factory=lambda: deque(maxlen=1000))


# Approximate wire overhead of a response head, counted into BPS the same
# way the paper's servers saw connection bytes beyond the document body.
RESPONSE_HEAD_OVERHEAD = 160


class DCWSEngine:
    """One DCWS server's complete behaviour, minus transport and threads."""

    def __init__(self, location: Location, config: ServerConfig,
                 store: DocumentStore, *,
                 entry_points: Iterable[str] = (),
                 peers: Iterable[Location] = ()) -> None:
        self.location = location
        # ``http://host[:port]`` as ``URL`` prints it (a home URL is this
        # plus the document name), spelled out because a unit-test engine
        # on port 0 has no valid URL.
        self._home_prefix = f"http://{location.host.lower()}" + (
            "" if location.port == DEFAULT_HTTP_PORT else f":{location.port}")
        self.config = config
        self.store = store
        # The copy cache (DistCache-style): one entry per store key —
        # bytes, gzip variant, validators and framed heads of the copy's
        # (version, digest) — under one LRU and one byte budget.
        self.response_cache = CopyCache(config.byte_cache_bytes)
        # Per-document link templates for splice reconstruction, synced at
        # every point the stored bytes change (initial parse, author
        # update, regeneration commit).  Keyed by name: migration events
        # bump a document's *version* without touching its bytes, so the
        # template stays valid across them.
        self._templates: Dict[str, LinkTemplate] = {}
        # Host capability: front ends that can deliver a FileBody with
        # os.sendfile set this; large clean disk-backed GETs then skip
        # the byte read entirely (see _serve_copy).
        self.sendfile_enabled = False
        # Tiered shedding input, set per request by dispatch.serve: while
        # True, expensive work (regenerations, first-use pulls) is shed
        # with 503 while cache hits and 304s keep being served.
        self.overloaded = False
        self.graph = LocalDocumentGraph(
            location, enforce_entry_home=config.protect_entry_points)
        self.glt = GlobalLoadTable(location)
        # The peer ledger: one record per peer — the alive -> suspect ->
        # dead state machine driven by the accrual failure detector, and
        # the circuit every outbound transfer asks admit() at emission,
        # whose schedule is also the rediscovery re-probe of a
        # falsely-dead configured peer.  Every success/failure
        # observation below feeds it via _peer_success/_peer_failure;
        # all DEAD declarations it recommends flow through the single
        # journaled _declare_dead.  Its ``placeable`` predicate gates
        # migration and replica targets, ``holds`` who keeps serving.
        self.membership = MembershipTable.from_config(config)
        self.policy = MigrationPolicy(config, self.graph, self.glt)
        self.policy.peer_available = self.membership.placeable
        self.policy.on_decision = self._journal_decision
        self.metrics = ServerMetrics(config.stats_interval)
        # End-to-end content integrity: digests, the scrub daemon's
        # cursor, and the quarantine table (see
        # repro.server.integrity).
        self.integrity = IntegrityManager(config)
        # The one replica pick for every migrated document, and (with
        # replication_k >= 2) the groups with autonomous repair; its
        # decisions surface through the policy callback above, so they
        # are journaled like every other relocation.
        self.replication = ReplicationManager(
            config, self.graph, self.glt, self.policy,
            peers=self.membership,
            log=lambda msg: self.log.record(self._clock, "replication",
                                            detail=msg))
        self.hosted: Dict[str, HostedDocument] = {}
        self.stats = EngineStats()
        self.log = EventLog()
        # Durability (attach_journal): every state mutation below appends
        # a redo record before (or, for derived facts like a cleared dirty
        # bit, immediately after) the mutation lands, so snapshot + replay
        # reconstructs this engine after a crash.  ``recovery`` carries the
        # stats of the last recover() for the durability admin endpoint.
        self.journal: Optional["WriteAheadJournal"] = None
        self.recovery: Optional["RecoveryStats"] = None
        # Journal timestamps: engine time is an explicit ``now`` argument,
        # refreshed here at every entry point so nested mutation sites
        # (policy callbacks, _commit_bytes) can stamp records without
        # threading ``now`` through every call chain.
        self._clock = 0.0
        self._entry_points = {normalize_path(p) for p in entry_points}
        # The periodic rounds in tick() order: (name, interval, round).
        # Interval 0 runs every tick, scrub_interval 0 never scrubs; the
        # stats and ping clocks start at initialize(), the rest at once.
        self._rounds = [
            ("stats", config.stats_interval, self._recalculate_statistics),
            ("repair", config.stats_interval, self._repair_round),
            ("scrub", config.scrub_interval, self._scrub_round),
            ("quarantine", 0.0, self._quarantine_notifications),
            ("validate", 0.0, self._validations_due),
            ("ping", config.pinger_interval, self._pings_due),
            ("membership", 0.0, self._membership_due)]
        if config.scrub_interval <= 0:
            self._rounds = [row for row in self._rounds if row[0] != "scrub"]
        self._last_run: Dict[str, float] = {}
        self._initialized = False
        # The static configured peer list is retained (the GLT alone
        # forgets dead peers): it is the rediscovery daemon's probe
        # roster and the string -> Location map for journal replay.
        self._configured_peers: List[Location] = list(peers)
        # Peers that rejoined via a path with no manifest in hand
        # (incoming gossip): settle their surviving copies against the
        # next manifest-bearing ping/probe response instead.
        self._reconcile_pending: set = set()
        for peer in self._configured_peers:
            self.glt.register(peer)
            self.membership.register(str(peer), configured=True)

    # ------------------------------------------------------------------
    # Durability: write-ahead journal hooks
    # ------------------------------------------------------------------

    def attach_journal(self, journal: "WriteAheadJournal") -> None:
        """Journal every state mutation from here on.

        The migration policy's decision callback (wired at construction)
        already routes *every* decision site — periodic rounds, forced
        migrations, dead-peer revocations — through
        :meth:`_journal_decision`, which journals once a journal is
        attached.
        """
        self.journal = journal

    def _journal(self, kind: str, **fields: object) -> None:
        if self.journal is not None:
            self.journal.append(kind, self._clock, **fields)

    def _journal_decision(self, decision: MigrationDecision) -> None:
        """Journal one applied migration decision as *resulting state*.

        Recording the post-decision location/replicas/versions (rather
        than the operation) makes replay a plain state install: applying
        a record twice is the same as once, and the replica-discard flavor
        of ``revoke`` (document still migrated, one replica gone) needs no
        special casing.
        """
        if self.journal is None:
            return
        record = self.graph.find(decision.name)
        dirtied = []
        for name in decision.dirtied:
            touched = self.graph.find(name)
            if touched is not None:
                dirtied.append([name, touched.version])
        self._journal(
            decision.kind,
            name=decision.name,
            location=str(record.location) if record else str(self.location),
            replicas=sorted(str(r) for r in record.replicas) if record else [],
            version=record.version if record else 0,
            dirtied=dirtied,
            migrated_at=record.migrated_at if record else None)

    def _install_membership(self, peer: str, state: str, now: float) -> None:
        """Install one peer's membership state outright (snapshot restore
        and journal replay; the live transitions journal the state they
        reach).  Dead peers also leave the GLT — the constructor
        registers every configured peer, and a recovered engine must not
        ping one it had declared dead — and alive ones are registered,
        so the pinger resumes after a replayed rejoin."""
        if not peer or not state:
            return
        state = self.membership.install(peer, state, now)
        try:
            location = Location.parse(peer)
        except ValueError:
            return
        if state == DEAD:
            self.glt.remove(location)
        elif self.glt.get(location) is None:
            self.glt.register(location)

    def _restore_document(self, name: str, location: Location,
                          replicas: Iterable[Location],
                          migrated_at: Optional[float], version: int,
                          dirty: bool, hits: int, digest: str) -> bool:
        """One snapshot document entry, through the holder install;
        ``False`` for a document no longer on disk.  The snapshot's
        digest is that of the *authored* bytes: it overrides the one
        initialize() computed from disk, so rot that happened while the
        server was down is caught by the first scrub, not blessed."""
        if not self.graph.install_holders(name, location, replicas,
                                          migrated_at, version, dirty=dirty):
            return False
        record = self.graph.get(name)
        record.hits = hits
        record.digest = digest or record.digest
        return True

    def _restore_hosted(self, key: str, home: Location, original: str,
                        content_type: str, size: int, version: str,
                        digest: str, hits: int, hits_reported: int,
                        validated_at: float) -> None:
        """One snapshot hosted entry, through the copy install.  With its
        bytes missing from the store it comes back unfetched, and the
        next request lazily re-pulls instead of 404ing a document the
        home still believes migrated here.  The saved deadline is kept:
        a copy overdue at the crash validates at once."""
        hosted = self._hosted_entry(key, home, original)
        hosted.content_type = content_type or hosted.content_type
        hosted.hits, hosted.hits_reported = hits, hits_reported
        self._install_copy(hosted, None, size, version, digest,
                           validated_at=validated_at)

    # ------------------------------------------------------------------
    # Initialization: scan the store, parse documents, build the LDG
    # (paper section 3.3: "computed upon initialization of the web server
    # by scanning its disk and parsing the documents")
    # ------------------------------------------------------------------

    def initialize(self, now: float = 0.0) -> None:
        if self._initialized:
            return
        names = self.store.names()
        sources: Dict[str, bytes] = {}
        for name in names:
            if is_migrated_path(name):
                continue  # cached co-op copies are not home documents
            content_type = guess_content_type(name)
            data = self.store.get(name)
            self.graph.add_document(
                name, size=len(data), content_type=content_type,
                entry_point=name in self._entry_points)
            record = self.graph.find(name)
            if record is not None:
                record.digest = body_digest(data)
            if content_type.startswith("text/html"):
                sources[name] = data
        for name, data in sources.items():
            self.stats.parses += 1
            link_names = self._index_html(name, data)
            self.graph.set_links(name, link_names)
        self._last_run.update(stats=now, ping=now)
        self._initialized = True

    def _index_html(self, base_name: str, data: bytes) -> List[str]:
        """One scan of the source, two products: the document's link names
        for the LDG and a fresh link template for splice reconstruction.
        The names go into a set of edges, so each distinct link value is
        resolved once (SBLog's pages average 141 links to 10 values)."""
        template, links = index_source(data.decode("latin-1"))
        self._templates[base_name] = template
        self.stats.template_builds += 1
        names: List[str] = []
        for value in set(links):
            resolved = self._resolve_to_name(base_name, value)
            if resolved is not None:
                names.append(resolved)
        return names

    def _resolve_to_name(self, base_name: str, raw: str) -> Optional[str]:
        """Map a raw hyperlink value to a same-site document name.

        Handles relative links, absolute links to this server, and links
        previously rewritten into migrated form pointing back at us.
        Returns ``None`` for off-site references.
        """
        # Nearly every link has one of two shapes: a root-relative path,
        # or this server's own absolute URL as ``_rewrite_value`` writes
        # it.  When the path needs no normalising it is the name.
        path = raw[len(self._home_prefix):] \
            if raw.startswith(self._home_prefix) else raw
        if path.startswith("/") and not path[-1].isspace() \
                and "/." not in path and "//" not in path \
                and "?" not in path and "#" not in path \
                and not is_migrated_path(path):
            return path
        raw = strip_fragment(raw).strip()
        if not raw:
            return None
        base = URL(self.location.host, self.location.port, base_name)
        try:
            resolved = join_url(base, raw)
        except Exception:
            return None
        path = normalize_path(resolved.path)
        if is_migrated_path(path):
            try:
                home, original = decode_migrated_path(path)
            except NamingError:
                return None
            return original if home == self.location else None
        return path if resolved.same_server(base) else None

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    def handle_request(self, request: Request, now: float
                       ) -> Union[EngineReply, PullFromHome]:
        """Process one client or peer request.

        Returns a finished :class:`EngineReply`, or a :class:`PullFromHome`
        directive when a migrated document must first be fetched lazily.
        """
        self._clock = now
        path = request.route
        if path == HEALTH_PATH:
            # Monitoring traffic: answered before any accounting so
            # probes never inflate hit counters or the CPS/BPS metrics.
            return self._handle_health(request)
        self.stats.requests += 1
        self._absorb_piggyback(request.headers)
        if request.headers.get(PURPOSE_HEADER) in ("ping", "probe") \
                and extract_sender(request.headers):
            # Liveness traffic names no document: an empty 200, framed
            # (piggyback, hosted manifest) like any answer to a peer.
            return self._finish(request, Response(status=StatusCode.OK), now)
        if path.startswith(ADMIN_PREFIX):
            return self._handle_admin(request, path, now)
        if is_migrated_path(path):
            try:
                home, original = decode_migrated_path(path)
            except NamingError:
                return self._finish(request, error_response(
                    StatusCode.BAD_REQUEST, "malformed ~migrate path"), now)
            if home == self.location:
                # Migrated-form URL for our own document, e.g. after a
                # revocation raced a stale link: serve it as local.
                return self._handle_local(request, original, now)
            return self._handle_coop(request, path, home, original, now)
        return self._handle_local(request, path, now)

    # -- short-circuit for clean cached reads ----------------------------

    def serve_warm(self, head: "ParsedHead", now: float
                   ) -> Optional[Tuple[bytes, bytes, bool]]:
        """Answer a client's parsed request head from memory (host holds
        the engine lock): ``(head bytes, body, persists)``, booked, or
        ``None`` when :meth:`handle_request` must answer it instead.

        The one route of a clean cached read.  :meth:`_find_warm` decides
        on the head's method, route and facts, and :meth:`_book_hit`
        books the answer exactly as :meth:`handle_request` would have.
        A GET's 200 and any 304 are the finished head bytes kept on the
        copy's cache entry — ``framed`` per ``(gzip, persists)``,
        ``not_modified`` per ``persists`` — and the entry's own body
        object; a flavour's first answer renders through the renderer
        :meth:`_serve_copy` uses and keeps what
        :meth:`~repro.http.messages.Response.serialize_head` makes of it.
        A HEAD's 200 is rendered each time.  *head* is only read: it is
        the head memo's, shared by every request that sends its bytes.
        The host sends the answer as it is, so the request that must
        close its connection at ``keep_alive_max_requests`` is not
        handed here.
        """
        found = self._find_warm(head)
        if found is None:
            return None
        copy, entry, kind = found
        persists = self._persists(head)
        body = b""
        if kind == "304":
            wire = entry.not_modified.get(persists)
            if wire is None:    # the 304's builder keeps its head bytes
                self._render_hit(head.request(), copy, entry, kind)
                wire = entry.not_modified[persists]
        elif head.method == "HEAD":
            wire = self._render_hit(head.request(), copy, entry,
                                    kind).serialize_head()
        else:
            flavour = (kind == "gzip", persists)
            body = entry.gzip_body if flavour[0] else entry.body
            wire = entry.framed.get(flavour)
            if wire is None:
                wire = entry.framed[flavour] = self._render_hit(
                    head.request(), copy, entry, kind).serialize_head()
        self._book_hit(copy, entry, kind, len(body), now)
        return wire, body, persists

    def fast_lookup(self, request: Request, now: float) -> Optional[_FastHit]:
        """:meth:`serve_warm`'s decision for a :class:`Request` (host
        holds the engine lock); :meth:`fast_commit` renders and books
        the hit."""
        found = self._find_warm(request)
        return None if found is None else _FastHit(*found)

    def fast_commit(self, hit: _FastHit, request: Request,
                    now: float) -> EngineReply:
        """Render and book a :meth:`fast_lookup` hit, within the same
        hold of the engine lock: the response :meth:`serve_warm`'s head
        bytes are made from, counted as :meth:`serve_warm` counts it."""
        response = self._render_hit(request, hit.copy, hit.entry, hit.kind)
        key = self._book_hit(hit.copy, hit.entry, hit.kind,
                             response.body_length(), now)
        return EngineReply(response=response, doc_name=key)

    def _find_warm(self, request: Union[Request, "ParsedHead"]
                   ) -> Optional[Tuple[Union[DocumentRecord,
                                             "HostedDocument"],
                                       CopyEntry, str]]:
        """Resolve a request as a clean read from memory: the copy, its
        cache entry (its validators for a 304) and the kind of answer,
        or ``None`` for the slow path.

        The route resolves to a stored copy the way
        :meth:`handle_request` resolves it — the LDG record for a home
        name, ``self.hosted[key]`` for a ``~migrate`` key — and one
        precondition list applies to either kind: a client GET/HEAD
        without ``Range``; a home record clean and located here; a
        hosted entry fetched and versioned.  Such a request skips
        :meth:`handle_request`'s routing, piggyback and pre-steps.  A
        revalidation whose validators name the copy's current stamp is
        answered 304 — unless the copy is quarantined — with no booked
        cache lookup and no store read.  Anything else needs the cached
        200; a conditional that does not match is served exactly like an
        unconditional request.  Nothing here
        mutates engine state but the LRU order and the hit count of the
        copy cache.  The memos a hit reads live and die with the cache
        entry, which every update, regeneration, re-install, quarantine
        and drop of the copy invalidates.
        """
        if request.method not in ("GET", "HEAD"):
            return None
        headers = request.headers
        facts = headers.facts()
        if facts.peer or facts.ranged:
            return None  # peer semantics, Range negotiation: slow path
        path = request.route
        if path.startswith(ADMIN_PREFIX):   # health probe included
            return None
        if is_migrated_path(path):
            copy = self.hosted.get(path)
            if copy is None or not copy.fetched or not copy.version:
                return None
        else:
            copy = self.graph.find(path)
            if copy is None or copy.dirty \
                    or copy.location != self.location:
                return None
        if facts.conditional:
            # A 304 is all head and needs no cached 200, so the
            # quarantine that empties the cache must be asked here.
            if self.integrity.is_quarantined(path):
                return None
            validators = self._validators(path, copy)
            if not_modified(headers, validators.etag,
                            validators.last_modified):
                return copy, validators, "304"
        cached = self.response_cache.get(path, copy.version, request.method,
                                         copy.digest, book_miss=False)
        if cached is None:
            return None
        return copy, cached, \
            "gzip" if self._wants_gzip(request, cached) else "identity"

    def _render_hit(self, request: Request,
                    copy: Union[DocumentRecord, "HostedDocument"],
                    entry: CopyEntry, kind: str) -> Response:
        """The framed response :meth:`_serve_copy` renders for a hit."""
        home = isinstance(copy, DocumentRecord)
        if kind == "304":
            return self._not_modified_response(request, entry, home=home)
        return self._render_entity(request, entry, home=home)[0]

    def _book_hit(self, copy: Union[DocumentRecord, "HostedDocument"],
                  entry: CopyEntry, kind: str, body_bytes: int,
                  now: float) -> str:
        """Count one answer from memory exactly like the slow path counts
        it — a home document's hit on its record, a hosted copy's on its
        entry, as :meth:`_handle_coop` does — and return its key."""
        self._clock = now
        self.stats.requests += 1
        self.stats.fast_hits += 1
        if isinstance(copy, DocumentRecord):
            copy.record_hit()
            key = copy.name
        else:
            copy.hits += 1
            key = copy.key
        self._book(kind, entry)
        self._count_sent(body_bytes, now)
        return key

    # -- administrative endpoints (/~dcws/...) ---------------------------

    def _handle_admin(self, request: Request, path: str,
                      now: float) -> EngineReply:
        from repro.server import admin

        endpoint = path[len(ADMIN_PREFIX):]
        renderer = admin.ENDPOINTS.get(endpoint)
        if renderer is None:
            return self._finish(request, error_response(
                StatusCode.NOT_FOUND,
                f"unknown admin endpoint; try {sorted(admin.ENDPOINTS)}"),
                now, doc_name=path)
        # Renderers are pure functions of the engine; age computations
        # (e.g. /~dcws/peers GLT row age) read the request's clock here.
        self._admin_now = now
        return self._finish(request, self._text_page(request, renderer(self)),
                            now, doc_name=path)

    @staticmethod
    def _text_page(request: Request, text: str) -> Response:
        body = text.encode("latin-1", "replace")
        response = Response(status=StatusCode.OK,
                            body=b"" if request.method == "HEAD" else body)
        response.headers.set("Content-Type", "text/plain")
        response.headers.set("Content-Length", str(len(body)))
        return response

    def _handle_health(self, request: Request) -> EngineReply:
        """The accounting-free ``/~dcws/health`` probe.

        Framing headers are set here directly (this path skips
        :meth:`_finish` on purpose — no metrics, no byte counters, no
        piggyback) so keep-alive probes still frame correctly.
        """
        from repro.server import admin

        response = self._text_page(request, admin.render_health(self))
        response.headers.set(
            "Connection", "keep-alive" if self._persists(request) else "close")
        return EngineReply(response=response, doc_name=HEALTH_PATH)

    # -- local (home-server) documents ---------------------------------

    def _handle_local(self, request: Request, path: str,
                      now: float) -> EngineReply:
        record = self.graph.find(path)
        if record is None:
            self.stats.responses_404 += 1
            return self._finish(request, error_response(
                StatusCode.NOT_FOUND, f"no such document: {path}"), now,
                doc_name=path)
        record.record_hit()
        purpose = request.headers.get(PURPOSE_HEADER)
        sender = extract_sender(request.headers)
        transfer = purpose in ("migration-pull", "validation")
        privileged = transfer and self._sender_is_assigned(sender, record)
        if privileged and purpose == "validation":
            # A validating co-op reports the hits its hosted copy
            # absorbed; credit them so selection/re-migration/replication
            # see real demand for documents that no longer generate local
            # hits.  Only the assigned co-op's word counts — the figure
            # steers Algorithm 1 — and a value that is not a count is
            # malformed gossip, which never breaks serving.
            try:
                record.record_hit(
                    request.headers.get_int(HOSTED_HITS_HEADER, 0))
            except HTTPError:
                pass
        if sender and request.headers.get(QUARANTINE_HEADER):
            # A peer reports its copy of this document as corrupt (and,
            # for a re-pull, must not be served its own bad copy back):
            # drop the holder, repair the group, and point it home.
            return self._drop_corrupt_holder(request, record, sender, now)
        at_home = record.location == self.location
        if not privileged and (not at_home or (transfer and sender)):
            # Migrated away: 301 to the current location (section 4.4).
            # Pull and validation requests from the *assigned* co-op are
            # the exception: the home keeps the permanent copy and must
            # serve it.  A co-op that is no longer the document's host
            # (the home re-migrated or revoked it) gets a 301 too — to
            # the home URL when the document is back home — and that is
            # how it learns to stop serving its stale copy.
            if at_home:
                location_url = home_url(self.location, path)
            else:
                target = self.replication.pick(record, salt=request.target)
                location_url = migrated_url(target, self.location, path)
            self.metrics.record_redirect(now)
            self.stats.responses_301 += 1
            response = redirect_response(str(location_url))
            if record.replicas:
                # Stamp the live replica set so requesters can apply
                # two-choices — and fail over — without asking again.
                live = self.replication.live_holders(path)
                if len(live) > 1:
                    response.headers.set(
                        REPLICAS_HEADER,
                        ",".join(str(loc) for loc in live))
            return self._finish(request, response, now, doc_name=path)
        return self._serve_home_document(request, record, now)

    def _serve_home_document(self, request: Request, record: DocumentRecord,
                             now: float) -> EngineReply:
        """What only a home does before :meth:`_serve_copy`: refuse a
        quarantined copy it cannot repair, regenerate a dirty page,
        and answer a co-op's version check."""
        if self.integrity.is_quarantined(record.name) \
                and not (record.dirty and record.is_html
                         and record.name in self._templates):
            # Quarantined with no regeneration path to repair it (only a
            # dirty HTML document regenerates from the in-memory link
            # template, replacing the corrupt bytes): refuse to serve the
            # bad copy rather than hand out a body that fails its digest.
            return self._unavailable(request, now, "content integrity failure",
                                     doc_name=record.name, retry_after="5",
                                     drop=False)
        reconstructed = False
        if record.dirty and record.is_html:
            if self.overloaded:
                # Tier 2 of overload handling: a dirty document needs a
                # regeneration pass before it can be served — refuse that
                # expense while the front end reports pressure.  Clean
                # documents (the cheap tier) keep serving below.
                return self._shed(request, now, doc_name=record.name,
                                  kind="regeneration")
            reconstructed = self._regenerate(record)
            if reconstructed:
                self.metrics.record_reconstruction(now)
                self.stats.reconstructions += 1
                self.stats.splices += 1
        # Conditional validation support (section 4.5): a co-op re-request
        # carrying our current version gets a cheap 304 — no store read.
        peer_version = request.headers.get(VERSION_HEADER)
        if peer_version is not None and peer_version == str(record.version):
            response = Response(status=StatusCode.NOT_MODIFIED)
            response.headers.set(VERSION_HEADER, str(record.version))
            self.stats.responses_304 += 1
            return self._finish(request, response, now, doc_name=record.name,
                                reconstructed=reconstructed)
        return self._serve_copy(request, record, now,
                                reconstructed=reconstructed)

    # -- one way to serve a stored copy ------------------------------------

    def _validators(self, key: str,
                    copy: Union[DocumentRecord, HostedDocument]) -> CopyEntry:
        """What answers a revalidation of the copy under *key*: its cache
        entry when that holds the copy's current ``(version, digest)``
        (looked at, not booked), else a body-less entry derived afresh
        and kept nowhere.  No validators for a versionless hosted copy,
        which switches the 304 and the cache off for it."""
        entry = self.response_cache.peek(key)
        if entry is not None and entry.version == copy.version \
                and entry.digest == copy.digest:
            return entry
        return CopyEntry.of(key, copy.version, copy.digest)

    def _serve_copy(self, request: Request,
                    copy: Union[DocumentRecord, HostedDocument], now: float,
                    *, reconstructed: bool = False
                    ) -> Union[EngineReply, PullFromHome]:
        """Answer *request* from the bytes stored for *copy* — a clean
        home document or a fetched hosted copy — with the 200, 206, 304
        or 416 its headers negotiate.

        Everything derived from the copy's ``(version, digest)`` is read
        off its copy-cache entry, which a miss fills from the store.  Two
        things differ by whose copy it is.
        A home stamps ``X-DCWS-Version`` and may hand a large body to
        ``sendfile``; a co-op does neither.  And bytes that are missing,
        or that fail the digest on a fill, make a home quarantine the
        document and answer 503, a co-op drop the copy and pull it
        again.
        """
        home = isinstance(copy, DocumentRecord)
        key = copy.name if home else copy.key
        flags = {"doc_name": key, "reconstructed": reconstructed}
        # Client conditional GET: validators derive from (key, version),
        # so both the 304 check and the 304 itself need no store read.
        # Safe because every byte change bumps the version (author updates
        # directly; migration events dirty referrers with a bump, and
        # dirty documents regenerate before reaching this point; a co-op
        # takes the home's version with the bytes).
        validators = self._validators(key, copy)
        if validators.etag and not_modified(request.headers, validators.etag,
                                            validators.last_modified):
            self._book("304")
            return self._account(
                self._not_modified_response(request, validators, home=home),
                now, **flags)
        if home and self.sendfile_enabled \
                and request.method == "GET" \
                and request.headers.get("Range") is None \
                and "GET" not in validators.methods:
            # Zero-copy delivery of large disk-backed bodies: hand the
            # transport a FileBody for os.sendfile instead of reading the
            # bytes.  Deliberately bypasses the copy cache so one big
            # file cannot flush the hot set; small documents (or ones a
            # GET already cached) keep the cached path below.
            source = self.store.sendfile_source(key)
            if source is not None \
                    and source[1] >= self.config.sendfile_min_bytes:
                response = self._entity_head(copy.content_type, source[1],
                                             validators, varies=False)
                response.body_file = FileBody(path=source[0], size=source[1])
                response.headers.set(VERSION_HEADER, str(copy.version))
                if copy.digest:
                    # Stamped from the record, not from re-hashing the
                    # file: in-transit verification must not cost the
                    # zero-copy path a body read.
                    response.headers.set(DIGEST_HEADER, copy.digest)
                self._book("identity")
                return self._finish(request, response, now, **flags)
        # A versionless copy always misses (the cache never keeps one:
        # two pulls of the same key could then collide across
        # re-migrations), so every miss here is one read of the store.
        cached = self.response_cache.get(key, copy.version, request.method,
                                         copy.digest)
        if cached is None:
            try:
                data = self.store.get(key)
            except DocumentNotFound:
                if home:
                    raise
                # The entry says fetched but the bytes are gone — a
                # restart recovered the registration without the copy, or
                # the file was lost.  Degrade to a fresh pull instead of
                # 404ing a document the home migrated here.
                copy.fetched = False
                copy.version = ""
                self.response_cache.invalidate(key)
                self.log.record(now, "pull", key=key, reason="missing-bytes")
                return self._start_pull(request, copy, now)
            wants_variant = request.method == "GET"
            # The entry's variant is the deflate of the bytes that hash
            # to its digest, so a fill that would make one first shows
            # the bytes just read to be those: a hash beside the one
            # deflate pass.
            makes_variant = wants_variant and bool(copy.digest) \
                and compressible(copy.content_type)
            # Serve-path integrity check: on every such fill, and
            # otherwise on every Nth cache miss, re-hash the bytes just
            # read against the recorded digest, so bit-rot on a copy
            # the scrubber has not reached yet is still caught before
            # the body leaves the server.
            if copy.digest \
                    and (self.integrity.sample_serve() or makes_variant) \
                    and not digest_matches(data, copy.digest):
                self._quarantine(copy, REASON_SERVE, data, now)
                if home:
                    # Never the corrupt body.  (A repairable document
                    # regenerates on the retry the Retry-After invites.)
                    return self._unavailable(
                        request, now, "content integrity failure",
                        doc_name=key)
                # The pull carries the quarantine flag, so the home
                # repairs the group from a verified copy.
                return self._start_pull(request, copy, now)
            # One entry per key: a fill for the other method of the
            # same stamp joins the entry the first one made.
            methods = validators.methods | {request.method}
            if request.method == "HEAD" and validators.methods:
                cached = replace(validators, methods=methods)
            else:
                cached = CopyEntry(
                    copy.version, copy.digest, data, copy.content_type,
                    validators.etag, validators.last_modified,
                    gzip_body=maybe_gzip(data, copy.content_type)
                    if wants_variant else None, methods=methods)
            self.response_cache.put(key, cached)
        response, kind = self._render_entity(request, cached, home=home)
        self._book(kind, cached)
        return self._account(response, now, **flags)

    def _not_modified_response(self, request: Request, validators: CopyEntry,
                               *, home: bool) -> Response:
        """The framed 304 for a client validator naming *validators*: the
        one builder of that head, and the keeper of its bytes.  A 304 is
        all head and a client's head depends on the request only through
        "does the connection persist", so the first one of each flavour
        leaves its head bytes on *validators* for :meth:`serve_warm`.  A
        peer's head carries the load table of the moment: never kept."""
        response = Response(status=StatusCode.NOT_MODIFIED)
        response.headers.set("ETag", validators.etag)
        response.headers.set("Last-Modified", validators.last_modified)
        if home:
            response.headers.set(VERSION_HEADER, str(validators.version))
        self._frame(request, response)
        if not extract_sender(request.headers):
            persists = self._persists(request)
            if persists not in validators.not_modified:
                validators.not_modified[persists] = response.serialize_head()
        return response

    @staticmethod
    def _entity_head(content_type: str, length: int, validators: CopyEntry,
                     *, varies: bool) -> Response:
        """A 200 carrying the fields every full response for a stored
        copy starts with (``etag``/``last_modified`` empty for a
        versionless copy)."""
        response = Response(status=StatusCode.OK)
        response.headers.set("Content-Type", content_type)
        response.headers.set("Content-Length", str(length))
        response.headers.set("Accept-Ranges", "bytes")
        if validators.etag:
            response.headers.set("ETag", validators.etag)
        if validators.last_modified:
            response.headers.set("Last-Modified", validators.last_modified)
        if varies:
            # The representation depends on Accept-Encoding whenever a
            # compressed variant exists — even when this response is the
            # identity one — or a shared cache would serve gzip to all.
            response.headers.set("Vary", "Accept-Encoding")
        return response

    def _render_entity(self, request: Request, cached: CopyEntry, *,
                       home: bool) -> Tuple[Response, str]:
        """Build and frame the 200/206/416 for one cache entry.

        Negotiates ``Range`` (single byte range against the identity
        representation) and ``Accept-Encoding: gzip`` (the pre-compressed
        variant stored at cache-fill time; a HEAD is answered as the
        identity entity, without ``Vary``).  The validators ride on every
        flavor so a client can revalidate whatever it received.  No
        counter is touched here: the caller books the returned kind —
        ``"identity"``, ``"gzip"``, ``"206"`` or ``"416"`` — through
        :meth:`_book`.  The identity and gzip bodies are the *shared*
        cached bytes objects, never a copy.
        """
        length = len(cached.body)
        get = request.method == "GET"
        response = self._entity_head(
            cached.content_type, length, cached,
            varies=get and cached.gzip_body is not None)
        response.body = cached.body
        kind = "identity"
        range_header = request.headers.get("Range")
        span = parse_range(range_header, length) \
            if range_header and get else None
        if span is RANGE_UNSATISFIABLE:
            kind = "416"
            response.status = StatusCode.RANGE_NOT_SATISFIABLE
            response.body = b""
            response.headers.set("Content-Length", "0")
            response.headers.set("Content-Range", f"bytes */{length}")
        elif span is not None:
            kind = "206"
            start, end = span
            response.status = StatusCode.PARTIAL_CONTENT
            response.body = cached.body[start:end + 1]
            response.headers.set("Content-Range",
                                 content_range(span, length))
            response.headers.set("Content-Length", str(end - start + 1))
        else:
            if self._wants_gzip(request, cached):
                kind = "gzip"
                response.body = cached.gzip_body
                response.headers.set("Content-Encoding", "gzip")
                response.headers.set("Content-Length",
                                     str(len(cached.gzip_body)))
            if cached.digest:
                # The digest always covers the identity entity; a gzip
                # recipient verifies after decoding (the pool skips
                # encoded bodies, the real client gunzips first).
                response.headers.set(DIGEST_HEADER, cached.digest)
        if home:
            response.headers.set(VERSION_HEADER, str(cached.version))
        self._frame(request, response)
        return response, kind

    @staticmethod
    def _wants_gzip(request: Request, cached: CopyEntry) -> bool:
        """Does a full 200 for *request* carry the compressed variant?"""
        return cached.gzip_body is not None and request.method == "GET" \
            and accepts_gzip(request.headers)

    def _book(self, kind: str,
              cached: Optional[CopyEntry] = None) -> None:
        """Count one answer for a stored copy by the kind its renderer
        returned — the one place these counters move, whichever route
        served the request."""
        if kind == "304":
            self.stats.responses_304 += 1
            self.stats.conditional_304s += 1
        elif kind == "416":
            self.stats.responses_416 += 1
        elif kind == "206":
            self.stats.responses_206 += 1
        else:
            if kind == "gzip":
                self.stats.gzip_responses += 1
                self.stats.gzip_bytes_saved += \
                    len(cached.body) - len(cached.gzip_body)
            self.stats.responses_200 += 1

    def _shed(self, request: Request, now: float, *, doc_name: str,
              kind: str) -> EngineReply:
        """Refuse one expensive request under overload (tier 2 shedding):
        503 + Retry-After, counted as a drop so advertised load rises."""
        if kind == "regeneration":
            self.stats.regenerations_shed += 1
        else:
            self.stats.pulls_shed += 1
        self.log.record(now, "shed", name=doc_name, what=kind)
        return self._unavailable(request, now,
                                 "server overloaded; retry shortly",
                                 doc_name=doc_name)

    def _unavailable(self, request: Request, now: float, message: str, *,
                     doc_name: str, retry_after: str = "1",
                     drop: bool = True) -> EngineReply:
        """503 + ``Retry-After``; *drop* counts it into the advertised
        load the way a front-end drop is."""
        response = error_response(StatusCode.SERVICE_UNAVAILABLE, message)
        response.headers.set("Retry-After", retry_after)
        self.stats.responses_503 += 1
        if drop:
            self.metrics.record_drop(now)
        return self._finish(request, response, now, doc_name=doc_name)

    def _sender_is_assigned(self, sender: str,
                            record: DocumentRecord) -> bool:
        """Is *sender* (a ``host:port`` string) a current host of *record*?"""
        if not sender:
            return False
        return any(sender == str(location)
                   for location in record.locations())

    # -- co-op (migrated) documents -------------------------------------

    def _handle_coop(self, request: Request, key: str, home: Location,
                     original: str, now: float) -> Union[EngineReply, PullFromHome]:
        hosted = self._hosted_entry(key, home, original)
        hosted.hits += 1
        if not hosted.fetched:
            if self.overloaded:
                # First-use pull is the co-op's expensive tier: refuse it
                # under pressure; already-fetched copies keep serving.
                return self._shed(request, now, doc_name=key, kind="pull")
            # Lazy migration, sub-condition 1 (section 4.2): no local copy
            # yet — pull from the home server, then serve and cache.
            return self._start_pull(request, hosted, now)
        return self._serve_copy(request, hosted, now)

    def _hosted_entry(self, key: str, home: Location,
                      original: str) -> HostedDocument:
        """The entry for *key*, registered unfetched on first sight."""
        hosted = self.hosted.get(key)
        if hosted is None:
            hosted = self.hosted[key] = HostedDocument(
                key=key, home=home, original=original,
                content_type=guess_content_type(original))
        return hosted

    def _start_pull(self, request: Request, hosted: HostedDocument,
                    now: float) -> Union[EngineReply, PullFromHome]:
        """Directive to fetch a hosted document's bytes from its home —
        or, while the home's circuit admits nothing, the 503 a failed
        pull would have earned, without sending one."""
        self.stats.pulls_started += 1
        pull_request = self._peer_request("GET", hosted.original,
                                          "migration-pull")
        if self.integrity.is_quarantined(hosted.key):
            # Tell the home this pull replaces a quarantined copy, so it
            # drops us as a holder and repairs the replication group from
            # a verified copy — never from ours.
            pull_request.headers.set(QUARANTINE_HEADER, "1")
        pull = PullFromHome(key=hosted.key, home=hosted.home,
                            original=hosted.original, request=pull_request,
                            client_request=request)
        if not self.membership.admit(str(hosted.home), now):
            return self._degrade_pull(pull, None, now, sent=False)
        return pull

    def complete_pull(self, pull: PullFromHome, response: Optional[Response],
                      now: float, *, rtt: Optional[float] = None,
                      corrupt: bool = False) -> EngineReply:
        """Finish a lazy-migration pull: cache the bytes and serve them.

        ``response=None`` means the transfer failed; the reply degrades
        gracefully instead of erroring (302 back to the home — the client
        may well reach it even when we cannot).  Transport failures feed
        :attr:`membership` exactly like failed pings, so a dead home is
        declared from the data path; any answer at all closes the home's
        circuit.

        ``corrupt=True`` means the transport-layer digest check rejected
        the body (and the pool's one-shot retry failed too): the reply is
        a 302 to the home, and nothing corrupt is installed or served.
        """
        self._clock = now
        if response is not None or corrupt:
            self._peer_success(str(pull.home), now, rtt=rtt, answered=True)
        if corrupt:
            return self._reject_corrupt_pull(pull, now)
        # (Anew, if the entry was discarded while the pull was in flight:
        # a validation learned the home dropped the document.)
        hosted = self._hosted_entry(pull.key, pull.home, pull.original)
        if response is not None and response.status in (
                StatusCode.MOVED_PERMANENTLY, StatusCode.FOUND):
            # The home says we are not (or no longer) this document's
            # host: forward the redirect to the client, keep nothing.
            self._absorb_piggyback(response.headers)
            self._drop_hosted(pull.key)
            forwarded = redirect_response(
                response.headers.get("Location", "") or "")
            self.stats.responses_301 += 1
            return self._finish(pull.client_request, forwarded, now,
                                doc_name=pull.key)
        if response is None or response.status >= 500:
            # Home unreachable or erroring: degrade.  The hosted entry
            # stays so a later request retries the pull.
            return self._degrade_pull(pull, response, now)
        if response.status != StatusCode.OK:
            # The home answered with something unexpected (4xx): shed the
            # request; keep the entry so a later request retries the pull.
            self.log.record(now, "pull_failed", key=pull.key,
                            status=int(response.status))
            self.stats.responses_404 += 1
            return self._finish(pull.client_request,
                                error_response(response.status,
                                               "pull from home failed"),
                                now, doc_name=pull.key)
        self._absorb_piggyback(response.headers)
        # Belt-and-braces digest verification at install time: the pool
        # already rejected mismatching bodies in transit, but fault-free
        # transports (the simulator, a future HTTP client) land here too.
        claimed = response.headers.get(DIGEST_HEADER, "") or ""
        if claimed and not digest_matches(response.body, claimed):
            return self._reject_corrupt_pull(pull, now)
        self._install_pulled(
            hosted, response.headers.get("Content-Type", "") or "",
            response.body, len(response.body),
            response.headers.get(VERSION_HEADER, "") or "",
            claimed or body_digest(response.body), now)
        self.log.record(now, "pull", key=pull.key, home=str(pull.home),
                        bytes=hosted.size)
        self.stats.pulls_completed += 1
        reply = self._serve_copy(pull.client_request, hosted, now)
        if isinstance(reply, PullFromHome):
            # The bytes just installed did not read back as themselves.
            return self._reject_corrupt_pull(pull, now)
        return reply

    def _install_copy(self, hosted: HostedDocument, data: Optional[bytes],
                      size: int, version: str, digest: str, *,
                      validated_at: Optional[float] = None,
                      replayed: bool = False) -> None:
        """Install *hosted*'s copy — verified *data*, or (``None``) the
        bytes the store already holds, if any — dropping the cache entry
        made from the bytes it replaces.

        *replayed* installs a ``pull`` or ``validate_refreshed`` record,
        journaled before its byte write, so the bytes on disk may belong
        to an older complete copy: the copy keeps no version, which makes
        its first validation an unconditional refresh instead of a 304
        that would pin a stale copy for ever, and no digest, since
        claiming the journaled one would quarantine a legitimately stale
        copy.
        """
        if data is not None:
            self.store.put(hosted.key, data)
        if validated_at is not None:
            hosted.validated_at = validated_at
        self.response_cache.invalidate(hosted.key)
        hosted.fetched = data is not None or hosted.key in self.store
        kept = hosted.fetched and not replayed
        hosted.size = size if hosted.fetched else 0
        hosted.version = version if kept else ""
        hosted.digest = digest if kept else ""
        if hosted.fetched:
            self._clear_quarantine(hosted.key)

    def _install_pulled(self, hosted: HostedDocument, content_type: str,
                        data: Optional[bytes], size: int, version: str,
                        digest: str, now: float, *,
                        replayed: bool = False) -> None:
        """A first copy, pulled or seeded (or its ``pull`` record
        replayed): journal, schedule, store."""
        hosted.content_type = content_type or hosted.content_type
        # Journal before the byte write: a crash in between recovers the
        # hosted entry as unfetched, and the next request re-pulls — lost
        # work, never lost state.
        self._journal("pull", key=hosted.key, home=str(hosted.home),
                      original=hosted.original, size=size,
                      version=version, content_type=hosted.content_type,
                      digest=digest)
        if not hosted.fetched:  # a re-install keeps its deadline
            hosted.schedule_first_validation(now, self.config)
        self._install_copy(hosted, data, size, version, digest,
                           replayed=replayed)

    def _reject_corrupt_pull(self, pull: PullFromHome,
                             now: float) -> EngineReply:
        """A pull whose body failed digest verification: count it, keep
        nothing, and 302 the client to the home — the home answered, so
        corruption is not evidence of death and the client can still be
        served a good copy from the source."""
        self.integrity.counters.pulls_rejected += 1
        self.log.record(now, "pull_rejected", key=pull.key,
                        home=str(pull.home), reason="digest")
        return self._degrade_pull(pull, None, now, corrupt=True)

    def _degrade_pull(self, pull: PullFromHome,
                      response: Optional[Response], now: float, *,
                      sent: bool = True, corrupt: bool = False
                      ) -> EngineReply:
        """Answer a pull that brought no copy, without a 5xx of our own
        making.

        Transport failure, or a body that failed its digest (*corrupt*:
        the home is alive and holds the canonical copy) → 302 back to the
        home, which the client may reach even when we cannot.  The home's
        circuit admitted no pull (not *sent*), or the home answered 5xx →
        503 + Retry-After, the paper's overload rule: clients back off
        instead of hammering a known-bad path.
        """
        home_key = str(pull.home)
        status = 0 if response is None else int(response.status)
        self.stats.pulls_degraded += 1
        self.log.record(now, "pull_failed", key=pull.key, status=status,
                        home=home_key)
        if not sent or response is not None:
            self.log.record(now, "pull_degraded", key=pull.key, mode="shed")
            return self._unavailable(pull.client_request, now,
                                     "document temporarily unavailable",
                                     doc_name=pull.key)
        if not corrupt:
            # A transport failure on the wire: evidence toward declaring
            # the home dead, like a failed ping.  The membership table
            # keeps this path and the ping path in complete_action from
            # double-declaring within one tick.
            self._peer_failure(pull.home, now)
        target = str(home_url(pull.home, pull.original))
        reply = redirect_response(target, status=StatusCode.FOUND)
        self.stats.responses_301 += 1
        self.metrics.record_redirect(now)
        self.log.record(now, "pull_degraded", key=pull.key, mode="redirect",
                        target=target)
        return self._finish(pull.client_request, reply, now,
                            doc_name=pull.key)

    # ------------------------------------------------------------------
    # Dirty-document regeneration (section 4.3)
    # ------------------------------------------------------------------

    def _regenerate(self, record: DocumentRecord) -> bool:
        """Point a dirty page's links at their current locations.  When
        some link has a new one (:meth:`_links_move`), splice the
        locations into the document's link template — replacement URLs
        go into the canonical source, nothing is re-parsed — write the
        result back and return ``True``.  When none has, the bytes on
        disk are already right: clear the dirty bit over them, write
        nothing and return ``False``.  ``False`` too, with nothing
        touched, when there is no template and no clean source to build
        one from: a quarantined document whose template is gone stays
        quarantined until it is re-authored."""
        template = self._template_for(record)
        if template is None:
            return False
        if not self._links_move(record, template):
            self._commit_bytes(record, record.version, record.size,
                               record.digest)
            return False
        regenerated, next_template = template.splice(
            lambda raw: self._rewrite_value(record.name, raw))
        self._templates[record.name] = next_template
        data = regenerated.encode("latin-1")
        self._commit_bytes(record, record.version, len(data),
                           body_digest(data), data)
        return True

    def _links_move(self, record: DocumentRecord,
                    template: LinkTemplate) -> bool:
        """Whether regenerating *record* would point a link somewhere
        new: the page is held away or replicated (its relative links
        must go absolute), quarantined (the splice is its repair), or
        one of its distinct link values names a site document that is
        held away or replicated, or names one in ``~migrate`` form.
        Read straight off the records — not through the replica pick,
        which books the choice."""
        if record.location != self.location or record.replicas \
                or self.integrity.is_quarantined(record.name):
            return True
        for value in template.link_values():
            name = self._resolve_to_name(record.name, value)
            target = None if name is None else self.graph.find(name)
            if target is not None and (
                    target.location != self.location or target.replicas
                    or MIGRATE_MARKER in value):
                return True
        return False

    def _template_for(self, record: DocumentRecord
                      ) -> Optional[LinkTemplate]:
        """The document's current link template, built on demand.

        Templates exist for every home HTML document indexed at
        initialization or update; building here (one scan of the stored
        source) covers documents that appeared by other means.
        """
        template = self._templates.get(record.name)
        if template is None:
            if self.integrity.is_quarantined(record.name):
                # Never build a template (the regeneration source) from
                # bytes known to be corrupt.
                return None
            try:
                source = self.store.get(record.name).decode("latin-1")
            except DocumentNotFound:
                return None
            template = index_source(source)[0]
            self._templates[record.name] = template
            self.stats.template_builds += 1
        return template

    def _commit_bytes(self, record: DocumentRecord, version: int, size: int,
                      digest: str, data: Optional[bytes] = None) -> None:
        """Install a regeneration of *record* at *version*: store,
        record, copy cache.  Without *data* the bytes are on disk
        already — a replayed ``regenerate`` record, or a live one for a
        page none of whose links moved (never a quarantined page) — and
        a document a later save or relocation moved past *version* is
        left dirty."""
        if data is not None:
            self.store.put(record.name, data)
        if record.version != version:
            return
        record.size = size
        record.dirty = False
        if digest:
            record.digest = digest
        # Journal *after* the byte write — the record asserts "this
        # version's links are clean on disk", which is only true once
        # the crash-atomic put returned.  A crash in between replays
        # as still-dirty and simply regenerates again.  Replay installs
        # the digest, so the scrub catches rot from while it was down.
        self._journal("regenerate", name=record.name, version=version,
                      size=size, digest=digest)
        # Regeneration changes bytes without bumping the version: the
        # digest half of the stamp moves, and the entry goes at once.
        self.response_cache.invalidate(record.name)
        # Freshly spliced from the canonical template: whatever was
        # quarantined is repaired by construction.
        self._clear_quarantine(record.name)

    def _rewrite_value(self, base_name: str, raw: str) -> Optional[str]:
        """Rewrite one hyperlink to the target's *current* location.

        Same-site links are rewritten to absolute URLs so the containing
        document stays correct wherever it is served from; off-site links
        are left alone.
        """
        name = self._resolve_to_name(base_name, raw)
        if name is None:
            return None
        record = self.graph.find(name)
        if record is None:
            return None
        if record.location == self.location and not record.replicas:
            return self._home_prefix + name
        target = self.replication.pick(record, salt=base_name)
        if target == self.location:
            return self._home_prefix + name
        return str(migrated_url(target, self.location, name))

    # ------------------------------------------------------------------
    # Periodic machinery
    # ------------------------------------------------------------------

    def tick(self, now: float) -> List[OutboundAction]:
        """Run each round of :attr:`_rounds` due at *now*; return transfer
        directives.  Hosts call this regularly (the threaded server from
        its pinger and statistics threads, the simulator from events)."""
        self._clock = now
        actions: List[OutboundAction] = []
        for name, interval, round_ in self._rounds:
            if now - self._last_run.get(name, float("-inf")) >= interval:
                self._last_run[name] = now
                actions.extend(round_(now) or ())
        return actions

    def _repair_round(self, now: float) -> None:
        """Replication repair daemon: one pass."""
        self._book_decisions(self.replication.repair_round(now), now)

    # What each kind of applied decision counts as in EngineStats.
    _DECISION_COUNTERS = {
        "migrate": "migrations", "remigrate": "migrations",
        "revoke": "revocations", "replicate": "replications",
        "repair": "repairs", "replica_drop": "replica_drops"}

    def _book_decisions(self, decisions: Iterable[MigrationDecision],
                        now: float) -> None:
        """Keep, log and count applied decisions — whatever applied
        them: a policy round, a repair, a death, a quarantine report."""
        for decision in decisions:
            self.stats.decisions.append(decision)
            self.log.record(now, decision.kind, name=decision.name,
                            target=str(decision.target),
                            dirtied=len(decision.dirtied))
            counter = self._DECISION_COUNTERS[decision.kind]
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)

    def _recalculate_statistics(self, now: float) -> None:
        """T_st boundary: refresh own GLT row, run migration decisions."""
        own_metric = self.current_load(now)
        self.glt.update_own(own_metric, now)
        # Own GLT row only: piggybacked peer rows are gossip, rebuilt for
        # free after a restart — journaling them would bloat the log with
        # a record per transfer for state that expires in seconds.
        self._journal("glt_row", metric=own_metric)
        self._book_decisions(self.policy.consider(now, own_metric), now)
        self.graph.reset_windows()

    def _validations_due(self, now: float) -> List[OutboundAction]:
        """Co-op consistency: re-request each fetched hosted copy T_val
        after its last validation, in key order."""
        actions: List[OutboundAction] = []
        interval = self.config.validation_interval
        for key in sorted(key for key, hosted in self.hosted.items()
                          if hosted.fetched
                          and now - hosted.validated_at >= interval):
            hosted = self.hosted[key]
            if not self.membership.admit(str(hosted.home), now):
                continue  # stays due for the home's next admission
            request = self._peer_request("GET", hosted.original,
                                         "validation")
            if hosted.version:
                request.headers.set(VERSION_HEADER, hosted.version)
            fresh_hits = hosted.hits - hosted.hits_reported
            if fresh_hits > 0:
                request.headers.set(HOSTED_HITS_HEADER, str(fresh_hits))
            actions.append(OutboundAction(kind="validate", peer=hosted.home,
                                          request=request, key=hosted.key))
            hosted.validated_at = now
            self.log.record(now, "validate", key=hosted.key)
            self.stats.validations += 1
        return actions

    def _pings_due(self, now: float) -> List[OutboundAction]:
        """Pinger: force a transfer to peers whose load information is
        older than one pinger interval."""
        return [self._ping(peer, now) for peer in
                self.glt.stale_peers(now, self.config.pinger_interval)
                if self.membership.admit(str(peer), now)]

    def _ping(self, peer: Location, now: float) -> OutboundAction:
        self.log.record(now, "ping", peer=str(peer))
        self.stats.pings += 1
        return OutboundAction(kind="ping", peer=peer,
                              request=self._peer_request("HEAD", "/", "ping"))

    def _membership_due(self, now: float) -> List[OutboundAction]:
        """Membership upkeep off the engine tick.

        Applies the accrual sweep (silence-driven ``alive -> suspect``,
        ``suspect -> dead`` through the single declared-dead site), emits
        a rediscovery probe to each configured dead peer whose circuit
        admits one, and a
        ping to each heard-from peer whose open circuit does — whatever
        the pinger's schedule, so an admission is never left unspent.
        """
        transitions, deaths = self.membership.sweep(now)
        for peer_key, _old, new in transitions:
            self._journal("membership", peer=peer_key, state=new)
            self.log.record(now, "peer_" + new, peer=peer_key)
        for peer_key in deaths:
            location = self._location_of(peer_key)
            if location is not None:
                self._declare_dead(location, now)
        actions: List[OutboundAction] = []
        for peer_key in self.membership.due_probes(now):
            location = self._location_of(peer_key)
            if location is None:
                continue
            actions.append(OutboundAction(
                kind="probe", peer=location,
                request=self._peer_request("HEAD", "/", "probe")))
            self.log.record(now, "reprobe", peer=peer_key)
        for peer_key in self.membership.due_retries(now):
            location = self._location_of(peer_key)
            if location is not None:
                actions.append(self._ping(location, now))
        return actions

    def complete_action(self, action: OutboundAction,
                        response: Optional[Response], now: float, *,
                        rtt: Optional[float] = None) -> None:
        """Report the outcome of a :class:`OutboundAction`.

        ``response=None`` means the peer did not answer; enough
        consecutive failures (or accrued suspicion) declare it dead, and
        if we are the home of documents it hosted, they are revoked
        (section 4.5, case 3).  ``rtt`` is the host-measured round trip
        of a successful exchange, feeding the per-peer EWMA.
        """
        self._clock = now
        peer_key = str(action.peer)
        if response is None:
            if action.kind == "probe":
                # A rediscovery probe missed: the peer is already dead,
                # so this is not new evidence (its admission already
                # scheduled the next probe, one period further out).
                self.log.record(now, "reprobe_failed", peer=peer_key)
                return
            if action.kind == "validate" and action.key in self.hosted:
                # Transient validation failure: the stale copy keeps
                # serving until a later validation reaches the home.
                self.log.record(now, "validate_stale", key=action.key,
                                peer=peer_key)
            if action.kind == "validate" and action.key:
                # A quarantine notification that never reached the home
                # is re-armed for the next tick.
                qrec = self.integrity.get(action.key)
                if qrec is not None:
                    qrec.notified = False
            self._peer_failure(action.peer, now)
            return
        self._peer_success(peer_key, now, rtt=rtt, answered=True)
        self._absorb_piggyback(response.headers)
        has_manifest = bool(response.headers.get(HOSTED_MANIFEST_HEADER, ""))
        if action.kind == "probe" or (has_manifest
                                      and peer_key in self._reconcile_pending):
            # Probes always reconcile.  A peer that rejoined through
            # gossip (its own probe reached us first) never gets a probe
            # from our side, so the next manifest-bearing ping response
            # settles its surviving copies instead.
            self._reconcile_pending.discard(peer_key)
            self._reconcile_manifest(action.peer, response.headers, now)
        if action.kind == "validate" and action.key:
            self._finish_validation(action, response, now)

    def _finish_validation(self, action: OutboundAction, response: Response,
                           now: float) -> None:
        hosted = self.hosted.get(action.key)
        if hosted is None:
            return  # nothing to refresh
        # The home answered, so it credited the hits the request carried.
        hosted.hits_reported += action.request.headers.get_int(
            HOSTED_HITS_HEADER, 0)
        if response.status == StatusCode.NOT_MODIFIED:
            return  # the copy is current
        if response.status == StatusCode.OK:
            claimed = response.headers.get(DIGEST_HEADER, "") or ""
            if claimed and not digest_matches(response.body, claimed):
                # A refresh body that fails its own digest never replaces
                # the installed copy; the old (verified) bytes keep
                # serving and the next T_val retries.
                self.integrity.counters.pulls_rejected += 1
                self.log.record(now, "validate_rejected", key=hosted.key,
                                reason="digest")
                return
            version = response.headers.get(VERSION_HEADER, "") \
                or hosted.version
            digest = claimed or body_digest(response.body)
            self._journal("validate_refreshed", key=hosted.key,
                          size=len(response.body), version=version,
                          digest=digest)
            self._install_copy(hosted, response.body, len(response.body),
                               version, digest)
            self.log.record(now, "validate_refreshed", key=hosted.key,
                            bytes=hosted.size)
        elif response.status in (StatusCode.NOT_FOUND,
                                 StatusCode.MOVED_PERMANENTLY,
                                 StatusCode.FOUND):
            # 404: the home deleted the document.  301/302: the home
            # re-migrated or revoked it — we are no longer its host.
            # Either way, drop our copy; future requests for the old URL
            # pull again and are answered with the home's redirect.
            self._drop_hosted(hosted.key)
        elif response.status >= 500:
            # Transient statuses (503 overload, 5xx) keep the copy; the
            # next validation interval retries.
            self.log.record(now, "validate_stale", key=hosted.key,
                            status=int(response.status))

    # ------------------------------------------------------------------
    # Content integrity: scrub daemon, quarantine, repair coordination
    # ------------------------------------------------------------------

    def _scrub_round(self, now: float) -> None:
        """One budgeted pass of the background scrubber (engine tick).

        The population is every copy with a recorded digest — home
        documents (the home keeps the permanent copy wherever the
        document is assigned) plus fetched hosted copies — minus copies
        already quarantined.  The manager's cursor picks at most
        ``scrub_budget`` of them; each is re-read from the *underlying*
        store and re-hashed.
        """
        quarantined = self.integrity.is_quarantined
        population = [record.name for record in self.graph.documents()
                      if record.digest and not quarantined(record.name)]
        population += [hosted.key for hosted in self.hosted.values()
                       if hosted.fetched and hosted.digest
                       and not quarantined(hosted.key)]
        for name in self.integrity.scrub_batch(population, now):
            self._scrub_one(name, now)

    def _scrub_one(self, name: str, now: float) -> None:
        """Re-hash one copy against its recorded digest.

        Reads go to the store, never the copy cache: the scrub exists to
        catch disk rot, which a cached copy would mask."""
        if self.integrity.is_quarantined(name):
            return  # already caught earlier this round
        try:
            data = self.store.get(name)
        except DocumentNotFound:
            return  # vanished between population capture and read
        copy = self.hosted.get(name) if is_migrated_path(name) \
            else self.graph.find(name)
        if copy is not None and copy.digest \
                and not digest_matches(data, copy.digest):
            self._quarantine(copy, REASON_SCRUB, data, now)

    def _quarantine(self, copy: Union[DocumentRecord, HostedDocument],
                    reason: str, data: bytes, now: float) -> None:
        """*data*, just read for *copy*, is not what its digest names:
        quarantine the copy and log it."""
        key, kind = (copy.name, KIND_HOME) \
            if isinstance(copy, DocumentRecord) else (copy.key, KIND_HOSTED)
        self._install_quarantine(key, kind, reason, copy.digest,
                                 body_digest(data), now)
        self.log.record(now, "quarantine", key=key, copy=kind, reason=reason)

    def _install_quarantine(self, key: str, kind: str, reason: str,
                            expected: str, actual: str, now: float, *,
                            version: int = 0, replayed: bool = False) -> None:
        """Journal a quarantine and stop serving the copy.  A home
        document leaves every cache and is armed for regeneration when
        the in-memory link template (pre-corruption canonical source) can
        rebuild it.  A hosted copy's bytes are deleted and its entry
        reverts to unfetched: the next request re-pulls, carrying the
        quarantine flag so the home repairs the group from a verified
        copy.

        *replayed* installs a ``quarantine`` record at its *version*:
        the template initialize() built may come from the corrupt disk
        bytes, so it is dropped, and the quarantine holds until the
        document is re-authored.
        """
        self.integrity.quarantine(key, kind, reason, expected, actual, now)
        fields = {"key": key, "copy": kind, "reason": reason,
                  "expected": expected, "actual": actual}
        if kind == KIND_HOSTED:
            self._journal("quarantine", **fields)
            self._discard_copy(key)
            hosted = self.hosted.get(key)
            if hosted is not None:
                self._install_copy(hosted, None, 0, "", "")
            return
        if replayed:
            self._templates.pop(key, None)
        record = self.graph.find(key)
        if record is not None:
            if record.is_html and key in self._templates \
                    and not record.dirty:
                # The next serve regenerates from the template; the
                # commit replaces the corrupt bytes and clears this
                # quarantine.  Dirtied with a bump like everywhere else: a
                # dirty document's version is one nobody was served, which
                # is what lets a later migration event leave it alone.
                record.dirty = True
                record.version += 1
            record.version = max(record.version, version)
            self._journal("quarantine", version=record.version, **fields)
        self.response_cache.invalidate(key)

    def _discard_copy(self, key: str) -> None:
        """Forget a hosted copy's bytes and the cache entry made from
        them."""
        self.store.delete(key)
        self.response_cache.invalidate(key)

    def _drop_hosted(self, key: str) -> None:
        """We are no longer (or never were) *key*'s host: journal it,
        discard the copy and the entry, and lift any quarantine on it."""
        self._journal("hosted_dropped", key=key)
        self._discard_copy(key)
        self.hosted.pop(key, None)
        self._clear_quarantine(key)

    def _clear_quarantine(self, key: str) -> None:
        """Lift a quarantine after verified bytes replaced the copy (or
        the copy was dropped entirely).  Journaled so replay converges."""
        if self.integrity.clear(key) is not None:
            self._journal("quarantine_cleared", key=key)
            self.log.record(self._clock, "quarantine_cleared", key=key)

    def _quarantine_notifications(self, now: float) -> List[OutboundAction]:
        """Tell each home about our quarantined copies of its documents.

        Rides the validation machinery: a ``validate``-kind action whose
        request carries ``X-DCWS-Quarantined`` (and no version header, so
        the home cannot answer 304).  The home drops us as a holder and
        answers 301; :meth:`_finish_validation` then discards the entry
        and clears the quarantine.  Failures re-arm in
        :meth:`complete_action` for the next tick.
        """
        actions: List[OutboundAction] = []
        for qrec in self.integrity.pending_notifications():
            hosted = self.hosted.get(qrec.key)
            if hosted is None:
                qrec.notified = True  # entry already gone; nothing to say
                continue
            if not self.membership.admit(str(hosted.home), now):
                continue
            request = self._peer_request("GET", hosted.original,
                                         "validation")
            request.headers.set(QUARANTINE_HEADER, "1")
            actions.append(OutboundAction(kind="validate", peer=hosted.home,
                                          request=request, key=hosted.key))
            qrec.notified = True
            self.log.record(now, "quarantine_notify", key=hosted.key,
                            home=str(hosted.home))
        return actions

    def _drop_corrupt_holder(self, request: Request, record: DocumentRecord,
                             sender: str, now: float) -> EngineReply:
        """Home-side handling of ``X-DCWS-Quarantined``: the sender's copy
        of *record* is corrupt.  Treat the holder like a dead one — drop
        it from the replication group (falling back to full revocation
        when no live replica survives) and repair critical-first from a
        verified copy; answer 301 so the reporter discards its entry."""
        holder = self._location_of(sender)
        path = record.name
        if holder is not None and holder != self.location \
                and holder in record.locations():
            # Once dropped the sender is no holder, so a repeated
            # report changes nothing.
            self.integrity.counters.holder_quarantines_reported += 1
            self.log.record(now, "holder_quarantined", name=path,
                            holder=sender)
            decision = self.policy.drop_holder(path, holder)
            if decision is None:
                # Not droppable (no live copy would survive beyond
                # home): full revocation — the document comes home.
                decision = self.policy.revoke(path)
            self._book_decisions([decision], now)
            # Repair immediately, critical-first; the replacement
            # holder lazily pulls from copies that passed (or will
            # pass) digest verification — never from the corrupt one,
            # which no longer holds the document.
            repairs_before = self.stats.repairs
            self._repair_round(now)
            self.integrity.counters.repairs_from_verified += \
                self.stats.repairs - repairs_before
        target = str(home_url(self.location, path))
        response = redirect_response(target)
        self.stats.responses_301 += 1
        self.metrics.record_redirect(now)
        return self._finish(request, response, now, doc_name=path)

    def _location_of(self, key: str) -> Optional[Location]:
        """Resolve a peer key back to a Location (configured list first,
        parse fallback for gossip-discovered peers)."""
        for peer in self._configured_peers:
            if str(peer) == key:
                return peer
        try:
            return Location.parse(key)
        except (ValueError, NamingError):
            return None

    def _peer_success(self, peer_key: str, now: float,
                      rtt: Optional[float] = None, *,
                      answered: bool = False) -> None:
        """One success observed from *peer_key* (ping, pull, validation,
        probe, or piggybacked gossip; *answered* when it answered one of
        our transfers): feed the accrual detector, the RTT estimate and
        the circuit; apply and journal any membership recovery."""
        transition = self.membership.heartbeat(peer_key, now, rtt=rtt,
                                               answered=answered)
        if transition is None:
            return
        old, _new = transition
        self._journal("membership", peer=peer_key, state=ALIVE)
        if old == DEAD:
            self._peer_rejoined(peer_key, now)
        else:
            self.log.record(now, "peer_recovered", peer=peer_key)

    def _peer_failure(self, peer: Location, now: float) -> None:
        """One explicit transport failure toward *peer*: the membership
        table escalates alive -> suspect immediately and recommends DEAD
        once the consecutive-failure bound is hit; the declaration
        itself runs through the single :meth:`_declare_dead` site."""
        key = str(peer)
        verdict = self.membership.failure(key, now)
        if verdict == SUSPECT:
            self._journal("membership", peer=key, state=SUSPECT)
            self.log.record(now, "peer_suspect", peer=key)
        elif verdict == DEAD:
            self._declare_dead(peer, now)

    def _peer_rejoined(self, peer_key: str, now: float) -> None:
        """A dead peer answered again: false death healed.

        Re-registers it in the GLT (so the pinger resumes), logs the
        rediscovery, and runs the co-op-side half of reconciliation:
        every document *we* host for the rejoined home is forced due for
        validation right now, so copies the home re-homed or updated
        during the split are refreshed or dropped at the next tick
        instead of lingering a full T_val."""
        self.log.record(now, "peer_rejoined", peer=peer_key)
        self._reconcile_pending.add(peer_key)
        location = self._location_of(peer_key)
        if location is not None and self.glt.get(location) is None:
            self.glt.register(location)
        overdue = now - self.config.validation_interval
        for hosted in self.hosted.values():
            if str(hosted.home) == peer_key:
                hosted.validated_at = overdue

    def _declare_dead(self, peer: Location, now: float) -> None:
        """The single peer-death site, idempotent by construction.

        Both observation paths — failed pings/validations in
        :meth:`complete_action` and failed data-path pulls in
        :meth:`_degrade_pull` — can reach the failure bound for the same
        peer within one tick; :meth:`MembershipTable.mark_dead` applies
        the transition exactly once, so the journal record, the
        revocation sweep, and the repair trigger never run twice.
        """
        key = str(peer)
        if not self.membership.mark_dead(key, now):
            return
        self._journal("membership", peer=key, state=DEAD)
        self.log.record(now, "peer_dead", peer=key)
        # Documents with surviving replica holders are *dropped* from
        # the dead peer (kind ``replica_drop``) rather than revoked —
        # they keep serving from the survivors with no redirect churn.
        self._book_decisions(self.policy.revoke_all_from(peer), now)
        self.glt.remove(peer)
        # Autonomous repair, immediately: re-replicate the degraded
        # groups instead of waiting for the next scheduled round.
        # Purely logical — replacement holders pull bytes lazily.
        self._repair_round(now)

    # ------------------------------------------------------------------
    # Warm-state helpers (operator tooling and benchmark pre-warming)
    # ------------------------------------------------------------------

    def regenerate_dirty(self) -> int:
        """Regenerate every dirty HTML document now (instead of lazily on
        the next request).  Returns how many documents were rewritten."""
        count = 0
        for record in self.graph.documents():
            if record.dirty and record.is_html:
                count += self._regenerate(record)
        return count

    def seed_hosted(self, home: Location, original: str, data: bytes,
                    version: int, now: float) -> None:
        """Install a migrated document's bytes as if the lazy pull had
        already happened (a warmed co-op).  Validation is scheduled with
        the usual per-document jitter."""
        self._clock = now
        key = encode_migrated_path(home, original)
        self._install_pulled(self._hosted_entry(key, home, original), "",
                             data, len(data), str(version),
                             body_digest(data), now)

    # ------------------------------------------------------------------
    # Content administration (section 4.5, case 1)
    # ------------------------------------------------------------------

    def update_document(self, name: str, data: bytes) -> None:
        """An author changed a document: store it, bump its version, and
        refresh its outgoing edges.  Co-op copies catch up at their next
        validation."""
        record = self.graph.get(name)
        self._install_update(record, data, record.version + 1,
                             body_digest(data), record.is_html)
        self.log.record(self._clock, "content_update", name=name,
                        version=record.version)

    def _install_update(self, record: DocumentRecord, data: bytes,
                        version: int, digest: str, dirty: bool, *,
                        replayed: bool = False) -> None:
        """An author's save of *record* at *version* — live, or its
        ``content_update`` record *replayed* with the bytes on disk as
        *data*.

        Journaled before the byte write: replay bumps the version even
        if the crash ate the bytes, so co-ops revalidate instead of
        holding a stale copy that compares equal by version.  For the
        same reason a replayed save trusts its digest only when the
        bytes on disk are the ones it names; otherwise they are the
        previous, legitimate bytes, and their digest stays.
        """
        self._journal("content_update", name=record.name, version=version,
                      size=len(data), dirty=dirty, digest=digest)
        if not replayed:
            self.store.put(record.name, data)
        record.version = max(record.version, version)
        record.dirty = record.dirty or dirty
        if replayed and not (digest and digest_matches(data, digest)):
            return
        self.response_cache.invalidate(record.name)
        record.size = len(data)
        record.digest = digest
        if record.is_html:
            self.stats.parses += 1
            self.graph.set_links(record.name,
                                 self._index_html(record.name, data))
        else:
            self._templates.pop(record.name, None)
        # Authored bytes replace the copy wholesale: any quarantine
        # on the old bytes is moot.
        self._clear_quarantine(record.name)

    # ------------------------------------------------------------------
    # Piggybacking helpers
    # ------------------------------------------------------------------

    def _attach_piggyback(self, headers: Headers) -> None:
        attach_load_reports(headers, str(self.location), self.glt.snapshot())

    def _peer_request(self, method: str, target: str,
                      purpose: str) -> Request:
        """A server-to-server request: our load table piggybacked and
        the purpose the receiving engine routes on."""
        request = Request(method=method, target=target)
        self._attach_piggyback(request.headers)
        request.headers.set(PURPOSE_HEADER, purpose)
        return request

    def _hosted_manifest_for(self, home_key: str) -> str:
        """The ``original@version`` manifest of fetched documents we host
        for *home_key*, attached to ping/probe responses so a home
        rediscovering us reconciles our surviving copies in-band."""
        entries = []
        for key in sorted(self.hosted):
            hosted = self.hosted[key]
            if not hosted.fetched or str(hosted.home) != home_key:
                continue
            entries.append(f"{hosted.original}@{hosted.version or '0'}")
            if len(entries) >= HOSTED_MANIFEST_LIMIT:
                break
        return ",".join(entries)

    def _reconcile_manifest(self, peer: Location, headers: Headers,
                            now: float) -> None:
        """Home-side rejoin reconciliation.

        The rediscovered peer's probe response listed the documents it
        still holds for us, by (original path, version).  Compare each
        against the current LDG/replication-group state: a copy of a
        document we re-homed, revoked, or re-versioned during the split
        *loses* (counted here; the peer's own forced revalidation drops
        it), while a version-current copy of a still-under-target group
        *wins* — it is re-registered as a replica, which cancels the
        pending repair and returns the group to healthy without moving
        a byte.
        """
        raw = headers.get(HOSTED_MANIFEST_HEADER, "")
        if not raw:
            return
        key = str(peer)
        drops = 0
        reregistered = 0
        for token in raw.split(","):
            name, separator, version = token.rpartition("@")
            if not separator or not name:
                continue
            record = self.graph.find(normalize_path(name))
            if record is None or record.location == self.location:
                drops += 1          # deleted or revoked home: stale copy
                continue
            if peer in record.locations():
                continue            # already a holder, nothing to settle
            if str(record.version) != version:
                drops += 1          # outdated copy loses
                continue
            if record.name not in self.replication.groups or \
                    len(self.replication.live_holders(record.name)) \
                    >= self.config.replication_k:
                drops += 1          # group already whole (or unmanaged)
                continue
            decision = self.policy.repair_replica(record.name, peer, now)
            self._book_decisions([decision], now)
            reregistered += 1
        counters = self.membership.counters
        counters.reconcile_drops += drops
        counters.reconcile_reregistrations += reregistered
        if drops or reregistered:
            self.log.record(now, "reconcile", peer=key, drops=drops,
                            reregistered=reregistered)

    def _absorb_piggyback(self, headers: Headers) -> None:
        sender = extract_sender(headers)
        if not sender:
            return
        try:
            self.glt.merge(extract_load_reports(headers))
        except Exception:
            return  # malformed gossip from a peer never breaks serving
        # Gossip is a heartbeat too: a request *from* a suspect (or
        # falsely-dead) peer is proof of life, stamped at engine time.
        self._peer_success(sender, self._clock)

    def _finish(self, request: Request, response: Response, now: float, *,
                doc_name: str = "", reconstructed: bool = False
                ) -> EngineReply:
        """Common bookkeeping for every response leaving this server:
        :meth:`_frame` makes the message complete on the wire,
        :meth:`_account` books it.  The cached-read short-circuit runs
        the halves apart — the finished head bytes are kept per cache
        entry, the accounting happens per request."""
        self._frame(request, response)
        return self._account(response, now, doc_name=doc_name,
                             reconstructed=reconstructed)

    def _persists(self, request: Request) -> bool:
        """Will the response to *request* offer to keep the connection?"""
        return wants_keep_alive(request.version, request.headers)

    def _frame(self, request: Request, response: Response) -> None:
        """Piggyback, ``Content-Length``, HEAD body strip and the
        connection headers — what depends on the request, not on when
        it arrived."""
        sender = extract_sender(request.headers)
        if sender:
            # Peer transfer: piggyback our current table on the response.
            self._attach_piggyback(response.headers)
            if request.headers.get(PURPOSE_HEADER, "") in ("ping", "probe"):
                # Pings and rediscovery probes additionally carry back
                # the hosted manifest for the asking home, the in-band
                # half of rejoin reconciliation.
                manifest = self._hosted_manifest_for(sender)
                if manifest:
                    response.headers.set(HOSTED_MANIFEST_HEADER, manifest)
        # Explicit framing and connection semantics so keep-alive peers and
        # pooled channels can delimit the body without waiting for EOF.
        # (HEAD/304 Content-Length refers to the omitted body, per RFC.)
        if "content-length" not in response.headers:
            response.headers.set("Content-Length", str(len(response.body)))
        if request.method == "HEAD":
            # Every path, including errors and redirects: a HEAD response
            # must not put body bytes on the wire, or a keep-alive peer
            # reading by the head alone finds the channel dirty.
            response.body = b""
        if self._persists(request):
            response.headers.set("Connection", "keep-alive")
            response.headers.set(
                "Keep-Alive",
                f"timeout={self.config.keep_alive_timeout:g}, "
                f"max={self.config.keep_alive_max_requests}")
        else:
            response.headers.set("Connection", "close")

    def _account(self, response: Response, now: float, *,
                 doc_name: str = "", reconstructed: bool = False
                 ) -> EngineReply:
        """Count a framed response into the load metrics and wrap it
        (every reconstruction is a template splice)."""
        self._count_sent(response.body_length(), now)
        return EngineReply(response=response, doc_name=doc_name,
                           reconstructed=reconstructed,
                           spliced=reconstructed)

    def _count_sent(self, body_bytes: int, now: float) -> None:
        """Count one response of *body_bytes* into the load metrics."""
        self.metrics.record_connection(now, body_bytes + RESPONSE_HEAD_OVERHEAD)
        self.stats.bytes_sent += body_bytes

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def current_load(self, now: float) -> float:
        return self.metrics.load_metric(
            now, self.config.load_metric,
            drop_pressure_weight=self.config.drop_pressure_weight)

    def cache_counters(self) -> Dict[str, Dict[str, float]]:
        """Counters of the serve path's memory, for the admin endpoint,
        stats sampling, and benchmarks: the short-circuit's share, the
        link templates, and the copy cache's one block.  The templates'
        span and source totals are summed here, on each call."""
        cache = self.response_cache
        templates = self._templates.values()
        block = cache.stats.as_dict()
        block.update(entries=len(cache), used_bytes=cache.used_bytes,
                     budget=cache.budget, variant_bytes=cache.variant_bytes)
        counters: Dict[str, Dict[str, float]] = {
            "short_circuit": {
                "fast_hits": self.stats.fast_hits,
                "requests": self.stats.requests,
                "share": round(self.stats.fast_hits
                               / max(1, self.stats.requests), 4),
            },
            "templates": {
                "entries": len(self._templates),
                "spans": sum(template.span_count for template in templates),
                "source_bytes": sum(map(len, templates)),
                "builds": self.stats.template_builds,
                "splices": self.stats.splices,
            },
            "response_cache": block,
            # The same lookups under the benchmark harness's older name:
            # every booked miss is one read of the store beneath the cache.
            "byte_cache": {"hits": block["hits"], "misses": block["misses"]},
        }
        return counters

    def describe(self) -> Dict[str, object]:
        """A summary dict for logging and debugging."""
        return {
            "location": str(self.location),
            "documents": len(self.graph),
            "migrated_away": len(self.graph.migrated_documents()),
            "hosted": sum(1 for h in self.hosted.values() if h.fetched),
            "glt_rows": len(self.glt),
            "requests": self.stats.requests,
        }
