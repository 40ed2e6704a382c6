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
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING, Union

from repro.core.config import ServerConfig
from repro.core.consistency import DueTracker
from repro.core.eventlog import EventLog
from repro.core.document import DocumentRecord, Location
from repro.core.glt import GlobalLoadTable
from repro.core.ldg import LocalDocumentGraph
from repro.core.metrics import ServerMetrics
from repro.core.membership import (
    ALIVE,
    DEAD,
    FORGOTTEN,
    MembershipTable,
    SUSPECT,
)
from repro.core.migration import MigrationDecision, MigrationPolicy
from repro.core.naming import (
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
from repro.html.parser import parse_html
from repro.html.template import LinkTemplate, index_document
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
from repro.http.cookies import (
    build_set_cookie,
    parse_cookie_header,
)
from repro.http.urls import (
    DEFAULT_HTTP_PORT,
    URL,
    join_url,
    normalize_path,
    strip_fragment,
)
from repro.server.admin import ADMIN_PREFIX, HEALTH_PATH
from repro.server.cache import (
    CachedResponse,
    CachingStore,
    Rendition,
    ResponseCache,
)
from repro.server.entrygate import COOKIE_NAME, EntryGate
from repro.server.filestore import DocumentStore, MemoryStore, guess_content_type
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
    from repro.client.breaker import CircuitBreaker
    from repro.server.persistence import RecoveryStats
    from repro.server.wal import WriteAheadJournal

VERSION_HEADER = "X-DCWS-Version"
PURPOSE_HEADER = "X-DCWS-Purpose"
# A co-op piggybacks the hits a hosted document received since its last
# validation; the home credits them to the document's LDG tuple, so
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
    """A clean read answered from memory, framed and pending its
    counters: a cached 200, or a 304 off the document's rendition.

    Produced by :meth:`DCWSEngine.fast_lookup` and booked by
    :meth:`DCWSEngine.fast_commit`, both within one hold of the host's
    engine lock.
    """

    record: DocumentRecord
    cached: Optional[CachedResponse]   # None for a 304: all head
    response: Response
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
    hits_reported: int = 0  # hits already piggybacked back to the home
    # Home's content digest of the identity body, claimed on the pull /
    # validation response and verified before install; "" for legacy
    # copies pulled from digestless homes.
    digest: str = ""


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
    template_builds: int = 0   # link templates built (each costs a parse)
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
        # Byte cache (DistCache-style) in front of disk-backed stores;
        # memory stores are already memory-resident, and a store the
        # caller pre-wrapped keeps its own cache.
        if config.byte_cache_bytes > 0 and \
                not isinstance(store, (MemoryStore, CachingStore)):
            store = CachingStore(store, config.byte_cache_bytes,
                                 stripes=config.lock_stripes)
        self.store = store
        # Rendered-response cache keyed by (name, version, method).
        self.response_cache = ResponseCache(config.response_cache_entries,
                                            stripes=config.lock_stripes)
        # Per-document link templates for splice reconstruction, synced at
        # every point the stored bytes change (initial parse, author
        # update, regeneration commit).  Keyed by name: migration events
        # bump a document's *version* without touching its bytes, so the
        # template stays valid across them.
        self._templates: Dict[str, LinkTemplate] = {}
        # Renditions by store key — home documents and fetched hosted
        # copies: validators, the gzip variant and the framed 304 blocks
        # of a copy's (version, digest); _rendition() replaces a stale one.
        self._renditions: Dict[str, Rendition] = {}
        # Host capability: front ends that can deliver a FileBody with
        # os.sendfile set this; large clean disk-backed GETs then skip
        # the byte read entirely (see _serve_copy).
        self.sendfile_enabled = False
        # Multi-process hosts install a callable here returning the
        # supervisor's per-worker roster for /~dcws/workers.
        self.worker_view = None
        # Tiered shedding input: hosts set this before dispatching when
        # their queue/connection pressure crosses ``config.shed_pressure``.
        # While True, expensive work (regenerations, first-use pulls) is
        # shed with 503 while cache hits and 304s keep being served.
        self.overloaded = False
        self.graph = LocalDocumentGraph(
            location, enforce_entry_home=config.protect_entry_points)
        self.glt = GlobalLoadTable(location)
        self.policy = MigrationPolicy(config, self.graph, self.glt)
        self.policy.peer_available = self._peer_available
        self.policy.on_decision = self._journal_decision
        self.metrics = ServerMetrics(config.stats_interval)
        self.validation = DueTracker(config.validation_interval)
        # Adaptive membership: the alive -> suspect -> dead -> forgotten
        # state machine driven by the accrual failure detector, plus the
        # rediscovery re-probe schedule for falsely-dead configured
        # peers.  Every success/failure observation below feeds it via
        # _peer_success/_peer_failure; all DEAD declarations it
        # recommends flow through the single journaled _declare_dead.
        self.membership = MembershipTable.from_config(config)
        # Replication groups with autonomous repair (replication_k >= 2):
        # the manager owns group bookkeeping and the repair loop; its
        # decisions surface through the policy callback above, so they
        # are journaled like every other relocation.
        # ``alive`` (suspects count as live) governs holder retention
        # and serving; ``targetable`` (strictly alive) governs where new
        # replicas may be placed — a suspect peer keeps its documents
        # but receives no new ones.
        # End-to-end content integrity: digests, the scrub daemon's
        # schedule/cursor, and the quarantine table (see
        # repro.server.integrity).  Wired into replication below so a
        # quarantined holder is treated exactly like a dead one.
        self.integrity = IntegrityManager(config)
        self.replication: Optional[ReplicationManager] = None
        if config.replication_k > 1:
            self.replication = ReplicationManager(
                config, self.graph, self.glt, self.policy,
                alive=self._peer_live,
                targetable=self._peer_available,
                quarantined=self.integrity.holder_quarantined,
                log=lambda msg: self.log.record(self._clock, "replication",
                                                detail=msg))
        # Set by hosts that own a pooled transport: per-peer circuit
        # breaker consulted for migration-target availability and
        # surfaced by the /~dcws/peers endpoint.
        self.breaker: Optional["CircuitBreaker"] = None
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
        self.entry_gate: Optional[EntryGate] = None
        if config.entry_gate_secret:
            self.entry_gate = EntryGate(config.entry_gate_secret,
                                        config.entry_gate_ttl)
        self._entry_points = {normalize_path(p) for p in entry_points}
        self._last_stats_at: Optional[float] = None
        self._last_ping_at: Optional[float] = None
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
        restored = self.policy.restored(decision.name)
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
            migrated_at=restored[1] if restored else None)

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
        self._last_stats_at = now
        self._last_ping_at = now
        self._initialized = True

    def _index_html(self, base_name: str, data: bytes) -> List[str]:
        """One parse and one walk, two products: the document's link names
        for the LDG and a fresh link template for splice reconstruction."""
        template, links = index_document(parse_html(data.decode("latin-1")))
        self._templates[base_name] = template
        self.stats.template_builds += 1
        names: List[str] = []
        for value in links:
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
            # probes never inflate hit counters or the CPS/BPS metrics,
            # and never bounce off the entry gate.
            return self._handle_health(request)
        self.stats.requests += 1
        self._absorb_piggyback(request.headers)
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

    def fast_lookup(self, request: Request, now: float) -> Optional[_FastHit]:
        """Try to resolve *request* as a clean read from memory (host
        holds the engine lock).

        Only the plainest requests qualify — a client GET/HEAD, without
        ``Range``, of a clean, local, unreplicated document — and they
        skip :meth:`handle_request`'s routing, piggyback and negotiation
        steps.  ``None`` sends the host there instead.  A revalidation
        whose validators name the document's current rendition is
        answered 304 from that rendition alone: no cache lookup, no
        store read.  Anything else needs the cached 200; a conditional
        that does not match is served exactly like an unconditional
        request.  Nothing here mutates engine state but the two memos
        of framed header blocks (on the rendition for 304s, on the cache
        entry's ``framed`` for 200s): a flavour's first hit goes through
        :meth:`_render_entity`, the renderer :meth:`_serve_copy` uses,
        and its headers are kept; every later hit gets a copy of that
        block.  :meth:`fast_commit` books the hit through the same
        :meth:`_book`.
        """
        if request.method not in ("GET", "HEAD"):
            return None
        if self.entry_gate is not None:
            # Gate checks and cookie issuance are time-dependent per
            # request; gated sites always take the slow path.
            return None
        facts = request.headers.facts()
        if facts.peer or facts.ranged:
            return None  # peer semantics, Range negotiation: slow path
        path = request.route
        if path == HEALTH_PATH or path.startswith(ADMIN_PREFIX) \
                or is_migrated_path(path):
            return None
        record = self.graph.find(path)
        if record is None or record.dirty or record.replicas \
                or record.location != self.location:
            return None
        if facts.conditional:
            # A 304 is all head and never meets the response cache, so
            # the quarantine that empties the cache must be asked here.
            if self.integrity.is_quarantined(path):
                return None
            rendition = self._rendition(path, record.version, record.digest)
            if not_modified(request.headers, rendition.etag,
                            rendition.last_modified):
                return _FastHit(
                    record=record, cached=None, kind="304",
                    response=self._not_modified_response(
                        request, rendition, home=True))
        cached = self.response_cache.get(path, record.version,
                                         request.method)
        if cached is None:
            return None
        gzip = self._wants_gzip(request, cached)
        flavour = (gzip, self._persists(request))
        framed = cached.framed.get(flavour)
        if framed is not None:
            response = Response(
                status=StatusCode.OK, headers=framed.copy(),
                body=cached.gzip_body if gzip else cached.body)
        else:
            response, __ = self._render_entity(request, cached, home=True)
            cached.framed[flavour] = response.headers.memoised_copy()
        return _FastHit(record=record, cached=cached, response=response,
                        kind="gzip" if gzip else "identity")

    def fast_commit(self, hit: _FastHit, request: Request,
                    now: float) -> EngineReply:
        """Book a :meth:`fast_lookup` hit, within the same hold of the
        engine lock, counted exactly like the slow path counts it.  The
        response left :meth:`fast_lookup` framed; only the accounting
        half of :meth:`_finish` is left to do."""
        self._clock = now
        self.stats.requests += 1
        self.stats.fast_hits += 1
        hit.record.record_hit()
        self._book(hit.kind, hit.cached)
        return self._account(hit.response, now, doc_name=hit.record.name)

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
        privileged = (purpose in ("migration-pull", "validation")
                      and self._sender_is_assigned(sender, record))
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
            return self._holder_quarantined(request, record, sender, now)
        if not record.entry_point and not self._gate_passes(request, now):
            return self._gate_bounce(request, now, doc_name=record.name)
        if record.location != self.location and not privileged:
            # Migrated away: 301 to the current location (section 4.4).
            # Pull and validation requests from the *assigned* co-op are
            # the exception: the home keeps the permanent copy and must
            # serve it.  A co-op that is no longer the document's host
            # (the home re-migrated it) gets the same 301 — that is how
            # it learns to stop serving its stale copy.
            target = self._pick_location(record, salt=request.target)
            location_url = migrated_url(target, self.location, path)
            self.metrics.record_redirect(now)
            self.stats.responses_301 += 1
            response = redirect_response(str(location_url))
            if self.replication is not None:
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
        answer a co-op's version check, and mint the gate cookie."""
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
            if self.overloaded and self.config.tiered_shedding:
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
        cookie = None
        if self.entry_gate is not None and record.entry_point:
            # Gate cookies are time-dependent, so they are applied per
            # request on top of the cached rendering.
            cookie = build_set_cookie(
                COOKIE_NAME, self.entry_gate.issue(now),
                max_age=int(self.config.entry_gate_ttl))
        return self._serve_copy(request, record, now, cookie=cookie,
                                reconstructed=reconstructed)

    # -- one way to serve a stored copy ------------------------------------

    def _rendition(self, key: str, version: object, digest: str) -> Rendition:
        """The rendition of the copy stored under *key* at its current
        ``(version, digest)``, made — and the one of any older stamp
        dropped — on demand.  No validators for a versionless hosted
        copy, which switches the 304 and the response cache off for it."""
        rendition = self._renditions.get(key)
        if rendition is None or rendition.version != version \
                or rendition.digest != digest:
            rendition = self._renditions[key] = Rendition.of(
                key, version, digest)
        return rendition

    def _serve_copy(self, request: Request,
                    copy: Union[DocumentRecord, HostedDocument], now: float,
                    *, cookie: Optional[str] = None,
                    reconstructed: bool = False
                    ) -> Union[EngineReply, PullFromHome]:
        """Answer *request* from the bytes stored for *copy* — a clean
        home document or a fetched hosted copy — with the 200, 206, 304
        or 416 its headers negotiate.

        Everything derived from the copy's ``(version, digest)`` is read
        off its rendition; the identity bytes come from the response
        cache, else the store.  Two things differ by whose copy it is.
        A home stamps ``X-DCWS-Version`` (and, on a gated entry point,
        *cookie*) and may hand a large body to ``sendfile``; a co-op
        does neither.  And bytes that are missing, or that fail the
        digest on a fill, make a home quarantine the document and answer
        503, a co-op drop the copy and pull it again.
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
        rendition = self._rendition(key, copy.version, copy.digest)
        if rendition.etag and not_modified(request.headers, rendition.etag,
                                           rendition.last_modified):
            self._book("304")
            return self._account(
                self._not_modified_response(request, rendition, home=home),
                now, **flags)
        if home and cookie is None and self.sendfile_enabled \
                and request.method == "GET" \
                and request.headers.get("Range") is None:
            # Zero-copy delivery of large disk-backed bodies: hand the
            # transport a FileBody for os.sendfile instead of reading the
            # bytes.  Deliberately bypasses the byte/response caches so
            # one big file cannot flush the hot set; small documents (or
            # ones already byte-cached) keep the cached path below.
            source = self.store.sendfile_source(key)
            if source is not None \
                    and source[1] >= self.config.sendfile_min_bytes:
                response = self._entity_head(copy.content_type, source[1],
                                             rendition, varies=False)
                response.body_file = FileBody(path=source[0], size=source[1])
                response.headers.set(VERSION_HEADER, str(copy.version))
                if copy.digest:
                    # Stamped from the record, not from re-hashing the
                    # file: in-transit verification must not cost the
                    # zero-copy path a body read.
                    response.headers.set(DIGEST_HEADER, copy.digest)
                self._book("identity")
                return self._finish(request, response, now, **flags)
        # Never cache versionless copies: two pulls of the same key
        # could then collide across re-migrations.
        cached = self.response_cache.get(key, copy.version, request.method) \
            if rendition.etag else None
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
                return self._start_pull(request, copy)
            wants_variant = request.method == "GET" \
                and self.config.gzip_enabled
            # The rendition's variant is the deflate of the bytes that
            # hash to its digest, so a fill that would make it, or pair
            # the kept one with the bytes just read, first shows those
            # bytes to be the ones: a hash beside the one deflate pass,
            # then a hash instead of a deflate pass ever after.
            keeps_variant = wants_variant and bool(copy.digest) \
                and compressible(copy.content_type)
            # Serve-path integrity check: on every such fill, and
            # otherwise on every Nth cache miss, re-hash the bytes just
            # read against the recorded digest, so bit-rot on a copy
            # the scrubber has not reached yet is still caught before
            # the body leaves the server.
            if copy.digest \
                    and (self.integrity.sample_serve() or keeps_variant) \
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
                return self._start_pull(request, copy)
            gzip_body = rendition.gzip_body if keeps_variant else None
            if wants_variant and gzip_body is None:
                gzip_body = maybe_gzip(data, copy.content_type)
                if keeps_variant:
                    rendition.gzip_body = gzip_body
            cached = CachedResponse(
                body=b"" if request.method == "HEAD" else data,
                content_length=len(data),
                content_type=copy.content_type,
                version=str(copy.version),
                etag=rendition.etag,
                last_modified=rendition.last_modified,
                gzip_body=gzip_body,
                digest=copy.digest)
            if rendition.etag:
                self.response_cache.put(key, copy.version, request.method,
                                        cached)
        response, kind = self._render_entity(request, cached, home=home,
                                             cookie=cookie)
        self._book(kind, cached)
        return self._account(response, now, **flags)

    def _not_modified_response(self, request: Request, rendition: Rendition,
                               *, home: bool) -> Response:
        """The framed 304 for a client validator naming *rendition*: the
        one builder of that head, and its memo.  A 304 is all head and a
        client's head depends on the request only through "does the
        connection persist", so the block is built once per flavour and
        copied after that.  A peer's head carries the load table of the
        moment: built afresh, never kept."""
        persists = self._persists(request)
        peer = bool(extract_sender(request.headers))
        framed = None if peer else rendition.not_modified.get(persists)
        if framed is not None:
            return Response(status=StatusCode.NOT_MODIFIED,
                            headers=framed.copy())
        response = Response(status=StatusCode.NOT_MODIFIED)
        response.headers.set("ETag", rendition.etag)
        response.headers.set("Last-Modified", rendition.last_modified)
        if home:
            response.headers.set(VERSION_HEADER, str(rendition.version))
        self._frame(request, response)
        if not peer:
            rendition.not_modified[persists] = \
                response.headers.memoised_copy()
        return response

    @staticmethod
    def _entity_head(content_type: str, length: int, validators: object,
                     *, varies: bool) -> Response:
        """A 200 carrying the fields every full response for a stored
        copy starts with; *validators* is the copy's rendition or its
        cache entry (both carry ``etag``/``last_modified``, empty for a
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

    def _render_entity(self, request: Request, cached: CachedResponse, *,
                       home: bool, cookie: Optional[str] = None
                       ) -> Tuple[Response, str]:
        """Build and frame the 200/206/416 for one cached rendering.

        Negotiates ``Range`` (single byte range against the identity
        representation) and ``Accept-Encoding: gzip`` (the pre-compressed
        variant stored at cache-fill time).  The validators ride on every
        flavor so a client can revalidate whatever it received.  No
        counter is touched here: the caller books the returned kind —
        ``"identity"``, ``"gzip"``, ``"206"`` or ``"416"`` — through
        :meth:`_book`.  The identity and gzip bodies are the *shared*
        cached bytes objects, never a copy.
        """
        response = self._entity_head(
            cached.content_type, cached.content_length, cached,
            varies=cached.gzip_body is not None)
        response.body = cached.body
        kind = "identity"
        range_header = request.headers.get("Range")
        span = parse_range(range_header, cached.content_length) \
            if range_header and request.method == "GET" else None
        if span is RANGE_UNSATISFIABLE:
            kind = "416"
            response.status = StatusCode.RANGE_NOT_SATISFIABLE
            response.body = b""
            response.headers.set("Content-Length", "0")
            response.headers.set(
                "Content-Range", f"bytes */{cached.content_length}")
        elif span is not None:
            kind = "206"
            start, end = span
            response.status = StatusCode.PARTIAL_CONTENT
            response.body = cached.body[start:end + 1]
            response.headers.set("Content-Range",
                                 content_range(span, cached.content_length))
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
            response.headers.set(VERSION_HEADER, cached.version)
        if cookie is not None:
            response.headers.set("Set-Cookie", cookie)
        self._frame(request, response)
        return response, kind

    @staticmethod
    def _wants_gzip(request: Request, cached: CachedResponse) -> bool:
        """Does a full 200 for *request* carry the compressed variant?"""
        return cached.gzip_body is not None and request.method == "GET" \
            and accepts_gzip(request.headers)

    def _book(self, kind: str,
              cached: Optional[CachedResponse] = None) -> None:
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
                    cached.content_length - len(cached.gzip_body)
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

    def _gate_passes(self, request: Request, now: float) -> bool:
        """No gate here, a peer asking, or a valid session cookie."""
        if self.entry_gate is None or extract_sender(request.headers):
            return True
        cookie_header = request.headers.get("Cookie", "") or ""
        token = parse_cookie_header(cookie_header).get(COOKIE_NAME)
        return self.entry_gate.validate(token, now)

    def _gate_bounce(self, request: Request, now: float, *,
                     doc_name: str, home: Optional[Location] = None
                     ) -> EngineReply:
        """Redirect an ungated deep link to the site's front door
        (section 3.1: "force them to come in the front door")."""
        front_host = home if home is not None else self.location
        entries = sorted(self._entry_points) or ["/"]
        front_door = str(home_url(front_host, entries[0])) \
            if home is None else str(home_url(front_host, "/"))
        response = Response(status=StatusCode.FOUND)
        response.headers.set("Location", front_door)
        response.headers.set("Content-Type", "text/html")
        response.body = (f'<html><body>Please enter via '
                         f'<a href="{front_door}">{front_door}</a>'
                         f'</body></html>').encode("latin-1")
        self.metrics.record_redirect(now)
        return self._finish(request, response, now, doc_name=doc_name)

    def _sender_is_assigned(self, sender: str,
                            record: DocumentRecord) -> bool:
        """Is *sender* (a ``host:port`` string) a current host of *record*?"""
        if not sender:
            return False
        return any(sender == str(location)
                   for location in record.locations())

    def _pick_location(self, record: DocumentRecord, salt: str) -> Location:
        """Choose among a migrated document's locations.

        With the prototype's single-location rule this is just the primary;
        with replication enabled the choice is a deterministic hash so load
        spreads without per-request state.
        """
        if self.replication is not None:
            # Replication groups: power-of-two-choices over the live
            # holders, weighted by last-known GLT load.
            return self.replication.pick(record, salt)
        locations = sorted(record.locations(), key=str)
        # shard_of, not hash(): a str's hash is salted per process.
        return locations[shard_of(f"{record.name}|{salt}", len(locations))]

    # -- co-op (migrated) documents -------------------------------------

    def _handle_coop(self, request: Request, key: str, home: Location,
                     original: str, now: float) -> Union[EngineReply, PullFromHome]:
        if not self._gate_passes(request, now):
            return self._gate_bounce(request, now, doc_name=key, home=home)
        hosted = self._hosted_entry(key, home, original)
        hosted.hits += 1
        if not hosted.fetched:
            if self.overloaded and self.config.tiered_shedding:
                # First-use pull is the co-op's expensive tier: refuse it
                # under pressure; already-fetched copies keep serving.
                return self._shed(request, now, doc_name=key, kind="pull")
            # Lazy migration, sub-condition 1 (section 4.2): no local copy
            # yet — pull from the home server, then serve and cache.
            return self._start_pull(request, hosted)
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

    def _start_pull(self, request: Request,
                    hosted: HostedDocument) -> PullFromHome:
        """Directive to fetch a hosted document's bytes from its home."""
        self.stats.pulls_started += 1
        pull_request = self._peer_request("GET", hosted.original,
                                          "migration-pull")
        if self.integrity.is_quarantined(hosted.key):
            # Tell the home this pull replaces a quarantined copy, so it
            # drops us as a holder and repairs the replication group from
            # a verified copy — never from ours.
            pull_request.headers.set(QUARANTINE_HEADER, "1")
        return PullFromHome(key=hosted.key, home=hosted.home,
                            original=hosted.original, request=pull_request,
                            client_request=request)

    def complete_pull(self, pull: PullFromHome, response: Optional[Response],
                      now: float, *, home_down: bool = False,
                      rtt: Optional[float] = None,
                      corrupt: bool = False) -> EngineReply:
        """Finish a lazy-migration pull: cache the bytes and serve them.

        ``response=None`` means the transfer failed; the reply degrades
        gracefully instead of erroring (302 back to the home — the client
        may well reach it even when we cannot — or, when *home_down* says
        the home's circuit is open, 503 + Retry-After so clients back
        off).  Transport failures feed :attr:`membership` exactly like
        failed pings, so a dead home is declared from the data path.

        ``corrupt=True`` means the transport-layer digest check rejected
        the body (and the pool's one-shot retry failed too): the reply is
        a 302 to the home, and nothing corrupt is installed or served.
        """
        self._clock = now
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
            # Home unreachable, circuit open, or home erroring: degrade.
            # The hosted entry stays so a later request retries the pull.
            return self._degrade_pull(pull, response, now,
                                      home_down=home_down)
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
        self._peer_success(str(pull.home), now, rtt=rtt)
        # Belt-and-braces digest verification at install time: the pool
        # already rejected mismatching bodies in transit, but fault-free
        # transports (the simulator, a future HTTP client) land here too.
        claimed = response.headers.get(DIGEST_HEADER, "") or ""
        if claimed and not digest_matches(response.body, claimed):
            return self._reject_corrupt_pull(pull, now)
        hosted.content_type = response.headers.get("Content-Type") \
            or hosted.content_type
        self._install_pulled(
            hosted, response.body,
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

    def _install_copy(self, hosted: HostedDocument, data: bytes,
                      version: str, digest: str) -> None:
        """Store verified bytes as *hosted*'s copy.  The new stamp is
        what retires the old rendition; the cache entries are dropped
        by hand because a refresh may keep the version."""
        self.store.put(hosted.key, data)
        self.response_cache.invalidate(hosted.key)
        hosted.fetched = True
        hosted.size = len(data)
        hosted.version = version
        hosted.digest = digest
        self._clear_quarantine(hosted.key)

    def _install_pulled(self, hosted: HostedDocument, data: bytes,
                        version: str, digest: str, now: float) -> None:
        """A first copy, pulled or seeded: journal, store, schedule."""
        # Journal before the byte write: a crash in between recovers the
        # hosted entry as unfetched, and the next request re-pulls — lost
        # work, never lost state.
        self._journal("pull", key=hosted.key, home=str(hosted.home),
                      original=hosted.original, size=len(data),
                      version=version, content_type=hosted.content_type,
                      digest=digest)
        self._install_copy(hosted, data, version, digest)
        # Jitter each copy's first validation deadline so documents
        # pulled in a burst (e.g. right after a warm start) do not
        # re-validate in synchronized storms that flood the home server.
        jitter = shard_of(hosted.key, 997) / 997.0  # same in every process
        self.validation.register(
            hosted.key, now - jitter * self.config.validation_interval)

    def _reject_corrupt_pull(self, pull: PullFromHome,
                             now: float) -> EngineReply:
        """A pull whose body failed digest verification: count it, keep
        nothing, and 302 the client to the home — the home answered, so
        corruption is not evidence of death and the client can still be
        served a good copy from the source."""
        self.integrity.counters.pulls_rejected += 1
        self.log.record(now, "pull_rejected", key=pull.key,
                        home=str(pull.home), reason="digest")
        return self._degrade_pull(pull, None, now, home_down=False,
                                  corrupt=True)

    def _degrade_pull(self, pull: PullFromHome,
                      response: Optional[Response], now: float, *,
                      home_down: bool, corrupt: bool = False) -> EngineReply:
        """Answer a failed pull without a 5xx of our own making.

        Transport failure with the circuit still closed → 302 back to the
        home (the client may reach it even when we cannot).  Circuit open
        or home answering 5xx → 503 + Retry-After, the paper's overload
        rule: clients back off instead of hammering a known-bad path.
        A digest-rejected pull (*corrupt*) always takes the redirect arm:
        the home is alive and holds the canonical copy.
        """
        home_key = str(pull.home)
        status = 0 if response is None else int(response.status)
        self.stats.pulls_degraded += 1
        self.log.record(now, "pull_failed", key=pull.key, status=status,
                        home=home_key)
        if response is None and not home_down and not corrupt:
            # A real transport failure we just observed (a breaker-open
            # fast-fail never reached the wire, so it is not evidence —
            # and neither is a digest rejection: the home *answered*):
            # count it toward dead-peer declaration like a failed ping.
            # The membership table keeps this path and the ping path in
            # complete_action from double-declaring within one tick.
            self._peer_failure(pull.home, now)
        if not corrupt and (home_down or response is not None):
            self.log.record(now, "pull_degraded", key=pull.key, mode="shed")
            return self._unavailable(pull.client_request, now,
                                     "document temporarily unavailable",
                                     doc_name=pull.key)
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
        """Splice the current locations into the document's link template
        — replacement URLs go into the canonical source, nothing is
        re-parsed — and write the result back.  ``False``, with nothing
        touched, when there is no template and no clean source to build
        one from: a quarantined document whose template is gone stays
        quarantined until it is re-authored."""
        template = self._template_for(record)
        if template is None:
            return False
        regenerated, next_template = template.splice(
            lambda raw: self._rewrite_value(record.name, raw))
        self._templates[record.name] = next_template
        self._commit_bytes(record, regenerated.encode("latin-1"))
        return True

    def _template_for(self, record: DocumentRecord
                      ) -> Optional[LinkTemplate]:
        """The document's current link template, built on demand.

        Templates exist for every home HTML document parsed at
        initialization or update; building here (one parse, no serialize
        round trip) covers documents that appeared by other means.
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
            template = index_document(parse_html(source))[0]
            self._templates[record.name] = template
            self.stats.template_builds += 1
        return template

    def _commit_bytes(self, record: DocumentRecord, data: bytes) -> None:
        """Install regenerated bytes: store, record, response cache."""
        self.store.put(record.name, data)
        record.size = len(data)
        record.dirty = False
        record.digest = body_digest(data)
        # Journal *after* the byte write — the record asserts "this
        # version's links are clean on disk", which is only true once
        # the crash-atomic put returned.  A crash in between replays
        # as still-dirty and simply regenerates again.
        self._journal("regenerate", name=record.name,
                      version=record.version, size=record.size,
                      digest=record.digest)
        # Regeneration changes bytes without bumping the version, so
        # the rendered-response cache must be invalidated explicitly.
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
        target = self._pick_location(record, salt=base_name)
        if target == self.location:
            return self._home_prefix + name
        return str(migrated_url(target, self.location, name))

    # ------------------------------------------------------------------
    # Periodic machinery
    # ------------------------------------------------------------------

    def tick(self, now: float) -> List[OutboundAction]:
        """Run any periodic work due at *now*; return transfer directives.

        Hosts call this regularly (the threaded server from its pinger and
        statistics threads, the simulator from scheduled events).
        """
        self._clock = now
        actions: List[OutboundAction] = []
        if self._last_stats_at is None or \
                now - self._last_stats_at >= self.config.stats_interval:
            self._recalculate_statistics(now)
            self._last_stats_at = now
        if self.replication is not None and self.replication.due(now):
            self._repair_round(now)
        if self.integrity.scrub_due(now):
            self._scrub_round(now)
        actions.extend(self._quarantine_notifications(now))
        actions.extend(self._validations_due(now))
        if self._last_ping_at is None or \
                now - self._last_ping_at >= self.config.pinger_interval:
            actions.extend(self._pings_due(now))
            self._last_ping_at = now
        actions.extend(self._membership_due(now))
        return actions

    def _repair_round(self, now: float) -> None:
        """Replication repair daemon: one pass (when there is one)."""
        if self.replication is not None:
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
        """Co-op consistency: re-request hosted documents every T_val."""
        actions: List[OutboundAction] = []
        for key in self.validation.due(now):
            hosted = self.hosted.get(str(key))
            if hosted is None or not hosted.fetched:
                self.validation.forget(key)
                continue
            request = self._peer_request("GET", hosted.original,
                                         "validation")
            if hosted.version:
                request.headers.set(VERSION_HEADER, hosted.version)
            fresh_hits = hosted.hits - hosted.hits_reported
            if fresh_hits > 0:
                request.headers.set(HOSTED_HITS_HEADER, str(fresh_hits))
                hosted.hits_reported = hosted.hits
            actions.append(OutboundAction(kind="validate", peer=hosted.home,
                                          request=request, key=hosted.key))
            self.validation.mark(key, now)
            self.log.record(now, "validate", key=hosted.key)
            self.stats.validations += 1
        return actions

    def _pings_due(self, now: float) -> List[OutboundAction]:
        """Pinger: force a transfer to peers whose load information is
        older than one pinger interval."""
        actions: List[OutboundAction] = []
        for peer in self.glt.stale_peers(now, self.config.pinger_interval):
            actions.append(OutboundAction(
                kind="ping", peer=peer,
                request=self._peer_request("HEAD", "/", "ping")))
            self.log.record(now, "ping", peer=str(peer))
            self.stats.pings += 1
        return actions

    def _membership_due(self, now: float) -> List[OutboundAction]:
        """Membership upkeep off the engine tick.

        Applies the accrual sweep (silence-driven ``alive -> suspect``,
        ``suspect -> dead`` through the single declared-dead site,
        ``dead -> forgotten`` ageing) and emits rediscovery probes for
        configured dead/forgotten peers whose jittered exponential
        re-probe period has elapsed.  Each probe first collapses the
        tripped breaker's backoff (:meth:`CircuitBreaker.allow_probe`)
        so it reaches the wire as the half-open trial rather than
        fast-failing locally.
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
            if self.breaker is not None:
                self.breaker.allow_probe(peer_key, now)
            actions.append(OutboundAction(
                kind="probe", peer=location,
                request=self._peer_request("HEAD", "/", "probe")))
            self.membership.probe_sent(peer_key, now)
            self.log.record(now, "reprobe", peer=peer_key)
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
                # so this is not new evidence — just reopen the probe
                # slot (the backoff was advanced at send time).
                self.membership.probe_failed(peer_key, now)
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
        self._peer_success(peer_key, now, rtt=rtt)
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
        if hosted is None or response.status == StatusCode.NOT_MODIFIED:
            return  # nothing to refresh, or the copy is current
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
            self._install_copy(hosted, response.body, version, digest)
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

        Reads bypass the byte cache (``CachingStore.inner``): the scrub
        exists to catch disk rot, which a warm cache would mask."""
        if self.integrity.is_quarantined(name):
            return  # already caught earlier this round
        store = self.store.inner if isinstance(self.store, CachingStore) \
            else self.store
        try:
            data = store.get(name)
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
        journal that and stop serving the copy.  A home document leaves
        every cache and is armed for regeneration when the in-memory
        link template (pre-corruption canonical source) can rebuild it.
        A hosted copy's bytes are deleted and its entry reverts to
        unfetched: the next request re-pulls, carrying the quarantine
        flag so the home repairs the group from a verified copy."""
        home = isinstance(copy, DocumentRecord)
        key, kind = (copy.name, KIND_HOME) if home else (copy.key, KIND_HOSTED)
        fields = {"key": key, "copy": kind, "reason": reason,
                  "expected": copy.digest, "actual": body_digest(data)}
        self.integrity.quarantine(key, kind, reason, copy.digest,
                                  fields["actual"], now)
        if home:
            if copy.is_html and key in self._templates and not copy.dirty:
                # The next serve regenerates from the template; the
                # commit replaces the corrupt bytes and clears this
                # quarantine.  Dirtied with a bump like everywhere else: a
                # dirty document's version is one nobody was served, which
                # is what lets a later migration event leave it alone.
                copy.dirty = True
                copy.version += 1
            self._journal("quarantine", version=copy.version, **fields)
            self.response_cache.invalidate(key)
            if isinstance(self.store, CachingStore):
                self.store.cache.invalidate(key)
        else:
            self._journal("quarantine", **fields)
            self._discard_copy(key)
            copy.fetched = False
            copy.version = ""
            copy.digest = ""
            copy.size = 0
        self.log.record(now, "quarantine", key=key, copy=kind, reason=reason)

    def _discard_copy(self, key: str) -> None:
        """Forget a hosted copy's bytes and everything made from them —
        the one place a rendition goes, so none outlives its copy."""
        self.store.delete(key)
        self.response_cache.invalidate(key)
        self._renditions.pop(key, None)

    def _drop_hosted(self, key: str) -> None:
        """We are no longer (or never were) *key*'s host: journal it,
        discard the copy and the entry, and lift any quarantine on it."""
        self._journal("hosted_dropped", key=key)
        self._discard_copy(key)
        self.validation.forget(key)
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
            request = self._peer_request("GET", hosted.original,
                                         "validation")
            request.headers.set(QUARANTINE_HEADER, "1")
            actions.append(OutboundAction(kind="validate", peer=hosted.home,
                                          request=request, key=hosted.key))
            qrec.notified = True
            self.log.record(now, "quarantine_notify", key=hosted.key,
                            home=str(hosted.home))
        return actions

    def _holder_quarantined(self, request: Request, record: DocumentRecord,
                            sender: str, now: float) -> EngineReply:
        """Home-side handling of ``X-DCWS-Quarantined``: the sender's copy
        of *record* is corrupt.  Treat the holder like a dead one — drop
        it from the replication group (falling back to full revocation
        when no live replica survives) and repair critical-first from a
        verified copy; answer 301 so the reporter discards its entry."""
        holder = self._location_of(sender)
        path = record.name
        if holder is not None and holder != self.location \
                and any(holder == loc for loc in record.locations()) \
                and self.integrity.report_bad_holder(path, holder):
            self.log.record(now, "holder_quarantined", name=path,
                            holder=sender)
            decision = self.policy.drop_holder(path, holder)
            if decision is None:
                # Not droppable (no live copy would survive beyond
                # home): full revocation — the document comes home.
                decision = self.policy.revoke(path)
            self._book_decisions([decision], now)
            self.integrity.clear_bad_holder(path, holder)
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

    def _peer_available(self, peer: Location) -> bool:
        """Target-selection predicate: only strictly-ALIVE peers behind a
        closed circuit receive new migrations, re-migrations, or
        replicas.  A *suspect* peer — slow, or under early suspicion —
        is excluded here while :meth:`_peer_live` keeps its documents."""
        key = str(peer)
        if self.membership.state(key) != ALIVE:
            return False
        return self.breaker is None or not self.breaker.is_open(key)

    def _peer_live(self, peer: Location) -> bool:
        """Holder-retention/serving predicate: anything not declared
        dead.  Suspect peers keep their hosted documents and keep
        serving — suspicion throttles *placement*, not custody."""
        key = str(peer)
        if self.membership.is_dead(key):
            return False
        return self.breaker is None or not self.breaker.is_open(key)

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
                      rtt: Optional[float] = None) -> None:
        """One success observed from *peer_key* (ping, pull, validation,
        probe, or piggybacked gossip): feed the accrual detector and
        the RTT estimate; apply and journal any membership recovery."""
        transition = self.membership.heartbeat(peer_key, now, rtt=rtt)
        if transition is None:
            return
        old, _new = transition
        self._journal("membership", peer=peer_key, state=ALIVE)
        if old in (DEAD, FORGOTTEN):
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
        """A dead/forgotten peer answered again: false death healed.

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
            if str(hosted.home) == peer_key and hosted.fetched:
                self.validation.mark(hosted.key, overdue)

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
        if self.breaker is not None:
            # Force the circuit open: traffic toward the dead peer
            # fast-fails instead of burning timeouts, and a revived peer
            # heals through the normal half-open probe.
            self.breaker.trip(key)
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
        self._install_pulled(self._hosted_entry(key, home, original), data,
                             str(version), body_digest(data), now)

    # ------------------------------------------------------------------
    # Content administration (section 4.5, case 1)
    # ------------------------------------------------------------------

    def update_document(self, name: str, data: bytes) -> None:
        """An author changed a document: store it, bump its version, and
        refresh its outgoing edges.  Co-op copies catch up at their next
        validation."""
        record = self.graph.get(name)
        digest = body_digest(data)
        # Journal before the byte write: replay bumps the version even
        # if the crash ate the bytes, so co-ops revalidate instead of
        # holding a stale copy that compares equal by version.
        self._journal("content_update", name=name,
                      version=record.version + 1, size=len(data),
                      dirty=record.is_html, digest=digest)
        self.store.put(name, data)
        self.response_cache.invalidate(name)
        record.size = len(data)
        record.version += 1
        record.digest = digest
        if record.is_html:
            self.stats.parses += 1
            self.graph.set_links(name, self._index_html(name, data))
            record.dirty = True
        else:
            self._templates.pop(name, None)
        # Authored bytes replace the copy wholesale: any quarantine
        # on the old bytes is moot.
        self._clear_quarantine(name)
        self.log.record(self._clock, "content_update", name=name,
                        version=record.version)

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
            group = (self.replication.groups.get(record.name)
                     if self.replication is not None else None)
            if group is None or \
                    len(self.replication.live_holders(record.name)) \
                    >= group.target:
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
        the halves apart — a framed header block is kept per cache
        entry, the accounting happens per request."""
        self._frame(request, response)
        return self._account(response, now, doc_name=doc_name,
                             reconstructed=reconstructed)

    def _persists(self, request: Request) -> bool:
        """Will the response to *request* offer to keep the connection?"""
        return self.config.keep_alive \
            and wants_keep_alive(request.version, request.headers)

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
        body_bytes = response.body_length()
        self.metrics.record_connection(now, body_bytes + RESPONSE_HEAD_OVERHEAD)
        self.stats.bytes_sent += body_bytes
        return EngineReply(response=response, doc_name=doc_name,
                           reconstructed=reconstructed,
                           spliced=reconstructed)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def current_load(self, now: float) -> float:
        return self.metrics.load_metric(
            now, self.config.load_metric,
            drop_pressure_weight=self.config.drop_pressure_weight)

    def cache_counters(self) -> Dict[str, Dict[str, float]]:
        """Hit/miss/eviction counters of every serve-path cache layer,
        for the admin endpoint, stats sampling, and benchmarks."""
        response = self.response_cache.stats.as_dict()
        response["entries"] = len(self.response_cache)
        counters: Dict[str, Dict[str, float]] = {
            "short_circuit": {
                "fast_hits": self.stats.fast_hits,
                "requests": self.stats.requests,
                "share": round(self.stats.fast_hits
                               / max(1, self.stats.requests), 4),
            },
            "renditions": {
                "entries": len(self._renditions),
                "variant_bytes": sum(
                    len(rendition.gzip_body or b"")
                    for rendition in self._renditions.values()),
            },
            "templates": {
                "entries": len(self._templates),
                "builds": self.stats.template_builds,
                "splices": self.stats.splices,
            },
            "response_cache": response,
        }
        if isinstance(self.store, CachingStore):
            byte_cache = self.store.cache.stats.as_dict()
            byte_cache["entries"] = len(self.store.cache)
            byte_cache["used_bytes"] = self.store.cache.used_bytes
            counters["byte_cache"] = byte_cache
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
