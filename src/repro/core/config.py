"""Server configuration: the paper's Table 1 parameters plus policy knobs.

Defaults reproduce Table 1 exactly::

    Number of front-end threads        1
    Number of pinger threads           1
    Number of worker threads           12
    Socket queue length                100
    Statistics re-calculation interval 10 s   (T_st)
    Pinger activation interval         20 s   (T_pi)
    Co-op validation interval          120 s  (T_val)
    Home re-migration interval         300 s  (T_home)
    Min time between migrations to the
    same co-op server                  60 s   (T_coop)

The additional fields parameterize behaviour the paper describes in prose:
the hit threshold of Algorithm 1, the overload trigger, and the choice of
CPS vs BPS as the balancing metric (section 5.3 justifies CPS).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.metrics import LoadMetricKind
from repro.errors import ConfigError


@dataclass(frozen=True)
class ServerConfig:
    """Tunable parameters of one DCWS server.

    Instances are immutable; derive variants with :meth:`scaled` or
    :func:`dataclasses.replace`.
    """

    # --- Table 1 -------------------------------------------------------
    front_end_threads: int = 1
    pinger_threads: int = 1
    worker_threads: int = 12
    socket_queue_length: int = 100
    stats_interval: float = 10.0        # T_st, seconds
    pinger_interval: float = 20.0       # T_pi, seconds
    validation_interval: float = 120.0  # T_val, seconds
    home_remigration_interval: float = 300.0  # T_home, seconds
    coop_migration_spacing: float = 60.0      # T_coop, seconds

    # --- migration policy (sections 4.1-4.2) ---------------------------
    # Initial hit threshold T of Algorithm 1 step 3 (hits per stats
    # window); step 3 halves it while it empties the candidate set, and a
    # home migrates at most one file per stats interval (section 5.2: "a
    # maximum of one file per 10 seconds") — constants of
    # repro.core.selection and repro.core.migration.
    migration_hit_threshold: float = 10.0
    # Migrate only when own load exceeds the cluster mean by this factor.
    imbalance_tolerance: float = 1.15
    # Load metric used for balancing decisions; the paper argues CPS for
    # typical web workloads and BPS for large-file workloads (section 5.3).
    load_metric: LoadMetricKind = LoadMetricKind.CPS
    # Extension: each dropped connection/second adds this much advertised
    # load.  0 (default) is the paper's plain CPS/BPS; positive values let
    # slow machines on heterogeneous clusters signal their overload.
    drop_pressure_weight: float = 0.0

    # --- consistency (section 4.5) --------------------------------------
    # Consecutive failed transfers (pings, pulls, validations) before a
    # co-op is declared dead and its documents are revoked; as many
    # consecutive unanswered ones also open the peer's circuit (below).
    ping_failure_limit: int = 3
    # --- adaptive membership (repro.core.membership) ---------------------
    # Accrual failure detection: the φ suspicion score grows with silence
    # measured against the peer's learned success inter-arrival
    # distribution (thresholds, window and bootstrap sample count are
    # the defaults of ``MembershipTable`` / ``AccrualFailureDetector``)
    # — the timing-based complement to ``ping_failure_limit``'s explicit
    # consecutive-failure bound.  The modelled inter-arrival is floored
    # at ``pinger_interval``, the cadence at which heartbeats are
    # guaranteed.
    # The circuit (repro.core.membership): a peer declared dead, or whose
    # last ``ping_failure_limit`` transfers went unanswered, is sent one
    # transfer per period until one is answered — first after
    # ``reprobe_interval`` seconds, then doubled
    # (``membership.REPROBE_BACKOFF``) per admission up to
    # ``reprobe_max_interval``, with deterministic
    # per-(peer, attempt) jitter up to ``reprobe_jitter`` (a fraction of
    # the period).  For a dead peer from the static configured peer list
    # each admission is a rediscovery probe.
    reprobe_interval: float = 5.0
    reprobe_max_interval: float = 60.0
    reprobe_jitter: float = 0.1

    # --- extensions beyond the prototype --------------------------------
    # Paper future work (section 6): replicate hot documents to several
    # co-ops.  0 disables replication (prototype behaviour: footnote 1,
    # "each document may be migrated to only one co-op server").
    max_replicas: int = 1
    # Reactive replication budget: how many documents the periodic
    # replication pass may replicate per statistics interval.  1 is the
    # historical behaviour (one replication per round, mirroring the
    # paper's one-migration-per-interval pacing).
    max_replications_per_interval: int = 1
    # --- replication groups with autonomous repair ----------------------
    # ``replication_k`` is the target number of live holders per
    # replication group (the k of k-copy placement).  1 keeps no groups
    # (replica choice still goes through the manager's pick); with
    # k >= 2 every hot migrated document gets a group that the repair
    # loop (a round of the engine tick, every stats interval T_st)
    # proactively tops up to k holders and autonomously re-replicates
    # when a holder is declared dead or its circuit opens — a single
    # co-op crash then costs zero availability and no revoke/re-home
    # cycle.
    replication_k: int = 1
    # Groups with at least ``replication_sufficient`` live holders (but
    # fewer than k) are *degraded*; below that they are *critical* and
    # repair first.  Must satisfy 1 <= sufficient <= k.
    replication_sufficient: int = 1
    # Accumulated hits below which a migrated document does not get a
    # replication group (0 = every migrated document is group-managed).
    replication_heat_threshold: float = 0.0
    # Document-selection policy.  "paper" is Algorithm 1; "hottest" takes
    # the highest-hit candidate ignoring link locality (ablating steps
    # 4-5); "random" picks uniformly among threshold survivors.
    selection_policy: str = "paper"
    # Algorithm 1 step 2: never migrate well-known entry points.  False is
    # an ablation knob quantifying the entry-points hypothesis (§3.1).
    protect_entry_points: bool = True
    # Persistent connections: workers serve every connection whose client
    # asks for it (Connection: keep-alive / HTTP/1.1 semantics) for more
    # than one request, and server-to-server channels are pooled.
    # ``keep_alive_timeout`` is how long a worker holds an idle connection
    # between requests; ``keep_alive_max_requests`` bounds requests per
    # connection so one client cannot pin a worker forever.
    keep_alive_timeout: float = 5.0
    keep_alive_max_requests: int = 100
    # ``byte_cache_bytes`` is the copy cache's one budget
    # (repro.server.cache; 0 disables the cache): identity plus gzip
    # variant bytes of every cached copy, home or hosted, under one LRU.
    # 24 MiB holds browse_mix's whole hot set — 18.4 MB of distinct
    # bytes (5.3 MB of pages, 11.8 MB of half-megabyte rasters, 1.35 MB
    # of variants) — with room to spare; at 8 MiB one LRU thrashes on
    # the raster cycle (DESIGN.md section 4 has the measurement).
    # ``response_cache_entries`` is no longer read by the server's
    # cache; the benchmark harness still sizes its cached_get script
    # from it, and it goes after ROADMAP item 6(a) unpins it.
    byte_cache_bytes: int = 24 * 1024 * 1024
    response_cache_entries: int = 512
    # Event-loop admission control (repro.server.aio).
    # ``max_connections`` caps concurrently open client connections —
    # connections over the cap are shed at accept with 503 + Retry-After,
    # the paper's overload rule applied at the edge — and
    # ``write_buffer_limit`` is the per-connection outbound high-water
    # mark above which the loop stops reading from that client
    # (backpressure) until the buffer drains below half the limit.  (The
    # kernel accept backlog of both front ends is the constant
    # ``repro.server.dispatch.LISTEN_BACKLOG``; Table 1's socket queue
    # length is the threaded server's bounded worker hand-off queue.)
    max_connections: int = 1024
    write_buffer_limit: int = 256 * 1024
    # ``lock_stripes`` sizes nothing the server runs: the benchmark
    # harness pins it, and it goes once that pin is lifted.
    # ``sendfile_min_bytes``: disk-backed bodies at least this large are
    # served via os.sendfile on the threaded front end instead of being
    # read into memory, unless the copy cache already holds them (and
    # deliberately bypass the cache so one big file cannot flush the
    # hot set).
    lock_stripes: int = 16
    sendfile_min_bytes: int = 256 * 1024
    # Tiered load shedding: when a front end reports queue/connection
    # pressure at or above ``shed_pressure`` (a fraction of its capacity),
    # the engine sheds *expensive* work — dirty-document regenerations and
    # first-use co-op pulls — with 503 + Retry-After while cheap work
    # (cache hits, 304 validations) keeps being served.  False restores
    # the single-tier behaviour: overload is handled only at the edge.
    tiered_shedding: bool = True
    shed_pressure: float = 0.9
    # End-to-end content integrity (repro.server.integrity).  The scrub
    # round runs off the engine tick every ``scrub_interval`` seconds
    # (0 disables scrubbing), re-hashing at most ``scrub_budget`` hosted
    # or owned copies per round against their recorded digests — a
    # resumable cursor walk, so the whole corpus is revisited every
    # ceil(docs / budget) rounds.  ``integrity_serve_sample`` verifies
    # one in N cache-miss store reads on the serve path (0 disables the
    # sampling; scrub and transfer verification are unaffected).
    scrub_interval: float = 30.0
    scrub_budget: int = 8
    integrity_serve_sample: int = 16
    # Write-ahead journal fsync discipline (repro.server.wal).
    # ``always`` fsyncs every append (group-committed); ``interval``
    # defers to the periodic tick, bounding loss to the journal's
    # ``fsync_interval`` (0.05 s) at near-zero hot-path cost (the
    # default); ``off`` leaves durability to the OS page cache (a crash
    # of the *process* still loses nothing — only power loss can).
    wal_fsync: str = "interval"

    def __post_init__(self) -> None:
        positive = (
            "front_end_threads", "pinger_threads", "worker_threads",
            "socket_queue_length", "stats_interval", "pinger_interval",
            "validation_interval", "home_remigration_interval",
            "coop_migration_spacing", "ping_failure_limit", "max_replicas",
            "max_replications_per_interval", "replication_k",
            "replication_sufficient",
            "keep_alive_timeout", "keep_alive_max_requests",
            "max_connections", "write_buffer_limit", "lock_stripes",
            "sendfile_min_bytes",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.migration_hit_threshold < 0:
            raise ConfigError("migration_hit_threshold must be non-negative")
        if self.imbalance_tolerance < 1.0:
            raise ConfigError("imbalance_tolerance must be >= 1.0")
        if self.selection_policy not in ("paper", "hottest", "random"):
            raise ConfigError(
                f"unknown selection_policy: {self.selection_policy!r}")
        if self.byte_cache_bytes < 0:
            raise ConfigError("byte_cache_bytes must be non-negative")
        if self.response_cache_entries < 0:
            raise ConfigError("response_cache_entries must be non-negative")
        if not (0.0 < self.shed_pressure <= 1.0):
            raise ConfigError("shed_pressure must be in (0, 1]")
        if self.scrub_interval < 0:
            raise ConfigError("scrub_interval must be non-negative")
        if self.scrub_budget <= 0:
            raise ConfigError("scrub_budget must be positive")
        if self.integrity_serve_sample < 0:
            raise ConfigError(
                "integrity_serve_sample must be non-negative")
        if self.wal_fsync not in ("always", "interval", "off"):
            raise ConfigError(f"unknown wal_fsync policy: {self.wal_fsync!r}")
        if self.replication_sufficient > self.replication_k:
            raise ConfigError(
                "replication_sufficient must be <= replication_k")
        if self.replication_heat_threshold < 0:
            raise ConfigError(
                "replication_heat_threshold must be non-negative")
        if self.reprobe_interval <= 0:
            raise ConfigError("reprobe_interval must be positive")
        if self.reprobe_max_interval < self.reprobe_interval:
            raise ConfigError(
                "reprobe_max_interval must be >= reprobe_interval")
        if self.reprobe_jitter < 0:
            raise ConfigError("reprobe_jitter must be non-negative")

    def scaled(self, time_factor: float) -> "ServerConfig":
        """Return a copy with every time interval multiplied by
        *time_factor* — used to compress virtual time in benchmarks while
        keeping the paper's interval *ratios* intact."""
        if time_factor <= 0:
            raise ConfigError("time_factor must be positive")
        return replace(
            self,
            stats_interval=self.stats_interval * time_factor,
            pinger_interval=self.pinger_interval * time_factor,
            validation_interval=self.validation_interval * time_factor,
            home_remigration_interval=self.home_remigration_interval * time_factor,
            coop_migration_spacing=self.coop_migration_spacing * time_factor,
            scrub_interval=self.scrub_interval * time_factor,
            reprobe_interval=self.reprobe_interval * time_factor,
            reprobe_max_interval=self.reprobe_max_interval * time_factor,
        )


#: The configuration used throughout the paper's experiments (Table 1).
PAPER_CONFIG = ServerConfig()
