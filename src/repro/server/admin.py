"""Operator-facing status pages served under ``/~dcws/``.

A DCWS server answers four plain-text administrative endpoints:

- ``/~dcws/status`` — one-screen summary: documents, migrations, hosted
  copies, request counters, load table size;
- ``/~dcws/graph``  — the Local Document Graph, one tuple per line
  (the paper's Figure 2, live);
- ``/~dcws/load``   — the Global Load Table as this server sees it;
- ``/~dcws/peers``  — the failure-domain view: per-peer circuit state,
  trips, consecutive unanswered transfers, last success, GLT row age;
- ``/~dcws/events`` — the tail of the structured event log;
- ``/~dcws/caches`` — the serve path's memory: the short-circuit's
  share, the link templates, and the copy cache's entries, bytes,
  budget, hits, misses, evictions and invalidations;
- ``/~dcws/durability`` — write-ahead journal position, checkpoint
  freshness, and the stats of the last crash recovery;
- ``/~dcws/membership`` — the adaptive membership table: per-peer
  alive/suspect/dead state, φ suspicion, RTT estimates, and
  the rediscovery (re-probe) schedule;
- ``/~dcws/integrity`` — the content-integrity view: scrub schedule and
  cursor, corruption/quarantine counters, and every active quarantine;
- ``/~dcws/health`` — liveness + readiness probe.  Unlike the other
  endpoints this one is answered by the engine *before* any accounting
  (no request counter, no CPS/BPS metrics, no entry gate), so load
  balancers and baselines can poll it without inflating hit counters.

They are rendered here (pure functions over engine state) and dispatched
by :meth:`repro.server.engine.DCWSEngine.handle_request`, so both the real
server and the simulator expose them.
"""

from __future__ import annotations

from typing import List

from repro.core.document import Location
from repro.core.membership import REPROBE_BACKOFF

ADMIN_PREFIX = "/~dcws/"


def render_status(engine) -> str:
    """The one-screen summary."""
    stats = engine.stats
    lines: List[str] = [
        f"DCWS server {engine.location}",
        "",
        f"documents (home)        {len(engine.graph)}",
        f"  migrated away         {len(engine.graph.migrated_documents())}",
        f"  entry points          {len(engine.graph.entry_points())}",
        f"  dirty                 "
        f"{sum(1 for r in engine.graph.documents() if r.dirty)}",
        f"hosted foreign copies   "
        f"{sum(1 for h in engine.hosted.values() if h.fetched)}",
        f"known servers (GLT)     {len(engine.glt)}",
        "",
        f"requests                {stats.requests}",
        f"  200 OK                {stats.responses_200}",
        f"  206 partial           {stats.responses_206}",
        f"  301 redirects         {stats.responses_301}",
        f"  304 not modified      {stats.responses_304}",
        f"    via client validators {stats.conditional_304s}",
        f"  404 not found         {stats.responses_404}",
        f"  416 bad range         {stats.responses_416}",
        f"  503 unavailable       {stats.responses_503}",
        f"gzip responses          {stats.gzip_responses}",
        f"  bytes saved           {stats.gzip_bytes_saved}",
        f"shed under overload     "
        f"{stats.regenerations_shed + stats.pulls_shed} "
        f"(regen {stats.regenerations_shed}, pull {stats.pulls_shed})",
        f"reconstructions         {stats.reconstructions}",
        f"  via template splice   {stats.splices}",
        f"migrations              {stats.migrations}",
        f"revocations             {stats.revocations}",
        f"replications            {stats.replications}",
        f"replica repairs         {stats.repairs}",
        f"replica drops           {stats.replica_drops}",
        f"pulls started/completed {stats.pulls_started}/{stats.pulls_completed}",
        f"validations             {stats.validations}",
        f"pings                   {stats.pings}",
    ]
    return "\n".join(lines) + "\n"


def render_graph(engine) -> str:
    """The LDG as a fixed-width table (paper Figure 2)."""
    header = (f"{'Name':<40} {'Location':<22} {'Size':>8} {'Hits':>8} "
              f"{'LinkTo':>6} {'LinkFrom':>8} {'Dirty':>5}")
    lines = [header, "-" * len(header)]
    for name in engine.graph.names():
        record = engine.graph.get(name)
        lines.append(
            f"{record.name:<40} {str(record.location):<22} "
            f"{record.size:>8} {record.hits:>8} "
            f"{len(record.link_to):>6} {len(record.link_from):>8} "
            f"{1 if record.dirty else 0:>5}")
    return "\n".join(lines) + "\n"


def render_load_table(engine) -> str:
    """The GLT rows, newest-first information included."""
    lines = [f"{'Server':<24} {'LoadMetric':>12} {'Timestamp':>14}"]
    lines.append("-" * len(lines[0]))
    for report in engine.glt.snapshot():
        timestamp = ("never" if report.timestamp == float("-inf")
                     else f"{report.timestamp:.3f}")
        lines.append(f"{report.server:<24} {report.metric:>12.3f} "
                     f"{timestamp:>14}")
    return "\n".join(lines) + "\n"


def render_peers(engine) -> str:
    """The failure-domain view of every known peer, one membership
    record per line: its circuit, lifetime trips, consecutive
    unanswered transfers, last proof of life, next admission while the
    circuit is open, and the GLT row's age."""
    now = getattr(engine, "_admin_now", 0.0)
    table = engine.membership
    header = (f"{'Peer':<24} {'Circuit':>10} {'Trips':>6} {'Misses':>6} "
              f"{'LastSuccess':>14} {'RetryIn':>9} {'RowAge':>10} "
              f"{'RTT':>9}")
    lines = [header, "-" * len(header)]
    peers = {str(p) for p in engine.glt.peers()} | set(table.states())
    for key in sorted(peers):
        member = table.describe(key)
        circuit = member["circuit"]
        last = table.detector.last_arrival(key)
        last_text = "never" if last is None else f"{max(0.0, now - last):.1f}s"
        retry_text = (f"{max(0.0, member['next_admit_at'] - now):.2f}s"
                      if circuit == "open" else "-")
        row = None
        try:
            row = engine.glt.get(Location.parse(key))
        except ValueError:
            pass
        if row is None or row.timestamp == float("-inf"):
            age_text = "no-row"
        else:
            age_text = f"{max(0.0, now - row.timestamp):.1f}s"
        rtt = member.get("rtt")
        rtt_text = "-" if rtt is None else f"{rtt * 1000.0:.1f}ms"
        lines.append(f"{key:<24} {circuit:>10} {member['trips']:>6} "
                     f"{member['misses']:>6} {last_text:>14} "
                     f"{retry_text:>9} {age_text:>10} {rtt_text:>9}")
    lines.append("")
    lines.append(f"breaker trips (lifetime) {table.trips()}")
    lines.append(f"suspects {' '.join(table.suspects()) or '-'}")
    return "\n".join(lines) + "\n"


def render_events(engine, limit: int = 50) -> str:
    """The event-log tail plus lifetime counts."""
    counts = engine.log.counts()
    lines = ["event counts:"]
    for kind in sorted(counts):
        lines.append(f"  {kind:<20} {counts[kind]}")
    lines.append("")
    lines.append(f"last {limit} events:")
    tail = engine.log.render_tail(limit)
    lines.append(tail if tail else "  (none)")
    return "\n".join(lines) + "\n"


def render_health(engine) -> str:
    """Liveness + readiness, cheap enough for per-second probing."""
    ready = 1 if getattr(engine, "_initialized", False) else 0
    return (f"ok\nready {ready}\n"
            f"documents {len(engine.graph)}\n"
            f"hosted {sum(1 for h in engine.hosted.values() if h.fetched)}\n")


def render_durability(engine) -> str:
    """Journal position, checkpoint freshness, and last-recovery stats.

    The operator's crash-safety dashboard: how much un-checkpointed
    journal exists (recovery replay time), how stale the snapshot is,
    and what the last recovery actually replayed.
    """
    now = getattr(engine, "_admin_now", 0.0)
    lines: List[str] = []
    journal = getattr(engine, "journal", None)
    if journal is None:
        lines.append("journal: not configured (snapshot-only durability)")
    else:
        info = journal.describe()
        checkpoint_at = journal.last_checkpoint_at
        age_text = ("never" if checkpoint_at is None
                    else f"{max(0.0, now - checkpoint_at):.1f}s")
        lines.extend([
            "journal:",
            f"  path                {info['path']}",
            f"  fsync policy        {info['fsync_policy']}",
            f"  epoch               {info['epoch']}",
            f"  last lsn            {info['last_lsn']}",
            f"  size bytes          {info['size_bytes']}",
            f"  records since ckpt  {info['records_since_checkpoint']}",
            f"  appends / fsyncs    {info['appends']}/{info['syncs']}",
            f"  last checkpoint age {age_text}",
            f"  torn tail truncated {1 if info['torn_tail_truncated'] else 0}",
        ])
    recovery = getattr(engine, "recovery", None)
    if recovery is None:
        lines.append("recovery: none this incarnation")
    else:
        lines.extend([
            "recovery (last):",
            f"  snapshot loaded     {1 if recovery.snapshot_loaded else 0}",
            f"  snapshot error      {recovery.snapshot_error or '-'}",
            f"  documents restored  {recovery.documents_restored}",
            f"  records replayed    {recovery.records_replayed}",
            f"  records skipped     {recovery.records_skipped}",
            f"  torn tail truncated {1 if recovery.torn_tail_truncated else 0}",
            f"  last lsn            {recovery.last_lsn}",
        ])
    lines.append(f"checkpoints {engine.log.count('checkpoint')}")
    lines.append(f"recoveries  {engine.log.count('recover')}")
    return "\n".join(lines) + "\n"


def render_caches(engine) -> str:
    """The serve-path cache hierarchy, one counter per line."""
    lines: List[str] = []
    for layer, counters in engine.cache_counters().items():
        lines.append(f"{layer}:")
        for key in sorted(counters):
            value = counters[key]
            if isinstance(value, float):
                lines.append(f"  {key:<16} {value:.4f}")
            else:
                lines.append(f"  {key:<16} {value}")
    return "\n".join(lines) + "\n"


def render_replication(engine) -> str:
    """Replication groups and the repair daemon (``/~dcws/replication``).

    Group roster with live-holder counts and states, the copies
    histogram, and the repair/two-choices counters — the operator's view
    of how far the cluster is from its k-copy target.  Repairs and
    replica drops are the engine's own counts (``EngineStats``), so
    rejoin re-registrations and drops at a peer's death are in them.
    """
    manager = engine.replication
    now = getattr(engine, "_admin_now", 0.0)
    counters = manager.counters
    k = manager.config.replication_k
    lines: List[str] = [
        f"replication groups      {len(manager.groups)}"
        + ("" if k > 1 else " (disabled: replication_k <= 1)"),
        f"replicated documents    "
        f"{sum(1 for r in engine.graph.documents() if r.replicas)}",
        f"  target k              {k}",
        f"  sufficient            {manager.config.replication_sufficient}",
        f"  below target          {manager.groups_below_target()}",
        f"  repair interval       {manager.config.stats_interval:g}s",
        f"repairs                 {engine.stats.repairs}",
        f"replica drops           {engine.stats.replica_drops}",
        f"state changes           {counters.state_changes}",
        f"two-choices picks       {counters.two_choices_picks}",
        f"  took the alternate    {counters.two_choices_alternates}",
        "",
        "copies histogram (live holders -> groups):",
    ]
    histogram = manager.copies_histogram()
    if histogram:
        for live in sorted(histogram):
            lines.append(f"  {live:>2} {histogram[live]}")
    else:
        lines.append("  (no groups)")
    lines.append("")
    header = (f"{'Document':<40} {'State':>9} {'Live':>5} "
              f"{'Repairs':>8} {'LastRepair':>11}")
    lines.append(header)
    lines.append("-" * len(header))
    for name in sorted(manager.groups):
        group = manager.groups[name]
        live = len(manager.live_holders(name))
        repaired = ("never" if not group.repaired_at
                    else f"{max(0.0, now - group.repaired_at):.1f}s")
        lines.append(f"{name:<40} {group.state:>9} {live:>5} "
                     f"{group.repairs:>8} {repaired:>11}")
    return "\n".join(lines) + "\n"


def render_integrity(engine) -> str:
    """The content-integrity view (``/~dcws/integrity``).

    Scrub schedule and cursor position, the lifetime detection counters
    the chaos gates assert on, and every active quarantine with how it
    was caught — the operator's answer to "is anything silently wrong
    and what is being done about it".
    """
    manager = getattr(engine, "integrity", None)
    if manager is None:
        return "integrity: not configured\n"
    now = getattr(engine, "_admin_now", 0.0)
    info = manager.describe()
    if info["scrub_enabled"]:
        schedule = (f"every {info['scrub_interval']:g}s, "
                    f"{info['scrub_budget']} docs/round")
    else:
        schedule = "disabled"
    sample = int(info["serve_sample"])
    sample_text = f"1 in {sample}" if sample > 0 else "disabled"
    lines: List[str] = [
        f"scrub schedule          {schedule}",
        f"  rounds                {info['scrub_rounds']}",
        f"  documents checked     {info['scrub_checked']}",
        f"  cursor                {info['scrub_cursor'] or '-'}",
        f"serve-path sampling     {sample_text}",
        f"  checks performed      {info['serve_checks']}",
        f"corruptions detected    {info['corruptions_detected']}",
        f"quarantines (lifetime)  {info['quarantines']}",
        f"  active                {info['quarantines_active']}",
        f"  cleared               {info['quarantines_cleared']}",
        f"verified pulls rejected {info['pulls_rejected']}",
        f"bad holders reported    {info['holder_quarantines_reported']}",
        f"repairs from verified   {info['repairs_from_verified']}",
        "",
    ]
    header = (f"{'Document':<40} {'Kind':>7} {'Reason':>9} {'Age':>9} "
              f"{'Notified':>8}")
    lines.append(header)
    lines.append("-" * len(header))
    active = manager.active()
    for record in active:
        age = f"{max(0.0, now - record.at):.1f}s"
        notified = ("-" if record.kind != "hosted"
                    else ("yes" if record.notified else "no"))
        lines.append(f"{record.key:<40} {record.kind:>7} "
                     f"{record.reason:>9} {age:>9} {notified:>8}")
    if not active:
        lines.append("(nothing quarantined)")
    return "\n".join(lines) + "\n"


def render_membership(engine) -> str:
    """The membership table (``/~dcws/membership``).

    Per-peer state, current φ suspicion, consecutive explicit failures,
    RTT estimate, and — for dead peers — the rediscovery schedule; plus
    the lifetime membership counters the chaos gates assert on.
    """
    table = getattr(engine, "membership", None)
    if table is None:
        return "membership: not configured\n"
    now = getattr(engine, "_admin_now", 0.0)
    counters = table.counters
    lines: List[str] = [
        f"suspect phi             {table.suspect_phi:g}",
        f"dead phi                {table.dead_phi:g}",
        f"failure limit           {table.failure_limit}",
        f"re-probe interval       {table.reprobe_interval:g}s "
        f"(x{REPROBE_BACKOFF:g} to {table.reprobe_max_interval:g}s)",
        f"suspicions              {counters.suspicions}",
        f"deaths declared         {counters.deaths}",
        f"rediscoveries           {counters.rediscoveries}",
        f"re-probes sent          {counters.probes_sent}",
        f"re-probe backlog        {table.reprobe_backlog()}",
        f"reconcile drops         {counters.reconcile_drops}",
        f"reconcile re-registers  {counters.reconcile_reregistrations}",
        "",
    ]
    header = (f"{'Peer':<24} {'State':>10} {'Phi':>7} {'Fails':>6} "
              f"{'RTT':>9} {'Since':>9} {'NextProbe':>10}")
    lines.append(header)
    lines.append("-" * len(header))
    states = table.states()
    for key in sorted(states):
        info = table.describe(key)
        phi = table.phi(key, now)
        rtt = info.get("rtt")
        rtt_text = "-" if rtt is None else f"{rtt * 1000.0:.1f}ms"
        since = float(info.get("since", 0.0) or 0.0)
        # since == 0.0 is the registration default, not a transition
        # timestamp — against a monotonic clock it would render as hours.
        since_text = "-" if since == 0.0 else f"{max(0.0, now - since):.1f}s"
        if states[key] == "dead" and info.get("configured"):
            next_at = float(info.get("next_admit_at", 0.0) or 0.0)
            probe_text = f"{max(0.0, next_at - now):.1f}s"
        else:
            probe_text = "-"
        lines.append(f"{key:<24} {states[key]:>10} {phi:>7.2f} "
                     f"{int(info.get('failures', 0) or 0):>6} "
                     f"{rtt_text:>9} {since_text:>9} {probe_text:>10}")
    if not states:
        lines.append("(no known peers)")
    return "\n".join(lines) + "\n"


#: endpoint path (under /~dcws/) -> renderer
ENDPOINTS = {
    "status": render_status,
    "graph": render_graph,
    "load": render_load_table,
    "peers": render_peers,
    "events": render_events,
    "caches": render_caches,
    "durability": render_durability,
    "replication": render_replication,
    "membership": render_membership,
    "integrity": render_integrity,
    "health": render_health,
}

#: Full request path of the accounting-free health probe.
HEALTH_PATH = ADMIN_PREFIX + "health"
