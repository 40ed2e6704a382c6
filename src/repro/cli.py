"""Command-line interface: ``python -m repro <command>``.

Four commands cover the library's main entry points:

- ``serve``    — run a real DCWS server over a directory of documents;
- ``simulate`` — run a virtual-time cluster experiment and print results;
- ``dataset``  — generate one of the paper's corpora (stats or to disk);
- ``bench``    — run one paper experiment driver (figure6/7/8, table2, ...).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.config import ServerConfig
from repro.core.document import Location
from repro.datasets import DATASET_BUILDERS


def _positive(kind):
    """An argparse type: a finite *kind* value above zero, or a usage
    error."""
    def parse(text: str):
        value = kind(text)
        if not 0 < value < float("inf"):
            raise argparse.ArgumentTypeError(
                f"must be positive and finite: {text}")
        return value
    parse.__name__ = kind.__name__     # argparse's "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DCWS: Distributed Cooperative Web Server (Baker & "
                    "Moon, ICDE 1999) — reproduction toolkit")
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser(
        "serve", help="run a real DCWS server over a document directory")
    serve.add_argument("--root", required=True,
                       help="directory containing the site's documents")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--peer", action="append", default=[],
                       metavar="HOST:PORT",
                       help="co-operating server (repeatable)")
    serve.add_argument("--entry", action="append", default=[],
                       metavar="/PATH",
                       help="well-known entry point (repeatable; "
                            "default /index.html if present)")
    serve.add_argument("--time-factor", type=_positive(float), default=1.0,
                       help="compress every Table 1 interval by this factor")
    serve.add_argument("--state-file", default=None,
                       help="snapshot migration state here (restored on "
                            "restart)")
    serve.add_argument("--journal", default=None, metavar="FILE",
                       help="write-ahead journal of every state mutation; "
                            "with --state-file, restarts recover by "
                            "snapshot + replay instead of snapshot alone")
    serve.add_argument("--wal-fsync", choices=["always", "interval", "off"],
                       default="interval",
                       help="journal fsync policy: every record (group-"
                            "committed), the periodic tick, or never")
    serve.add_argument("--front-end", choices=["threaded", "aio"],
                       default="threaded",
                       help="socket front end: thread-per-connection "
                            "(the paper's prototype) or the nonblocking "
                            "epoll event loop (Linux; thousands of "
                            "keep-alive clients)")
    serve.add_argument("--replication-k", type=_positive(int), default=1,
                       metavar="K",
                       help="replication-group size for hot documents: "
                            "K >= 2 enables k-copy placement with "
                            "autonomous repair; 1 = single-location "
                            "(the prototype)")

    simulate = commands.add_parser(
        "simulate", help="run a virtual-time cluster experiment")
    simulate.add_argument("--dataset", default="lod",
                          choices=sorted(DATASET_BUILDERS))
    simulate.add_argument("--servers", type=_positive(int), default=4)
    simulate.add_argument("--clients", type=_positive(int), default=64)
    simulate.add_argument("--duration", type=_positive(float), default=60.0)
    simulate.add_argument("--sample-interval", type=_positive(float),
                          default=10.0)
    simulate.add_argument("--seed", type=int, default=1)
    simulate.add_argument("--time-factor", type=_positive(float),
                          default=0.3)
    simulate.add_argument("--prewarm", action="store_true",
                          help="start from a balanced (warmed) cluster")
    simulate.add_argument("--replication-k", type=_positive(int), default=1,
                          metavar="K",
                          help="replication-group size (K >= 2 enables "
                               "replication groups with autonomous repair)")

    dataset = commands.add_parser(
        "dataset", help="generate one of the paper's data sets")
    dataset.add_argument("--name", required=True,
                         choices=sorted(DATASET_BUILDERS))
    dataset.add_argument("--seed", type=int, default=0)
    dataset.add_argument("--out", default=None,
                         help="write documents under this directory "
                              "(default: print statistics only)")

    bench = commands.add_parser(
        "bench", help="run one paper experiment driver")
    bench.add_argument("experiment",
                       choices=["figure6", "figure7", "figure8", "table2",
                                "overhead", "cps_vs_bps",
                                "ablation_baselines", "ablation_replication",
                                "ablation_selection", "bench_kill_holder"])
    return parser


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

def _cmd_serve(args: argparse.Namespace) -> int:
    import time

    from repro.server.engine import DCWSEngine
    from repro.server.filestore import DiskStore
    from repro.server.threaded import ThreadedDCWSServer

    store = DiskStore(args.root)
    names = store.names()
    if not names:
        print(f"no documents under {args.root}", file=sys.stderr)
        return 1
    entries = args.entry or (["/index.html"] if "/index.html" in names else [])
    peers = [Location.parse(peer) for peer in args.peer]
    import dataclasses

    config = ServerConfig().scaled(args.time_factor) \
        if args.time_factor != 1.0 else ServerConfig()
    if getattr(args, "wal_fsync", "interval") != config.wal_fsync:
        config = dataclasses.replace(config, wal_fsync=args.wal_fsync)
    replication_k = getattr(args, "replication_k", 1)
    if replication_k > 1:
        config = dataclasses.replace(
            config, replication_k=replication_k,
            max_replicas=max(config.max_replicas, replication_k))
    engine = DCWSEngine(Location(args.host, args.port), config, store,
                        entry_points=entries, peers=peers)
    server_cls = ThreadedDCWSServer
    if getattr(args, "front_end", "threaded") == "aio":
        from repro.server.aio import AsyncDCWSServer  # needs Linux epoll

        server_cls = AsyncDCWSServer
    server = server_cls(engine, snapshot_path=args.state_file,
                        journal_path=getattr(args, "journal", None))
    server.start()
    print(f"DCWS server on http://{args.host}:{args.port} "
          f"({len(names)} documents, {len(peers)} peers, "
          f"{args.front_end} front end)")
    print(f"status: http://{args.host}:{args.port}/~dcws/status")
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.stop()
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.bench.reporting import format_table, sparkline
    from repro.sim.cluster import ClusterConfig, SimCluster

    site = DATASET_BUILDERS[args.dataset](seed=0)
    server_config = ServerConfig().scaled(args.time_factor)
    replication_k = getattr(args, "replication_k", 1)
    if replication_k > 1:
        import dataclasses

        server_config = dataclasses.replace(
            server_config, replication_k=replication_k,
            max_replicas=max(server_config.max_replicas, replication_k))
    config = ClusterConfig(
        servers=args.servers, clients=args.clients, duration=args.duration,
        sample_interval=args.sample_interval, seed=args.seed,
        server_config=server_config,
        prewarm=args.prewarm)
    print(f"simulating {args.dataset}: {args.servers} servers, "
          f"{args.clients} clients, {args.duration:g}s virtual "
          f"(prewarm={args.prewarm})")
    result = SimCluster(site, config).run()
    cps = result.series.cps_series()
    print("\nCPS " + sparkline(cps))
    print(format_table(
        ("t (s)", "CPS", "BPS (MB/s)"),
        [(t, c, b / 1e6) for t, c, b in
         zip(result.series.times(), cps, result.series.bps_series())]))
    print(f"\nsteady CPS {result.steady_cps():.0f}   "
          f"steady BPS {result.steady_bps() / 1e6:.2f} MB/s")
    print(f"migrations {result.migrations}   drops {result.drops}   "
          f"redirects {result.redirects_served}   "
          f"events {result.events_processed}")
    if result.repairs or result.replica_drops:
        print(f"replica repairs {result.repairs}   "
              f"replica drops {result.replica_drops}")
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    site = DATASET_BUILDERS[args.name](seed=args.seed)
    stats = site.stats
    print(f"{site.name}: {stats.documents} documents "
          f"({stats.html_documents} HTML, {stats.images} images), "
          f"{stats.links} links, {stats.total_kbytes:.0f} KB")
    print(f"entry points: {site.entry_points}")
    if args.out:
        from repro.server.filestore import DiskStore

        store = DiskStore(args.out)
        for name, data in site.documents.items():
            store.put(name, data)
        print(f"wrote {len(site.documents)} files under {args.out}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import figures

    driver = getattr(figures, args.experiment)
    result = driver()
    print(result.format())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "serve": _cmd_serve,
        "simulate": _cmd_simulate,
        "dataset": _cmd_dataset,
        "bench": _cmd_bench,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
