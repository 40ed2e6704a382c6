#!/usr/bin/env python
"""Two departmental web servers helping each other (simulated).

The paper's second deployment scenario (section 1): "two or more
departmental web server machines which work independently in the usual
operational mode can become a distributed cooperative web server; since
the relative load may be different ... any of the lightly loaded servers
can be a co-op server for any of the heavily loaded servers."

Here the CS department's site is under deadline-week load while the Math
site idles: DCWS migrates hot CS documents onto the Math machine, which
keeps serving its own site as home the whole time.

Run:  python examples/departmental_coop.py
"""

from repro.core.config import ServerConfig
from repro.datasets.synthetic import build_synthetic_site
from repro.sim.cluster import ClusterConfig, SimCluster


def deadline_week(cluster: SimCluster) -> None:
    """Skew the client population: 9 in 10 clients browse CS pages.

    Entry URLs are per-site, so each client's walk starts its sequences
    from one site's entry list only.
    """
    cs_entries = [u for u in cluster.entry_urls if u.host == "server0"]
    math_entries = [u for u in cluster.entry_urls if u.host == "server1"]
    for index, client in enumerate(cluster.clients):
        client.walk.entry_points = \
            math_entries if index % 10 == 0 else cs_entries


def main() -> None:
    cs_site = build_synthetic_site(pages=60, images=20, fanout=5,
                                   seed=1, name="cs-department")
    math_site = build_synthetic_site(pages=30, images=10, fanout=4,
                                     seed=2, name="math-department")

    config = ClusterConfig(
        servers=2, clients=40, duration=120.0, sample_interval=10.0,
        seed=11, server_config=ServerConfig().scaled(0.2))
    cluster = SimCluster([cs_site, math_site], config)
    deadline_week(cluster)
    result = cluster.run()

    cs_engine = cluster.servers["server0:80"].engine
    math_engine = cluster.servers["server1:80"].engine
    migrated = [r.name for r in cs_engine.graph.migrated_documents()]
    print(f"CS documents migrated onto the Math server: {len(migrated)}")
    print(f"  e.g. {migrated[:5]}")
    assert all(r.location == math_engine.location
               for r in cs_engine.graph.migrated_documents())
    print(f"Math documents migrated away: "
          f"{len(math_engine.graph.migrated_documents())} "
          f"(the lightly loaded server keeps its own site)")

    print("\nload balance (requests served):")
    for name, info in result.per_server.items():
        print(f"  {name}: served={info['served']} "
              f"cpu={info['cpu_utilization']:.0%} "
              f"hosting {info['hosted']} foreign documents")

    final = result.series.samples[-1]
    print(f"\nfinal imbalance (max/mean per-server CPS): "
          f"{final.imbalance:.2f}  (1.00 = perfect)")
    print(f"aggregate CPS at the end: {final.cps:.0f}")


if __name__ == "__main__":
    main()
