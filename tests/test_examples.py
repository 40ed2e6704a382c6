"""Smoke tests for the scripts under ``examples/``."""

import importlib.util
from pathlib import Path

from repro.datasets.synthetic import build_synthetic_site
from repro.sim.cluster import ClusterConfig, SimCluster

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def load_example(name):
    spec = importlib.util.spec_from_file_location(name,
                                                  EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_deadline_week_starts_nine_in_ten_walks_on_the_cs_site():
    example = load_example("departmental_coop")
    sites = [build_synthetic_site(pages=6, images=2, fanout=2, seed=1,
                                  name="cs"),
             build_synthetic_site(pages=6, images=2, fanout=2, seed=2,
                                  name="math")]
    cluster = SimCluster(sites, ClusterConfig(servers=2, clients=20,
                                              duration=1.0, seed=11))
    example.deadline_week(cluster)
    for index, client in enumerate(cluster.clients):
        home = "server1" if index % 10 == 0 else "server0"
        assert {client.walk.begin().host for __ in range(20)} == {home}
