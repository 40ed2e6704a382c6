"""Scaled experiment runner.

The paper's runs used 16 server and 25 client workstations for 30 minutes
per point; pure-Python simulation cannot afford that per CI run, so every
experiment runs at an :class:`ExperimentScale`:

- ``QUICK_SCALE`` (default) — Table 1 intervals compressed 0.3×, short
  virtual durations, smaller client populations.  Shapes (linearity,
  crossovers, orderings) are preserved; absolute numbers are smaller.
- ``PAPER_SCALE`` — uncompressed intervals and paper-sized populations;
  hours of wall clock.  Select with ``REPRO_BENCH_SCALE=paper``.

All experiment drivers in :mod:`repro.bench.figures` take a scale argument
and default to :func:`current_scale`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.core.config import ServerConfig
from repro.datasets import DATASET_BUILDERS
from repro.datasets.base import SiteContent
from repro.sim.cluster import ClusterConfig, SimCluster, SimulationResult
from repro.sim.network import CostModel, PAPER_COSTS

_SCALE_ENV = "REPRO_BENCH_SCALE"


@dataclass(frozen=True)
class ExperimentScale:
    """How aggressively an experiment is shrunk relative to the paper."""

    name: str
    time_factor: float          # multiplies every Table 1 interval
    duration: float             # virtual seconds per run
    sample_interval: float
    clients_per_server: int     # saturating client population
    server_counts: Sequence[int]   # sweep used by Figures 6 and 7
    client_counts: Sequence[int]   # sweep used by Figure 6
    coldstart_duration: float   # Figure 8 virtual duration
    seed: int = 1


QUICK_SCALE = ExperimentScale(
    name="quick",
    time_factor=0.3,
    duration=40.0,
    sample_interval=5.0,
    clients_per_server=24,
    server_counts=(2, 4, 8),
    client_counts=(16, 48, 96, 144, 192),
    coldstart_duration=240.0,
)

FULL_SCALE = ExperimentScale(
    name="full",
    time_factor=0.5,
    duration=120.0,
    sample_interval=10.0,
    clients_per_server=24,
    server_counts=(1, 2, 4, 8, 16),
    client_counts=(16, 48, 96, 176, 272, 368),
    coldstart_duration=600.0,
)

PAPER_SCALE = ExperimentScale(
    name="paper",
    time_factor=1.0,
    duration=600.0,
    sample_interval=10.0,
    clients_per_server=24,
    server_counts=(1, 2, 4, 8, 16),
    client_counts=(16, 48, 96, 176, 272, 368),
    coldstart_duration=1800.0,
)

_SCALES = {s.name: s for s in (QUICK_SCALE, FULL_SCALE, PAPER_SCALE)}


def current_scale() -> ExperimentScale:
    """The scale selected by ``REPRO_BENCH_SCALE`` (default ``quick``)."""
    name = os.environ.get(_SCALE_ENV, "quick").strip().lower()
    return _SCALES.get(name, QUICK_SCALE)


def scaled_server_config(scale: ExperimentScale,
                         base: Optional[ServerConfig] = None) -> ServerConfig:
    """Table 1 parameters compressed by the scale's time factor."""
    config = base if base is not None else ServerConfig()
    if scale.time_factor == 1.0:
        return config
    return config.scaled(scale.time_factor)


def scaled_costs(scale: ExperimentScale,
                 base: CostModel = PAPER_COSTS) -> CostModel:
    """Client backoff delays compressed alongside the Table 1 intervals,
    so compressed runs keep the paper's backoff-to-interval ratios."""
    if scale.time_factor == 1.0:
        return base
    return replace(base,
                   backoff_base=base.backoff_base * scale.time_factor,
                   backoff_ceiling=base.backoff_ceiling * scale.time_factor)


def build_site(dataset: str, seed: int = 0) -> SiteContent:
    """Build one of the paper's data sets by name."""
    try:
        builder = DATASET_BUILDERS[dataset]
    except KeyError:
        raise KeyError(f"unknown dataset {dataset!r}; "
                       f"choose from {sorted(DATASET_BUILDERS)}") from None
    return builder(seed=seed)


def run_dcws(site: SiteContent, *, servers: int, clients: int,
             scale: ExperimentScale,
             prewarm: bool = True,
             duration: Optional[float] = None,
             server_config: Optional[ServerConfig] = None,
             costs: Optional[CostModel] = None,
             seed: Optional[int] = None) -> SimulationResult:
    """Run one DCWS experiment and return its result.

    When *server_config* is omitted, Table 1 defaults compressed by the
    scale's time factor are used; an explicit *server_config* is taken as
    final (callers build variants from :func:`scaled_server_config`).
    """
    config = ClusterConfig(
        servers=servers,
        clients=clients,
        duration=duration if duration is not None else scale.duration,
        sample_interval=scale.sample_interval,
        seed=seed if seed is not None else scale.seed,
        server_config=(server_config if server_config is not None
                       else scaled_server_config(scale)),
        costs=costs if costs is not None else scaled_costs(scale),
        prewarm=prewarm,
    )
    return SimCluster(site, config).run()


def cluster_config(scale: ExperimentScale, *, servers: int, clients: int,
                   prewarm: bool = True,
                   duration: Optional[float] = None,
                   server_config: Optional[ServerConfig] = None,
                   costs: Optional[CostModel] = None) -> ClusterConfig:
    """Build a :class:`ClusterConfig` for callers that drive the cluster
    themselves (failure-injection tests, baselines)."""
    return ClusterConfig(
        servers=servers,
        clients=clients,
        duration=duration if duration is not None else scale.duration,
        sample_interval=scale.sample_interval,
        seed=scale.seed,
        server_config=(server_config if server_config is not None
                       else scaled_server_config(scale)),
        costs=costs if costs is not None else scaled_costs(scale),
        prewarm=prewarm,
    )


def saturating_clients(scale: ExperimentScale, servers: int) -> int:
    """A client population that drives *servers* past their knee."""
    return scale.clients_per_server * servers
