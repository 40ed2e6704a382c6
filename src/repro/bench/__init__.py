"""Benchmark harness: regenerate every table and figure of the paper.

- :mod:`repro.bench.harness` — scaled experiment runner (quick CI scale by
  default, ``REPRO_BENCH_SCALE=paper`` for full-fidelity runs);
- :mod:`repro.bench.figures` — one driver per experiment: Figure 6 (peak
  load vs clients), Figure 7 (scalability vs servers per data set),
  Figure 8 (cold-start growth), Table 2 (parameter tuning directions),
  section 5.3 overhead and CPS-vs-BPS analyses, plus the baseline and
  replication ablations;
- :mod:`repro.bench.reporting` — fixed-width table formatting.
"""

from repro.bench.harness import (
    PAPER_SCALE,
    QUICK_SCALE,
    ExperimentScale,
    current_scale,
    run_dcws,
)
from repro.bench.reporting import format_table

__all__ = [
    "ExperimentScale",
    "PAPER_SCALE",
    "QUICK_SCALE",
    "current_scale",
    "format_table",
    "run_dcws",
]
