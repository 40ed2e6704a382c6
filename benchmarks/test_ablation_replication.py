"""Replication benches: hot-spot ceiling and kill-one-holder availability.

Two experiments share this file:

1. The original ablation (paper future work, section 6): "the only way
   to get around this problem is to adopt replication of hot spots".
   Enabling the replication extension on the hot-spot data set (SBLog)
   must lift the single-co-op ceiling the prototype hits in Figure 7.

2. The replication-groups subsystem under failure: a Zipf flash crowd
   runs against a prewarmed cluster and the busiest co-op is killed
   mid-run.  Replication groups with autonomous repair (k=2) must beat
   the revoke/re-home baseline on availability — strictly — and must
   finish with zero revocations (no 302 storm: every document the dead
   co-op held had a surviving copy to promote).

Unlike the pytest-benchmark microbenches, this file needs only pytest,
so it doubles as the CI smoke for the replication subsystem.  Numbers
land in ``benchmarks/results/`` and the machine-readable
``BENCH_replication.json`` at the repo root.
"""

import json
import os

import pytest

from repro.bench.figures import ablation_replication, bench_kill_holder

BENCH_JSON = os.path.join(os.path.dirname(__file__), "..",
                          "BENCH_replication.json")


@pytest.fixture(scope="module")
def result(scale):
    return ablation_replication(scale, dataset="sblog", servers=8)


@pytest.fixture(scope="module")
def kill_result(scale):
    return bench_kill_holder(scale, dataset="sblog", servers=4)


# ----------------------------------------------------------------------
# Ablation — hot-spot replication lifts the single-co-op ceiling
# ----------------------------------------------------------------------

def test_replication_regenerate(result, report):
    report("ablation_replication", result.format())


def test_replication_happened(result):
    assert result.replications > 0


def test_replication_raises_hot_spot_ceiling(result):
    assert result.gain > 1.05, (
        f"replication gain only {result.gain:.2f}x "
        f"({result.cps_without:.0f} -> {result.cps_with:.0f} CPS)")


# ----------------------------------------------------------------------
# Bench — kill one holder: availability and tail latency under repair
# ----------------------------------------------------------------------

def test_kill_holder_report(kill_result, report):
    report("bench_kill_holder", kill_result.format())
    baseline = kill_result.row("baseline")
    replicated = kill_result.row("replicated")
    data = {
        "dataset": kill_result.dataset,
        "servers": kill_result.servers,
        "crash_at": round(kill_result.crash_at, 1),
        "availability": {
            "baseline": round(baseline[1], 4),
            "replicated": round(replicated[1], 4),
        },
        "p99_latency": {
            "baseline": round(baseline[2], 3),
            "replicated": round(replicated[2], 3),
        },
        "errors": {"baseline": baseline[3], "replicated": replicated[3]},
        "repairs": replicated[4],
        "repairs_before_crash": replicated[7],
        "replica_drops": replicated[5],
        "revocations": {
            "baseline": baseline[6], "replicated": replicated[6],
        },
    }
    with open(BENCH_JSON, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def test_kill_holder_availability_beats_baseline(kill_result):
    baseline = kill_result.availability("baseline")
    replicated = kill_result.availability("replicated")
    assert replicated > baseline, (
        f"replication availability {replicated:.4f} did not beat the "
        f"revoke/re-home baseline {baseline:.4f}")


def test_kill_holder_repairs_ran_without_revocation_storm(kill_result):
    replicated = kill_result.row("replicated")
    assert replicated[4] > 0, "no repairs ran in the replicated variant"
    assert replicated[5] > 0, "holder death produced no replica_drop"
    assert replicated[6] == 0, (
        f"replicated variant revoked {replicated[6]} documents — the "
        f"dead holder's documents should all have had surviving copies")


def test_kill_holder_repairs_after_the_crash_answer_its_drops(kill_result):
    # Before the crash the round tops the prewarmed migrations up to
    # k = 2; after it, each repair should replace a dropped holder.  More
    # repairs than drops after the crash would be re-repair thrash.
    replicated = kill_result.row("replicated")
    after = replicated[4] - replicated[7]
    assert 0 < replicated[7] < replicated[4]
    assert after <= replicated[5], (
        f"{after} repairs after the crash for {replicated[5]} replica "
        f"drops — holders are being re-repaired")


def test_kill_holder_tail_latency(kill_result):
    assert kill_result.p99("replicated") <= kill_result.p99("baseline"), (
        f"p99 {kill_result.p99('replicated'):.2f}s worse than baseline "
        f"{kill_result.p99('baseline'):.2f}s")
