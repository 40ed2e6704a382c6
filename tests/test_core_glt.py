"""Unit tests for the Global Load Table."""

from repro.core.document import Location
from repro.core.glt import GlobalLoadTable
from repro.http.piggyback import LoadReport

OWN = Location("own", 80)
A = Location("a", 80)
B = Location("b", 80)


def table_with(*reports: LoadReport) -> GlobalLoadTable:
    table = GlobalLoadTable(OWN)
    table.merge(reports)
    return table


class TestObserve:
    def test_newest_timestamp_wins(self):
        table = table_with(LoadReport("a:80", 1.0, 10.0))
        assert table.observe(LoadReport("a:80", 2.0, 11.0)) is True
        assert table.get(A).metric == 2.0

    def test_older_report_ignored(self):
        table = table_with(LoadReport("a:80", 2.0, 11.0))
        assert table.observe(LoadReport("a:80", 1.0, 10.0)) is False
        assert table.get(A).metric == 2.0

    def test_equal_timestamp_keeps_existing(self):
        table = table_with(LoadReport("a:80", 1.0, 10.0))
        assert table.observe(LoadReport("a:80", 99.0, 10.0)) is False

    def test_update_own(self):
        table = GlobalLoadTable(OWN)
        table.update_own(5.0, 1.0)
        assert table.get(OWN).metric == 5.0
        table.update_own(7.0, 2.0)
        assert table.get(OWN).metric == 7.0

    def test_merge_returns_change_count(self):
        table = GlobalLoadTable(OWN)
        changed = table.merge([LoadReport("a:80", 1.0, 1.0),
                               LoadReport("a:80", 1.0, 0.5),
                               LoadReport("b:80", 2.0, 1.0)])
        assert changed == 2


class TestQueries:
    def test_least_loaded_excludes_self(self):
        table = GlobalLoadTable(OWN)
        table.update_own(0.0, 1.0)  # own is the least loaded but excluded
        table.merge([LoadReport("a:80", 5.0, 1.0),
                     LoadReport("b:80", 3.0, 1.0)])
        assert table.least_loaded() == B

    def test_least_loaded_with_exclusions(self):
        table = table_with(LoadReport("a:80", 1.0, 1.0),
                           LoadReport("b:80", 2.0, 1.0))
        assert table.least_loaded(exclude=[A]) == B

    def test_least_loaded_empty(self):
        assert GlobalLoadTable(OWN).least_loaded() is None

    def test_least_loaded_tie_breaks_by_name(self):
        table = table_with(LoadReport("b:80", 1.0, 1.0),
                           LoadReport("a:80", 1.0, 1.0))
        assert table.least_loaded() == A

    def test_mean_metric(self):
        table = GlobalLoadTable(OWN)
        table.update_own(4.0, 1.0)
        table.observe(LoadReport("a:80", 2.0, 1.0))
        assert table.mean_metric() == 3.0

    def test_mean_metric_empty(self):
        assert GlobalLoadTable(OWN).mean_metric() == 0.0

    def test_peers_excludes_own(self):
        table = GlobalLoadTable(OWN)
        table.update_own(1.0, 1.0)
        table.observe(LoadReport("a:80", 1.0, 1.0))
        assert table.peers() == [A]
        assert set(table.servers()) == {OWN, A}

    def test_register_bootstraps_unknown_peer(self):
        table = GlobalLoadTable(OWN)
        table.register(A)
        assert A in table
        # Any real report supersedes the bootstrap row.
        assert table.observe(LoadReport("a:80", 1.0, 0.0)) is True

    def test_register_does_not_clobber(self):
        table = table_with(LoadReport("a:80", 9.0, 5.0))
        table.register(A)
        assert table.get(A).metric == 9.0

    def test_snapshot_sorted_and_stable(self):
        table = table_with(LoadReport("b:80", 1.0, 1.0),
                           LoadReport("a:80", 2.0, 1.0))
        names = [r.server for r in table.snapshot()]
        assert names == ["a:80", "b:80"]


class TestStalenessAndHealth:
    def test_stale_peers(self):
        table = table_with(LoadReport("a:80", 1.0, 0.0),
                           LoadReport("b:80", 1.0, 9.0))
        assert table.stale_peers(now=10.0, max_age=5.0) == [A]

    def test_own_row_never_stale(self):
        table = GlobalLoadTable(OWN)
        table.update_own(1.0, 0.0)
        assert table.stale_peers(now=100.0, max_age=1.0) == []

    def test_removal(self):
        table = table_with(LoadReport("a:80", 1.0, 1.0))
        table.remove(A)
        assert A not in table


class TestMergeAlgebra:
    def test_merge_is_idempotent(self):
        reports = [LoadReport("a:80", 1.0, 1.0), LoadReport("b:80", 2.0, 2.0)]
        table = table_with(*reports)
        assert table.merge(reports) == 0

    def test_merge_is_commutative(self):
        r1 = LoadReport("a:80", 1.0, 1.0)
        r2 = LoadReport("a:80", 2.0, 2.0)
        t_forward = table_with(r1, r2)
        t_backward = table_with(r2, r1)
        assert t_forward.get(A) == t_backward.get(A)
