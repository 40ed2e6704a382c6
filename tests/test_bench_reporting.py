"""Unit tests for table/series formatting."""

from repro.bench.reporting import format_table, sparkline


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(("name", "value"),
                            [("a", 1), ("bbbb", 22.5)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert set(lines[2]) <= {"-", "+"}
        assert len(lines) == 5

    def test_number_formatting(self):
        text = format_table(("v",), [(1234.5,), (0.123,), (12.34,)])
        assert "1,234" in text    # thousands separator, no decimals
        assert "0.123" in text
        assert "12.3" in text

    def test_empty_rows(self):
        text = format_table(("a", "b"), [])
        assert "a" in text

    def test_columns_line_up(self):
        text = format_table(("col", "x"), [("abc", 1), ("de", 22)])
        lines = text.splitlines()
        assert len(lines[1]) == len(lines[2]) == len(lines[3])


class TestSparkline:
    def test_shape(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert len(line) == 4
        assert line[0] == "▁"
        assert line[-1] == "█"

    def test_flat_series(self):
        assert sparkline([5.0, 5.0]) == "▁▁"

    def test_empty(self):
        assert sparkline([]) == ""
