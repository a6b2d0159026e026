"""Unit coverage for the ASCII reporting helpers (repro.text)."""

import math

from repro.text import banner, format_series, format_table, ratio


class TestBanner:
    def test_three_lines_with_bars(self):
        text = banner("Hello")
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[0] == "=" * 78
        assert lines[1] == "Hello"
        assert lines[2] == lines[0]

    def test_custom_width(self):
        assert banner("t", width=10).splitlines()[0] == "=" * 10


class TestFormatTable:
    def test_header_separator_and_rows(self):
        text = format_table(["name", "value"], [["a", 1.0], ["b", 2.5]])
        lines = text.splitlines()
        assert lines[0].split() == ["name", "value"]
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4

    def test_title_prepended(self):
        text = format_table(["h"], [["x"]], title="My table")
        assert text.splitlines()[0] == "My table"

    def test_float_formatting(self):
        text = format_table(["v"], [[1234.5678]], floatfmt="10.1f")
        assert "1234.6" in text
        assert "1234.5678" not in text

    def test_numeric_cells_right_aligned_text_left(self):
        text = format_table(["name", "value"],
                            [["longtextcell", 1.0], ["b", 123456.0]])
        data_rows = text.splitlines()[2:]
        # Numbers end at the column edge; text starts at it.
        assert data_rows[0].startswith("longtextcell")
        assert data_rows[1].rstrip().endswith("123456.0")

    def test_column_width_tracks_widest_cell(self):
        text = format_table(["h"], [["wider-than-header"]])
        header, sep = text.splitlines()[:2]
        assert len(sep) == len("wider-than-header")

    def test_non_float_cells_pass_through(self):
        text = format_table(["a", "b"], [[17, "x"]])
        assert "17" in text and "x" in text


class TestFormatSeries:
    def test_header_names_axes(self):
        text = format_series("socket", [(1, 1.5)], xlabel="nodes",
                             ylabel="GLUP/s")
        assert text.splitlines()[0] == "socket  (nodes -> GLUP/s)"

    def test_points_formatted(self):
        text = format_series("s", [(0, 0.123456), (10, 2.0)])
        lines = text.splitlines()
        assert lines[1].split() == ["0", "0.123"]
        assert lines[2].split() == ["10", "2.000"]

    def test_custom_floatfmt(self):
        text = format_series("s", [(1, 3.14159)], floatfmt=".1f")
        assert "3.1" in text and "3.14" not in text


class TestRatio:
    def test_plain_division(self):
        assert ratio(3.0, 2.0) == 1.5

    def test_zero_base_is_nan_not_error(self):
        assert math.isnan(ratio(1.0, 0.0))

    def test_zero_numerator(self):
        assert ratio(0.0, 2.0) == 0.0
