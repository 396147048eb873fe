"""Tests for text table rendering."""

from repro.analysis.tables import (
    format_count,
    format_percent,
    format_series,
    format_table,
)


def test_basic_table():
    out = format_table(["name", "value"], [["a", 1], ["bb", 22]])
    lines = out.splitlines()
    assert lines[0].startswith("name")
    assert "--" in lines[1]
    assert "bb" in lines[2] or "bb" in out


def test_title():
    out = format_table(["x"], [[1]], title="My Table")
    assert out.splitlines()[0] == "My Table"
    assert out.splitlines()[1].startswith("=")


def test_numeric_right_alignment():
    out = format_table(["k", "v"], [["a", 5], ["b", 123]])
    rows = out.splitlines()[-2:]
    # Numbers right-aligned: the 5 should end at the same column as 123.
    assert rows[0].rstrip().endswith("5")
    assert rows[1].rstrip().endswith("123")
    assert len(rows[0].rstrip()) == len(rows[1].rstrip())


def test_float_formatting():
    out = format_table(["v"], [[3.14159], [2.0]])
    assert "3.14" in out
    assert out.splitlines()[-1].strip() == "2"  # integral floats as ints


def test_format_percent():
    assert format_percent(0.163) == "16.3%"
    assert format_percent(0.163, 0) == "16%"


def test_format_count():
    assert format_count(5026) == "5,026"
    assert format_count(12.7) == "13"


def test_format_series_downsamples():
    out = format_series([(i, i * 2) for i in range(100)], max_points=10)
    # Header + separator + 10 points.
    assert len(out.splitlines()) == 12


def test_ragged_rows_tolerated():
    out = format_table(["a", "b"], [["x"], ["y", "z", "extra"]])
    assert "extra" in out
