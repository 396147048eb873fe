"""Tests for window-series accumulation helpers."""

import pytest

from repro.analysis.seriesops import (
    accumulate_dumps,
    ranked_keys,
    split_dumps_at,
    total_hits,
)
from repro.observatory.tsv import TimeSeriesData


def dump(start, rows):
    return TimeSeriesData("x", "minutely", start, rows=rows)


def test_counters_summed():
    dumps = [
        dump(0, [("a", {"hits": 10, "nxd": 2})]),
        dump(60, [("a", {"hits": 5, "nxd": 1})]),
    ]
    acc = accumulate_dumps(dumps)
    assert acc["a"]["hits"] == 15
    assert acc["a"]["nxd"] == 3
    assert acc["a"].windows == 2


def test_gauges_hits_weighted():
    dumps = [
        dump(0, [("a", {"hits": 10, "delay_q50": 10.0})]),
        dump(60, [("a", {"hits": 30, "delay_q50": 50.0})]),
    ]
    acc = accumulate_dumps(dumps)
    # (10*10 + 50*30) / 40 = 40.
    assert acc["a"]["delay_q50"] == pytest.approx(40.0)


def test_missing_windows_ok():
    dumps = [
        dump(0, [("a", {"hits": 10}), ("b", {"hits": 1})]),
        dump(60, [("a", {"hits": 10})]),
    ]
    acc = accumulate_dumps(dumps)
    assert acc["b"]["hits"] == 1
    assert acc["b"].windows == 1


def test_ranked_keys():
    rows = {"a": {"hits": 5}, "b": {"hits": 10}, "c": {"hits": 5}}
    assert ranked_keys(rows) == ["b", "a", "c"]
    assert ranked_keys(rows, descending=False)[0] in ("a", "c")


def test_total_hits():
    rows = {"a": {"hits": 5}, "b": {"hits": 10}}
    assert total_hits(rows) == 15


def test_split_dumps_at():
    dumps = [dump(0, []), dump(60, []), dump(120, [])]
    before, after = split_dumps_at(dumps, 60)
    assert [d.start_ts for d in before] == [0]
    assert [d.start_ts for d in after] == [60, 120]
