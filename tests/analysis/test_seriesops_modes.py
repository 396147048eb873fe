"""Tests for the mode/max accumulation rules of seriesops."""

import pytest

from repro.analysis.seriesops import MAX_COLUMNS, MODE_COLUMNS, accumulate_dumps
from repro.observatory.tsv import TimeSeriesData


def dump(start, rows):
    return TimeSeriesData("x", "minutely", start, rows=rows)


def test_ttl_mode_weighted_by_hits():
    dumps = [
        dump(0, [("k", {"hits": 100, "ttl_top1": 300})]),
        dump(60, [("k", {"hits": 10, "ttl_top1": 86400})]),
        dump(120, [("k", {"hits": 80, "ttl_top1": 300})]),
    ]
    acc = accumulate_dumps(dumps)
    assert acc["k"]["ttl_top1"] == 300


def test_zero_ttl_windows_do_not_vote():
    dumps = [
        dump(0, [("k", {"hits": 1000, "ttl_top1": 0})]),  # NoData-only
        dump(60, [("k", {"hits": 3, "ttl_top1": 900})]),
    ]
    acc = accumulate_dumps(dumps)
    assert acc["k"]["ttl_top1"] == 900


def test_all_zero_ttls_yield_no_mode():
    dumps = [dump(0, [("k", {"hits": 5, "ttl_top1": 0})])]
    acc = accumulate_dumps(dumps)
    assert "ttl_top1" not in acc["k"]


def test_qdots_max_takes_maximum():
    dumps = [
        dump(0, [("k", {"hits": 100, "qdots_max": 1})]),
        dump(60, [("k", {"hits": 1, "qdots_max": 4})]),
        dump(120, [("k", {"hits": 100, "qdots_max": 2})]),
    ]
    acc = accumulate_dumps(dumps)
    assert acc["k"]["qdots_max"] == 4


def test_column_sets_disjoint():
    assert not (MODE_COLUMNS & MAX_COLUMNS)


def test_mode_with_zero_hits_window_still_votes_minimally():
    dumps = [
        dump(0, [("k", {"hits": 0, "ttl_top1": 60})]),
        dump(60, [("k", {"hits": 0, "ttl_top1": 60})]),
        dump(120, [("k", {"hits": 0, "ttl_top1": 300})]),
    ]
    acc = accumulate_dumps(dumps)
    # max(hits, 1): two windows of 60 beat one of 300.
    assert acc["k"]["ttl_top1"] == 60
