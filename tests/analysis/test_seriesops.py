"""Tests for window-series accumulation helpers."""

import pytest

from repro.analysis.happyeyeballs import ipv6_rollout
from repro.analysis.seriesops import (
    accumulate_dumps,
    ranked_keys,
    total_hits,
)
from repro.analysis.ttltraffic import figure8
from repro.observatory.store import SeriesStore, write_window
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


def test_total_hits():
    rows = {"a": {"hits": 5}, "b": {"hits": 10}}
    assert total_hits(rows) == 15


@pytest.mark.parametrize("split", [1200, 90])
def test_epochs_split_by_window_start(tmp_path, split):
    """``figure8`` and ``ipv6_rollout`` read their two epochs from the
    store as ranges, and a window belongs to the epoch its start lies
    in: at a split inside a window (90 s over 60 s windows) the window
    straddling it counts before, never after and never twice."""
    windows = {"esld": [], "qname": []}
    for i in range(24):
        start = 60 * i
        ttl = 300 if start < split else 10
        windows["esld"].append(TimeSeriesData(
            "esld", "minutely", start, rows=[
                ("a.example", {"hits": 1 + i, "ttl_top1": ttl}),
                ("b.example", {"hits": 40 - i, "ttl_top1": 600})]))
        windows["qname"].append(TimeSeriesData(
            "qname", "minutely", start, rows=[
                ("v6.example", {"hits": 10 + i, "unans": i % 3, "ok6": 4 + i,
                                "ok6nil": 3 if i < 20 else 0})]))
    for series in windows.values():
        for window in series:
            write_window(str(tmp_path), window)
    store = SeriesStore(str(tmp_path))

    def epochs(dataset):
        series = windows[dataset]
        return ([w for w in series if w.start_ts < split],
                [w for w in series if w.start_ts >= split])

    before, after = (accumulate_dumps(e) for e in epochs("esld"))
    changes = {c.key: c for c in figure8(store, split)}
    assert sorted(changes) == ["a.example", "b.example"]
    for key, change in changes.items():
        assert (change.queries_before, change.queries_after) == \
            (before[key]["hits"], after[key]["hits"])
        assert (change.ttl_before, change.ttl_after) == \
            (before[key]["ttl_top1"], after[key]["ttl_top1"])
    assert changes["a.example"].ttl_change == -290

    result = ipv6_rollout(store, "v6.example", split)
    for label, epoch in zip(("before", "after"), epochs("qname")):
        row = accumulate_dumps(epoch)["v6.example"]
        answered = row["hits"] - row["unans"]
        assert result[label] == {
            "hits_per_window": row["hits"] / len(epoch),
            "empty_aaaa_share": row["ok6nil"] / answered,
            "aaaa_data_share": (row["ok6"] - row["ok6nil"]) / answered,
        }
