"""Tests for time aggregation and retention (§2.4)."""

import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.observatory.aggregate import (
    _COUNTERS, TimeAggregator, aggregate_series)
from repro.observatory.tsv import TimeSeriesData, list_series, read_tsv, write_tsv


def series(start, rows, granularity="minutely", dataset="srvip"):
    return TimeSeriesData(dataset, granularity, start,
                          columns=["hits", "ok", "delay_q50"],
                          rows=rows, stats={"seen": 10, "kept": 8})


class TestAggregateSeries:
    def test_counter_mean_with_missing_as_zero(self):
        a = series(0, [("k1", {"hits": 10, "ok": 10, "delay_q50": 20.0})])
        b = series(60, [("k1", {"hits": 20, "ok": 20, "delay_q50": 40.0}),
                        ("k2", {"hits": 6, "ok": 6, "delay_q50": 5.0})])
        agg = aggregate_series([a, b], "srvip", "decaminutely", 0,
                               expected_points=2)
        rmap = agg.row_map()
        # Counter: mean over expected points, missing -> 0.
        assert rmap["k1"]["hits"] == pytest.approx(15.0)
        assert rmap["k2"]["hits"] == pytest.approx(3.0)
        # Gauge: mean over *present* points only.
        assert rmap["k1"]["delay_q50"] == pytest.approx(30.0)
        assert rmap["k2"]["delay_q50"] == pytest.approx(5.0)

    def test_expected_points_beyond_files(self):
        # An object present in 1 of 10 minutely windows averages to 1/10.
        a = series(0, [("k1", {"hits": 10, "ok": 10, "delay_q50": 1.0})])
        agg = aggregate_series([a], "srvip", "decaminutely", 0,
                               expected_points=10)
        assert agg.row_map()["k1"]["hits"] == pytest.approx(1.0)
        assert agg.row_map()["k1"]["delay_q50"] == pytest.approx(1.0)

    def test_rows_sorted_by_hits(self):
        a = series(0, [("small", {"hits": 1, "ok": 1, "delay_q50": 1}),
                       ("big", {"hits": 100, "ok": 90, "delay_q50": 1})])
        agg = aggregate_series([a], "srvip", "decaminutely", 0)
        assert [k for k, _ in agg.rows] == ["big", "small"]

    def test_stats_summed(self):
        agg = aggregate_series([series(0, []), series(60, [])],
                               "srvip", "decaminutely", 0)
        assert agg.stats["seen"] == 20
        assert agg.stats["points"] == 2

    def test_rejects_zero_points(self):
        with pytest.raises(ValueError):
            aggregate_series([], "srvip", "decaminutely", 0)

    def test_schema_drift_unions_columns(self):
        """Regression: the coarse header was copied from the *first*
        input file, so columns introduced mid-window (e.g. a
        ``_platform`` file gaining gate columns once the Bloom gate
        engages) silently vanished from every coarser granularity."""
        a = TimeSeriesData("_platform", "minutely", 0,
                           columns=["txns", "rows"],
                           rows=[("window", {"txns": 10, "rows": 2})],
                           stats={"seen": 10, "kept": 1})
        b = TimeSeriesData("_platform", "minutely", 60,
                           columns=["txns", "rows", "gate_fill"],
                           rows=[("window", {"txns": 20, "rows": 4,
                                             "gate_fill": 0.5})],
                           stats={"seen": 20, "kept": 1})
        agg = aggregate_series([a, b], "_platform", "decaminutely", 0,
                               expected_points=2)
        # Union preserves first-seen order; late columns survive.
        assert agg.columns == ["txns", "rows", "gate_fill"]
        row = agg.row_map()["window"]
        # Non-counter column: mean over present points only.
        assert row["gate_fill"] == pytest.approx(0.5)
        assert row["txns"] == pytest.approx(15.0)


def row_major_reference(series_list, expected_points):
    """``aggregate_series`` as the paper words it, one row dict at a
    time: the oracle the column fold is pinned to."""
    sums, presence, columns = {}, {}, []
    for series in series_list:
        for col in series.columns:
            if col not in columns:
                columns.append(col)
        for key, row in series.row_map().items():
            for col, value in row.items():
                cell = (key, col)
                sums[cell] = sums.get(cell, 0.0) + value
                presence[cell] = presence.get(cell, 0) + 1
    rows = [(key, {col: sums.get((key, col), 0.0) / (
        expected_points if col in _COUNTERS
        else presence.get((key, col)) or 1) for col in columns})
        for key in dict.fromkeys(k for s in series_list for k in s.keys)]
    rows.sort(key=lambda kv: -kv[1].get("hits", 0.0))
    return TimeSeriesData("x", "decaminutely", 0, columns=columns, rows=rows)


#: hostile on purpose: schema drift mid-window, keys that come and go,
#: zero ``hits`` (ties), a column the first file lacks, empty windows,
#: keys and columns named twice in one window
cells = st.one_of(st.integers(0, 50), st.floats(0, 1e17, allow_nan=False))
windows = st.lists(st.tuples(
    st.lists(st.sampled_from(["delay_q50", "hits", "ok", "nsset", "txns"]),
             max_size=5),
    st.lists(st.tuples(st.sampled_from("abcdefgh"), st.lists(
        cells, min_size=5, max_size=5)), max_size=8),
), max_size=7)


@settings(max_examples=200, deadline=None)
@given(windows, st.integers(0, 4))
# 1e16 + 1 + 1 is 1e16, 1 + 1 + 1e16 is not: window order shows
@example([(["hits"], [("a", [hits])]) for hits in (1e16, 1.0, 1.0)], 0)
def test_column_fold_equals_row_major_reference(spec, extra_points):
    series_list = [
        TimeSeriesData("x", "minutely", i * 60, columns=columns,
                       rows=[(key, dict(zip(columns, values)))
                             for key, values in rows])
        for i, (columns, rows) in enumerate(spec)]
    points = len(series_list) + extra_points or 1
    got = aggregate_series(series_list, "x", "decaminutely", 0,
                           expected_points=points)
    want = row_major_reference(series_list, points)
    assert (got.keys, got.columns) == (want.keys, want.columns)
    assert repr(got.values) == repr(want.values)  # bit for bit, typed


class TestTimeAggregator:
    def fill_minutely(self, directory, count=20, dataset="srvip"):
        for i in range(count):
            write_tsv(directory, series(
                i * 60, [("k1", {"hits": i, "ok": i, "delay_q50": 10.0})],
                dataset=dataset))

    def test_aggregates_complete_windows_only(self, tmp_path):
        d = str(tmp_path)
        self.fill_minutely(d, count=20)  # covers [0, 1200): 2 decaminutes
        agg = TimeAggregator(d)
        written = agg.aggregate_directory("srvip")
        deca = list_series(d, "srvip", "decaminutely")
        assert [s[3] for s in deca] == [0, 600]
        assert all(os.path.exists(p) for p in written)

    def test_aggregation_is_idempotent(self, tmp_path):
        d = str(tmp_path)
        self.fill_minutely(d, count=20)
        agg = TimeAggregator(d)
        first = agg.aggregate_directory("srvip")
        second = agg.aggregate_directory("srvip")
        assert first and not second

    def test_decaminutely_values(self, tmp_path):
        d = str(tmp_path)
        self.fill_minutely(d, count=20)
        TimeAggregator(d).aggregate_directory("srvip")
        path = list_series(d, "srvip", "decaminutely")[0][0]
        data = read_tsv(path)
        # hits 0..9 over 10 windows -> mean 4.5.
        assert data.row_map()["k1"]["hits"] == pytest.approx(4.5)

    def test_chain_to_hourly(self, tmp_path):
        d = str(tmp_path)
        # 90 minutes of minutely data: only hour 0 is complete.
        self.fill_minutely(d, count=90)
        TimeAggregator(d).aggregate_directory("srvip")
        hourly = list_series(d, "srvip", "hourly")
        assert [s[3] for s in hourly] == [0]

    def test_retention_deletes_old_fine_files(self, tmp_path):
        """Rolled-up files past their age are deleted; the roll-up
        guard is exercised separately below."""
        d = str(tmp_path)
        self.fill_minutely(d, count=10)  # one complete decaminute
        agg = TimeAggregator(d, retention={"minutely": 100})
        agg.aggregate_directory("srvip")
        deleted = agg.apply_retention(now_ts=10_000)
        assert len(deleted) == 10
        assert list_series(d, "srvip", "minutely") == []
        # the covering decaminutely file survives
        assert len(list_series(d, "srvip", "decaminutely")) == 1

    def test_retention_keeps_unaggregated_files(self, tmp_path):
        """Regression: retention running ahead of aggregation used to
        delete minutely files no coarser file had absorbed yet --
        silently losing the data forever."""
        d = str(tmp_path)
        self.fill_minutely(d, count=5)  # incomplete decaminute: no roll-up
        agg = TimeAggregator(d, retention={"minutely": 100})
        agg.aggregate_directory("srvip")
        assert agg.apply_retention(now_ts=10_000) == []
        assert len(list_series(d, "srvip", "minutely")) == 5

    def test_retention_force_overrides_guard(self, tmp_path):
        d = str(tmp_path)
        self.fill_minutely(d, count=5)
        agg = TimeAggregator(d, retention={"minutely": 100})
        deleted = agg.apply_retention(now_ts=10_000, force=True)
        assert len(deleted) == 5
        assert list_series(d, "srvip", "minutely") == []

    def test_retention_keeps_recent(self, tmp_path):
        d = str(tmp_path)
        self.fill_minutely(d, count=5)
        agg = TimeAggregator(d, retention={"minutely": 100_000})
        assert agg.apply_retention(now_ts=10_000) == []

    def test_retention_none_keeps_forever(self, tmp_path):
        d = str(tmp_path)
        write_tsv(d, series(0, [], granularity="yearly"))
        agg = TimeAggregator(d)
        assert agg.apply_retention(now_ts=10**12) == []

    def test_fine_window_vanishing_mid_call_counts_as_missing(
            self, tmp_path):
        """A minutely file removed after the aggregator took its
        selection (retention elsewhere, an operator's rm) is the
        paper's missing file -- "a value of 0 for counters" -- not a
        FileNotFoundError out of ``aggregate``."""
        d = str(tmp_path)
        self.fill_minutely(d, count=10)
        agg = TimeAggregator(d)
        victim = os.path.join(d, "srvip.minutely.0000000420.tsv")
        real_read = agg.store.read_window

        def racing_read(ref):
            if os.path.exists(victim):
                os.remove(victim)  # after the selection, before the read
            return real_read(ref)

        agg.store.read_window = racing_read
        path, = agg.aggregate_directory("srvip")
        data = read_tsv(path)
        assert data.stats["points"] == 9
        # hits 0..9 without the 7, still over ten expected points
        assert data.cell("k1", "hits") == pytest.approx(3.8)
        assert agg.store.cache_info()["vanished_reads"] == 1

    def test_directory_is_listed_once_per_call(self, tmp_path, monkeypatch):
        """``aggregate`` puts its directory questions to the store's
        index: one scan when the store opens, one per
        ``aggregate_directory`` / ``apply_retention`` call."""
        from repro.cli import main

        d = str(tmp_path)
        datasets = ["ds%d" % i for i in range(8)]
        for dataset in datasets:
            self.fill_minutely(d, count=11, dataset=dataset)
        scans = []
        for name in ("scandir", "listdir"):
            real = getattr(os, name)
            monkeypatch.setattr(os, name, lambda path=".", _real=real: (
                scans.append(path), _real(path))[1])
        assert main(["aggregate", d, "--retention-now", "100000"]) == 0
        listed = [path for path in scans if str(path) == d]
        assert 0 < len(listed) <= len(datasets) + 2
        assert len(list_series(d, granularity="decaminutely")) == 8
