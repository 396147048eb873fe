"""Tests for the indexed SeriesStore read path."""

import json
import os
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observatory.store import SeriesStore
from repro.observatory.tsv import TimeSeriesData, read_series, write_tsv


#: what a store from before the manifest was retired left behind
MANIFEST_NAME = ".observatory-manifest.json"


def make_window(tmp_path, start, dataset="srvip", granularity="minutely",
                rows=None):
    rows = rows if rows is not None else [
        ("192.0.2.1", {"hits": 10 + start, "ok": 9}),
        ("192.0.2.2", {"hits": 5, "ok": 5}),
    ]
    data = TimeSeriesData(dataset, granularity, start,
                          columns=["hits", "ok"], rows=rows,
                          stats={"seen": 20, "kept": 15})
    return write_tsv(str(tmp_path), data)


class TestIndex:
    def test_datasets_summary_without_opens(self, tmp_path):
        for start in (0, 60, 120):
            make_window(tmp_path, start)
        make_window(tmp_path, 0, dataset="qtype")
        store = SeriesStore(str(tmp_path))
        summary = store.datasets()
        assert summary["srvip"]["minutely"] == {
            "windows": 3, "first_ts": 0, "last_ts": 120}
        assert summary["qtype"]["minutely"]["windows"] == 1
        assert store.parses == 0  # the summary is index-only

    def test_select_is_sorted_and_range_filtered(self, tmp_path):
        for start in (180, 0, 120, 60):
            make_window(tmp_path, start)
        store = SeriesStore(str(tmp_path))
        assert [r.start_ts for r in store.select("srvip")] == \
            [0, 60, 120, 180]
        assert [r.start_ts
                for r in store.select("srvip", start_ts=60, end_ts=180)] \
            == [60, 120]

    def test_read_matches_read_series(self, tmp_path):
        for start in (0, 60, 120):
            make_window(tmp_path, start)
        store = SeriesStore(str(tmp_path))
        got = store.read("srvip")
        want = read_series(str(tmp_path), "srvip")
        assert [(d.start_ts, d.rows, d.stats) for d in got] == \
            [(d.start_ts, d.rows, d.stats) for d in want]

    def test_unknown_dataset_empty(self, tmp_path):
        store = SeriesStore(str(tmp_path))
        assert store.select("nothing") == []
        assert store.read("nothing") == []
        assert store.datasets() == {}

    def test_missing_directory(self, tmp_path):
        store = SeriesStore(str(tmp_path / "nope"))
        assert store._index == {}


class TestCache:
    def test_lru_serves_repeat_reads_without_parsing(self, tmp_path):
        for start in (0, 60):
            make_window(tmp_path, start)
        store = SeriesStore(str(tmp_path))
        store.read("srvip")
        assert store.parses == 2
        store.read("srvip")
        list(store.iter_range("srvip", start_ts=60))
        assert store.parses == 2
        assert store.cache_info()["hit_ratio"] > 0.5

    def test_cache_bounded(self, tmp_path):
        for start in range(0, 600, 60):
            make_window(tmp_path, start)
        store = SeriesStore(str(tmp_path), cache_windows=3)
        store.read("srvip")
        assert store.cache_info()["cached_windows"] == 3

    def test_zero_cache_disables(self, tmp_path):
        make_window(tmp_path, 0)
        store = SeriesStore(str(tmp_path), cache_windows=0)
        store.read("srvip")
        store.read("srvip")
        assert store.parses == 2
        assert store.cache_info()["cached_windows"] == 0

    def test_rewritten_file_invalidated(self, tmp_path):
        path = make_window(tmp_path, 0)
        store = SeriesStore(str(tmp_path))
        assert store.read("srvip")[0].rows[0][1]["hits"] == 10
        make_window(tmp_path, 0, rows=[("192.0.2.9", {"hits": 77, "ok": 1})])
        # Force a distinct mtime even on coarse-timestamp filesystems.
        os.utime(path, ns=(1, 1))
        store.refresh()
        assert store.read("srvip")[0].rows[0][1]["hits"] == 77

    def test_deleted_file_dropped_on_refresh(self, tmp_path):
        path = make_window(tmp_path, 0)
        make_window(tmp_path, 60)
        store = SeriesStore(str(tmp_path))
        os.remove(path)
        store.refresh()
        assert [r.start_ts for r in store.select("srvip")] == [60]


class TestFollow:
    def test_follow_picks_up_new_windows(self, tmp_path):
        make_window(tmp_path, 0)
        store = SeriesStore(str(tmp_path), follow=True)
        assert len(store.select("srvip")) == 1
        make_window(tmp_path, 60)
        assert [r.start_ts for r in store.select("srvip")] == [0, 60]

    def test_non_follow_requires_explicit_refresh(self, tmp_path):
        make_window(tmp_path, 0)
        store = SeriesStore(str(tmp_path))
        make_window(tmp_path, 60)
        assert len(store.select("srvip")) == 1
        store.refresh()
        assert len(store.select("srvip")) == 2

    def test_follow_never_serves_torn_window(self, tmp_path):
        """A follow-mode store polling a live writer sees every new
        window either complete or not at all (atomic writes + listing
        reconciliation)."""
        rows = [("key-%05d" % i, {"hits": i, "ok": i}) for i in range(2000)]
        store = SeriesStore(str(tmp_path), follow=True, cache_windows=4)
        done = threading.Event()

        def writer():
            try:
                for start in range(0, 20 * 60, 60):
                    make_window(tmp_path, start, rows=rows)
            finally:
                done.set()

        thread = threading.Thread(target=writer)
        thread.start()
        torn = []
        try:
            while not done.is_set():
                for data in store.read("srvip"):
                    if len(data.rows) != len(rows) or \
                            "seen" not in data.stats:
                        torn.append(data.start_ts)
        finally:
            thread.join()
        assert not torn
        assert len(store.read("srvip")) == 20


class TestManifest:
    """The index is the directory scan: nothing is persisted, and a
    manifest an older version left behind is just a foreign file."""

    def test_reopen_answers_equal_first_open(self, tmp_path):
        starts = (0, 60, 120)
        for start in starts:
            make_window(tmp_path, start)

        def answers(store):
            return (store.datasets(),
                    [(d.start_ts, d.rows, d.stats)
                     for d in store.read("srvip")],
                    store.topk("srvip", n=5),
                    [ref.etag_token() for ref in store.select("srvip")])

        first = SeriesStore(str(tmp_path))
        expected = answers(first)
        first.flush_manifest()  # the ledger-pinned no-op
        reopened = SeriesStore(str(tmp_path))
        assert reopened.parses == 0  # opening reads no window
        assert answers(reopened) == expected
        assert sorted(os.listdir(tmp_path)) == [
            "srvip.minutely.%010d.tsv" % start for start in starts]

    def test_stale_manifest_entry_invalidated(self, tmp_path):
        path = make_window(tmp_path, 0)
        store = SeriesStore(str(tmp_path))
        store.read("srvip")
        make_window(tmp_path, 0,
                    rows=[("x", {"hits": 1, "ok": 1}),
                          ("y", {"hits": 1, "ok": 1}),
                          ("z", {"hits": 1, "ok": 1})])
        os.utime(path, ns=(123, 123))
        reopened = SeriesStore(str(tmp_path))
        data = reopened.read("srvip")[0]
        assert len(data.rows) == 3

    def test_corrupt_manifest_ignored(self, tmp_path):
        """Garbage, or a well-formed v2 manifest naming a window that
        is not there: either way never read, listed or rewritten."""
        stale = json.dumps({"version": 2, "windows": {
            "srvip.minutely.0000000060.tsv": {
                "mtime_ns": 1, "size": 1, "ino": 1, "rows": 9,
                "stats": {"seen": 9}}}})
        make_window(tmp_path, 0)
        for content in ("{not json", stale):
            (tmp_path / MANIFEST_NAME).write_text(content)
            store = SeriesStore(str(tmp_path))
            assert [r.start_ts for r in store.select("srvip")] == [0]
            assert list(store.datasets()) == ["srvip"]
            store.flush_manifest()
            assert (tmp_path / MANIFEST_NAME).read_text() == content

    def test_manifest_disabled(self, tmp_path):
        """No way of using the store writes a manifest, with or
        without the ignored ledger-pinned keyword."""
        make_window(tmp_path, 0)
        for kw in ({}, {"manifest": True}, {"manifest": False}):
            store = SeriesStore(str(tmp_path), follow=True, **kw)
            store.read("srvip")
            store.topk("srvip")
            make_window(tmp_path, 60)
            store.refresh()
            store.flush_manifest()
        assert not (tmp_path / MANIFEST_NAME).exists()


class TestQueries:
    def setup_windows(self, tmp_path):
        make_window(tmp_path, 0, rows=[
            ("a", {"hits": 10, "ok": 10}), ("b", {"hits": 1, "ok": 1})])
        make_window(tmp_path, 60, rows=[
            ("b", {"hits": 20, "ok": 20}), ("c", {"hits": 2, "ok": 2})])

    def test_topk(self, tmp_path):
        self.setup_windows(tmp_path)
        store = SeriesStore(str(tmp_path))
        top = store.topk("srvip", n=2)
        assert [key for key, _ in top] == ["b", "a"]
        assert top[0][1]["hits"] == 21

    def test_topk_range(self, tmp_path):
        self.setup_windows(tmp_path)
        store = SeriesStore(str(tmp_path))
        top = store.topk("srvip", n=1, end_ts=60)
        assert [key for key, _ in top] == ["a"]

    def test_key_series_fills_absent_windows_with_zero(self, tmp_path):
        """What ``/key`` renders: one ``cell()`` per window."""
        self.setup_windows(tmp_path)
        store = SeriesStore(str(tmp_path))

        def points(key):
            return [(data.start_ts, data.cell(key, "hits"))
                    for data in store.iter_range("srvip")]

        assert points("b") == [(0, 1), (60, 20)]
        assert points("a") == [(0, 10), (60, 0)]

    def test_has_key(self, tmp_path):
        self.setup_windows(tmp_path)
        store = SeriesStore(str(tmp_path))
        assert store.has_key("srvip", "c")
        assert not store.has_key("srvip", "c", end_ts=60)
        assert not store.has_key("srvip", "zz")

    def test_accumulate_matches_seriesops(self, tmp_path):
        from repro.analysis.seriesops import accumulate_dumps

        self.setup_windows(tmp_path)
        store = SeriesStore(str(tmp_path))
        assert store.accumulate("srvip") == \
            accumulate_dumps(read_series(str(tmp_path), "srvip"))

    def test_topk_reads_each_window_once_per_pass(self, tmp_path):
        """The rank pass and the row pass each read the range once:
        from disk twice without an LRU, once with one."""
        self.setup_windows(tmp_path)
        cold = SeriesStore(str(tmp_path), cache_windows=0)
        cold.topk("srvip", n=1)
        assert cold.parses == 4
        warm = SeriesStore(str(tmp_path))
        warm.topk("srvip", n=1)
        assert warm.parses == 2 and warm.cache_hits == 2


#: one column of each kind the fold treats apart
_KINDS = ("hits", "ok", "delay_q50", "qdots_max", "ttl_top1")


@st.composite
def _windows(draw):
    """Windows over overlapping key sets in shuffled order, each
    missing one column or carrying an extra one; small integer cells
    make ties and zero hits common."""
    pool = ["k%d" % i for i in range(draw(st.integers(1, 9)))]
    cell = st.one_of(st.integers(0, 6),
                     st.floats(0, 99, allow_nan=False).map(
                         lambda v: round(v, 4)))
    windows = []
    for start in range(0, 60 * draw(st.integers(1, 6)), 60):
        keys = draw(st.permutations(pool))
        keys = keys[:draw(st.integers(0, len(keys)))]
        drop = draw(st.sampled_from((None,) + _KINDS))
        columns = [col for col in _KINDS if col != drop]
        if draw(st.booleans()):
            columns.append("extra")
        columns = draw(st.permutations(columns))
        rows = [(key, {col: draw(cell) for col in columns})
                for key in keys]
        windows.append(TimeSeriesData("srvip", "minutely", start,
                                      columns=list(columns), rows=rows))
    return windows


@settings(max_examples=60, deadline=None)
@given(windows=_windows(), by=st.sampled_from(_KINDS + ("nosuch",)),
       n=st.integers(0, 12), cache=st.sampled_from((0, 256)))
def test_topk_pushdown_matches_full_fold(tmp_path_factory, windows, by, n,
                                         cache):
    """``topk`` ranking one column, then folding only the winners,
    equals ranking the full fold: same keys in the same order, rows
    with the same float bits, key sets and window counts."""
    from repro.analysis.seriesops import accumulate_dumps, ranked_keys
    from repro.server.app import _dumps

    directory = tmp_path_factory.mktemp("pushdown")
    for window in windows:
        write_tsv(str(directory), window)
    full = accumulate_dumps(read_series(str(directory), "srvip"))
    want = [(key, full[key]) for key in ranked_keys(full, by)[:n]]
    got = SeriesStore(str(directory), cache_windows=cache).topk(
        "srvip", n=n, by=by)

    def text(top):
        return _dumps([[key, row, row.windows] for key, row in top])

    assert text(got) == text(want)


def test_topk_winners_fold_in_runs(tmp_path, monkeypatch):
    """The winners pass lists the winners in rank order, so windows
    holding the same winners fold as one run however their rows moved:
    here ``a`` and ``b`` swap rows every window and ``c`` is absent
    from window 4, and the winners fold as runs of 4, 1 and 2 windows.
    The rows equal the full fold's for a counter, a gauge, a mode and
    a max column: values, their types and window counts."""
    from repro.analysis.seriesops import (
        Accumulator, accumulate_dumps, ranked_keys)
    from repro.server.app import _dumps

    for w in range(7):
        order = ["a", "b", "c", "d"] if w % 2 == 0 else ["b", "a", "d", "c"]
        rows = [(key, {"hits": 40 - 9 * i + w, "ok": 30 - 7 * i,
                       "delay_q50": round(1.7 * (w + 1) / (i + 3), 4),
                       "qdots_max": (w * 3 + i) % 5,
                       "ttl_top1": (300, 60, 300, 3600)[(w + i) % 4]})
                for i, key in enumerate(sorted(order))]
        rows = sorted(rows, key=lambda row: order.index(row[0]))
        if w == 4:
            rows = [row for row in rows if row[0] != "c"]
        write_tsv(str(tmp_path), TimeSeriesData(
            "srvip", "minutely", 60 * w, columns=list(_KINDS), rows=rows))
    full = accumulate_dumps(read_series(str(tmp_path), "srvip"))
    store = SeriesStore(str(tmp_path))
    for by in ("hits", "delay_q50", "ttl_top1", "qdots_max"):
        want = [(key, full[key]) for key in ranked_keys(full, by)[:3]]
        got = store.topk("srvip", n=3, by=by)
        assert _dumps([[k, r, r.windows] for k, r in got]) == \
            _dumps([[k, r, r.windows] for k, r in want]), by

    runs = []
    fold = Accumulator.fold_columns_run

    def recording(self, keys, columns, values):
        if len(columns) == len(_KINDS):  # the winners pass
            runs.append((keys, len(values)))
        return fold(self, keys, columns, values)

    monkeypatch.setattr(Accumulator, "fold_columns_run", recording)
    assert [key for key, _ in store.topk("srvip", n=3)] == ["a", "b", "c"]
    assert runs == [(["a", "b", "c"], 4), (["a", "b"], 1),
                    (["a", "b", "c"], 2)]


class TestNotifyFlush:
    """The daemon's O(1) reconcile: one stat, no directory scan."""

    def test_new_window_visible_without_refresh(self, tmp_path):
        make_window(tmp_path, 0)
        store = SeriesStore(str(tmp_path))  # no follow re-scans
        path = make_window(tmp_path, 60)
        assert [r.start_ts for r in store.select("srvip")] == [0]
        ref = store.notify_flush(path)
        assert ref is not None and ref.start_ts == 60
        assert [r.start_ts for r in store.select("srvip")] == [0, 60]
        assert store.parses == 0  # reconcile is stat-only

    def test_notify_reconciles_only_the_named_file(self, tmp_path):
        store = SeriesStore(str(tmp_path))
        first = make_window(tmp_path, 0)
        make_window(tmp_path, 60)  # flushed but never notified
        store.notify_flush(first)
        assert [r.start_ts for r in store.select("srvip")] == [0]

    def test_notify_same_revision_returns_existing_ref(self, tmp_path):
        path = make_window(tmp_path, 0)
        store = SeriesStore(str(tmp_path))
        before = store.select("srvip")[0]
        assert store.notify_flush(path) is before

    def test_notify_rewrite_invalidates_cached_parse(self, tmp_path):
        path = make_window(tmp_path, 0)
        store = SeriesStore(str(tmp_path))
        assert store.read("srvip")[0].rows[0][1]["hits"] == 10
        make_window(tmp_path, 0,
                    rows=[("192.0.2.9", {"hits": 42, "ok": 1})])
        store.notify_flush(path)
        assert store.read("srvip")[0].rows[0][1]["hits"] == 42

    def test_notify_missing_file_drops_the_ref(self, tmp_path):
        path = make_window(tmp_path, 0)
        store = SeriesStore(str(tmp_path))
        assert len(store.select("srvip")) == 1
        os.remove(path)
        assert store.notify_flush(path) is None
        assert store.select("srvip") == []

    def test_notify_non_series_path_ignored(self, tmp_path):
        store = SeriesStore(str(tmp_path))
        assert store.notify_flush(str(tmp_path / "junk.txt")) is None
        assert store._index == {}

    def test_notifications_counted(self, tmp_path):
        store = SeriesStore(str(tmp_path))
        store.notify_flush(make_window(tmp_path, 0))
        store.notify_flush(make_window(tmp_path, 60))
        assert store.cache_info()["notifications"] == 2


class TestInodeIdentity:
    def test_same_size_same_mtime_rewrite_detected(self, tmp_path):
        """A same-size rewrite under coarse mtime granularity: only
        the inode distinguishes the revisions (write_tsv's os.replace
        always lands a fresh inode)."""
        path = make_window(tmp_path, 0)
        st = os.stat(path)
        store = SeriesStore(str(tmp_path))
        before = store.select("srvip")[0].etag_token()
        assert store.read("srvip")[0].rows[0][1]["hits"] == 10
        # same formatted width -> same byte size; mtime pinned equal
        make_window(tmp_path, 0, rows=[
            ("192.0.2.1", {"hits": 99, "ok": 9}),
            ("192.0.2.2", {"hits": 5, "ok": 5}),
        ])
        os.utime(path, ns=(st.st_mtime_ns, st.st_mtime_ns))
        assert os.stat(path).st_size == st.st_size
        assert os.stat(path).st_mtime_ns == st.st_mtime_ns
        store.refresh()
        assert store.read("srvip")[0].rows[0][1]["hits"] == 99
        assert store.select("srvip")[0].etag_token() != before


def test_telemetry_registration(tmp_path):
    from repro.observatory.telemetry import Telemetry

    make_window(tmp_path, 0)
    registry = Telemetry()
    store = SeriesStore(str(tmp_path), telemetry=registry)
    store.read("srvip")
    store.read("srvip")
    rows = dict(registry.snapshot(60))
    assert rows["store"]["indexed_windows"] == 1
    assert rows["store"]["hits"] == 1
    assert rows["store"]["misses"] == 1
    # Cumulative columns are differenced per snapshot.
    rows = dict(registry.snapshot(120))
    assert rows["store"]["hits"] == 0


def test_etag_token_changes_with_file(tmp_path):
    path = make_window(tmp_path, 0)
    store = SeriesStore(str(tmp_path))
    before = store.select("srvip")[0].etag_token()
    os.utime(path, ns=(99, 99))
    store.refresh()
    after = store.select("srvip")[0].etag_token()
    assert before != after


def test_windows_of_manifest_never_alias_tmp_files(tmp_path):
    make_window(tmp_path, 0)
    (tmp_path / "srvip.minutely.0000000060.tsv.tmp.123").write_text("junk")
    store = SeriesStore(str(tmp_path))
    assert [r.start_ts for r in store.select("srvip")] == [0]


def test_misses_counted_against_cache_disabled(tmp_path):
    make_window(tmp_path, 0)
    store = SeriesStore(str(tmp_path), cache_windows=0)
    store.read("srvip")
    info = store.cache_info()
    assert info["misses"] == 1 and info["hits"] == 0
