"""Tests for the Top-k tracker and window manager."""

import pytest

from repro.observatory.keys import make_dataset
from repro.observatory.tracker import TopKTracker
from repro.observatory.window import WindowManager
from tests.util import make_txn


def tracker(name="srvip", k=8, **kw):
    kw.setdefault("use_bloom_gate", False)
    return TopKTracker(make_dataset(name, k), **kw)


class TestTracker:
    def test_observe_attaches_state(self):
        t = tracker()
        entry = t.observe(make_txn())
        assert entry is not None
        assert entry.state.hits == 1
        t.observe(make_txn(ts=1.0))
        assert entry.state.hits == 2

    def test_filtered_transactions_counted(self):
        t = tracker("aafqdn")
        t.observe(make_txn(aa=False))
        assert t.filtered == 1
        assert t.processed == 0

    def test_state_resets_on_eviction(self):
        t = tracker(k=1)
        t.observe(make_txn(server_ip="192.0.2.1"))
        entry = t.observe(make_txn(server_ip="192.0.2.2", ts=1.0))
        assert entry.key == "192.0.2.2"
        assert entry.state.hits == 1  # fresh stats, not the victim's

    def test_observe_is_observe_batch_of_one(self):
        """Same entry, counters and feature state either way -- also
        for a filtered transaction and one the full cache drops."""
        one, batch = tracker("aafqdn", k=1), tracker("aafqdn", k=1)
        txns = [make_txn(aa=True, qname="a.example.com"),
                make_txn(aa=False, qname="b.example.com", ts=1.0),
                make_txn(aa=True, qname="a.example.com", ts=2.0)]
        entries = [one.observe(txn) for txn in txns]
        assert batch.observe_batch(txns, [None] * 3) == 2
        assert entries[1] is None
        key = entries[0].key
        assert entries[0] is entries[2] is one.cache.get(key)
        assert (one.filtered, one.processed) == \
            (batch.filtered, batch.processed) == (1, 2)
        assert entries[0].state.to_buffers() == \
            batch.cache.get(key).state.to_buffers()

    def test_top_ranking(self):
        t = tracker()
        for i in range(5):
            t.observe(make_txn(server_ip="192.0.2.1", ts=i * 0.1))
        t.observe(make_txn(server_ip="192.0.2.2", ts=0.5))
        assert [e.key for e in t.top(2)] == ["192.0.2.1", "192.0.2.2"]

    def test_repr(self):
        assert "srvip" in repr(tracker())


class TestWindowManager:
    def test_no_dump_within_window(self):
        wm = WindowManager([tracker()], window_seconds=60)
        assert wm.observe(make_txn(ts=0.0)) == []
        assert wm.observe(make_txn(ts=59.9)) == []
        assert wm.windows_completed == 0

    def test_dump_on_boundary(self):
        t = tracker()
        wm = WindowManager([t], window_seconds=60, skip_recent_inserts=False)
        wm.observe(make_txn(ts=0.0))
        dumps = wm.observe(make_txn(ts=60.5))
        assert len(dumps) == 1
        dump = dumps[0]
        assert dump.dataset == "srvip"
        assert dump.start_ts == 0
        assert len(dump.rows) == 1
        assert dump.stats["seen"] == 1

    def test_stats_reset_between_windows(self):
        t = tracker()
        wm = WindowManager([t], window_seconds=60, skip_recent_inserts=False)
        wm.observe(make_txn(ts=0.0))
        wm.observe(make_txn(ts=61.0))
        dumps = wm.observe(make_txn(ts=121.0))
        # Second window saw exactly one transaction.
        assert dumps[0].row_map()["192.0.2.53"]["hits"] == 1

    def test_skip_recent_inserts(self):
        t = tracker()
        wm = WindowManager([t], window_seconds=60, skip_recent_inserts=True)
        wm.observe(make_txn(ts=30.0))  # inserted mid-window
        dumps = wm.observe(make_txn(ts=61.0))
        assert dumps[0].rows == []  # did not survive a full window
        dumps = wm.observe(make_txn(ts=121.0))
        assert len(dumps[0].rows) == 1  # now it did

    def test_gap_fast_forwards_over_empty_windows(self):
        """A stream gap no longer emits one (empty) dump per idle
        window -- the manager flushes once, then realigns straight to
        the gap's far side.  The skipped windows still count."""
        wm = WindowManager([tracker()], window_seconds=60)
        wm.observe(make_txn(ts=0.0))
        dumps = wm.observe(make_txn(ts=200.0))  # skips windows entirely
        assert [d.start_ts for d in dumps] == [0]
        assert wm.window_start == 180
        assert wm.windows_completed == 3  # window 0 + two skipped

    def test_gap_storm_writes_no_empty_files(self, tmp_path):
        """A 1-day sensor outage used to write 1440 header-only TSVs
        per dataset; now the gap produces no files at all."""
        from repro.observatory.pipeline import Observatory

        obs = Observatory(datasets=[("srvip", 8)], window_seconds=60,
                          output_dir=str(tmp_path))
        obs.ingest(make_txn(ts=0.0))
        obs.ingest(make_txn(ts=30.0))
        obs.ingest(make_txn(ts=86_400.0))  # one day later
        obs.finish()
        files = sorted(p.name for p in tmp_path.iterdir())
        # window 0 (non-empty) and the tail window; nothing in between
        assert files == ["srvip.minutely.0000000000.tsv",
                         "srvip.minutely.0000086400.tsv"]
        assert obs.windows.windows_completed == 86_400 // 60 + 1

    def test_flush_partial_window(self):
        wm = WindowManager([tracker()], window_seconds=60,
                           skip_recent_inserts=False)
        assert wm.flush() == []  # nothing ingested yet
        wm.observe(make_txn(ts=5.0))
        dumps = wm.flush()
        assert len(dumps) == 1
        assert len(dumps[0].rows) == 1

    def test_sink_called(self):
        received = []
        wm = WindowManager([tracker()], window_seconds=60,
                           sink=received.append, skip_recent_inserts=False)
        wm.observe(make_txn(ts=0.0))
        wm.observe(make_txn(ts=61.0))
        assert len(received) == 1

    def test_window_alignment(self):
        wm = WindowManager([tracker()], window_seconds=60)
        wm.observe(make_txn(ts=75.0))
        assert wm.window_start == 60

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            WindowManager([], window_seconds=0)

    def test_multiple_trackers_dumped_together(self):
        wm = WindowManager([tracker("srvip"), tracker("qname")],
                           window_seconds=60, skip_recent_inserts=False)
        wm.observe(make_txn(ts=0.0))
        dumps = wm.observe(make_txn(ts=61.0))
        assert {d.dataset for d in dumps} == {"srvip", "qname"}
