"""Tests for cut-window conversions and stats bookkeeping."""

import pytest

from repro.observatory.pipeline import Observatory
from repro.observatory.tsv import TimeSeriesData, write_tsv, read_tsv
from tests.util import make_txn


def test_to_timeseries_roundtrip(tmp_path):
    dump = TimeSeriesData("srvip", "minutely", 120,
                          rows=[("192.0.2.1", {"hits": 7, "ok": 6})],
                          stats={"seen": 10, "kept": 7})
    data = dump.to_timeseries("minutely")
    assert data.granularity == "minutely"
    assert data.start_ts == 120
    back = read_tsv(write_tsv(str(tmp_path), data))
    assert back.row_map()["192.0.2.1"]["hits"] == 7
    assert back.stats["seen"] == 10


def test_dump_len_and_row_map():
    dump = TimeSeriesData("x", "minutely", 0,
                          rows=[("a", {"hits": 1}), ("b", {"hits": 2})])
    assert len(dump) == 2
    assert dump.row_map()["b"]["hits"] == 2


def test_window_stats_count_seen_and_kept():
    obs = Observatory(datasets=[("srvip", 1)], use_bloom_gate=False,
                      skip_recent_inserts=False)
    # Two servers, capacity 1: some observations land on evicted keys.
    for i in range(20):
        obs.ingest(make_txn(ts=float(i),
                            server_ip="192.0.2.%d" % (1 + i % 2)))
    dumps = obs.finish()
    stats = dumps[0].stats
    assert stats["seen"] == 20
    assert 0 < stats["kept"] <= 20


def test_kept_counts_are_per_dataset():
    obs = Observatory(datasets=[("srvip", 100), ("aafqdn", 100)],
                      use_bloom_gate=False, skip_recent_inserts=False)
    # aa=False transactions are filtered out of aafqdn entirely.
    for i in range(10):
        obs.ingest(make_txn(ts=float(i), aa=False))
    dumps = {d.dataset: d for d in obs.finish()}
    assert dumps["srvip"].stats["kept"] == 10
    assert dumps["aafqdn"].stats["kept"] == 0
