"""Tests for running analyses straight from on-disk TSV series."""

from repro.analysis.distributions import TrafficDistribution
from repro.analysis.seriesops import accumulate_dumps
from repro.observatory.pipeline import Observatory
from repro.observatory.tsv import read_series
from tests.util import make_txn


def make_tsv_dir(tmp_path):
    """Write a small srvip tree; returns the windows written."""
    obs = Observatory(datasets=[("srvip", 64)], output_dir=str(tmp_path),
                      use_bloom_gate=False, skip_recent_inserts=False)
    windows = []
    for i in range(300):
        windows += obs.ingest(make_txn(ts=i * 0.5,
                                       server_ip="192.0.2.%d" % (1 + i % 5)))
    return windows + obs.finish()


def test_read_series_time_ordered(tmp_path):
    make_tsv_dir(tmp_path)
    series = read_series(str(tmp_path), "srvip")
    assert len(series) >= 2
    starts = [s.start_ts for s in series]
    assert starts == sorted(starts)


def test_analysis_from_disk_equals_in_memory(tmp_path):
    windows = make_tsv_dir(tmp_path)
    from_disk = accumulate_dumps(read_series(str(tmp_path), "srvip"))
    in_memory = accumulate_dumps(windows)
    assert set(from_disk) == set(in_memory)
    for key in from_disk:
        assert from_disk[key]["hits"] == in_memory[key]["hits"]
    # A full figure computation works on the disk-loaded rows.
    dist = TrafficDistribution(from_disk)
    assert dist.share_of_top(5) == 1.0


def test_read_series_missing_dataset(tmp_path):
    assert read_series(str(tmp_path), "nothing") == []
