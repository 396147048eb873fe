"""Tests for the shard link: what the multiprocessing queues pickle.

Covers the sketches' flat buffer views (``to_buffers``, the state
comparison the other tests use) surviving a pickle round trip, the
identity codec kept for the ledger, and a worker's cut windows
crossing the queue at every pickle protocol it may meet.
"""

import pickle

import pytest

from repro.detect import build_detectors
from repro.observatory.encrypted import (
    EncryptedChannelAggregator, encrypt_observation)
from repro.observatory.keys import make_dataset
from repro.observatory.tracker import TopKTracker
from repro.observatory.transport import PickleTransport, get_transport
from repro.observatory.window import WindowManager
from repro.sketches.histogram import LogHistogram, RunningMean
from repro.sketches.hyperloglog import HyperLogLog
from repro.sketches.topvalues import TopValues
from tests.util import make_txn


def roundtrip(obj):
    """Through the queue's pickling (the default protocol)."""
    return pickle.loads(pickle.dumps(obj))


class TestSketchBuffers:
    def test_hll_sparse_roundtrip(self):
        sketch = HyperLogLog(8, seed=5)
        for i in range(10):
            sketch.add("key-%d" % i)
        meta, buffers = sketch.to_buffers()
        assert meta[0] == "hll-sparse"
        assert len(buffers[0]) < sketch.num_registers
        back = roundtrip(sketch)
        assert back.to_buffers() == (meta, buffers)
        assert (back.precision, back.seed) == (8, 5)

    def test_hll_dense_roundtrip_zero_copy(self):
        sketch = HyperLogLog(8, seed=1)
        for i in range(5000):
            sketch.add(str(i))
        meta, buffers = sketch.to_buffers()
        assert meta[0] == "hll-dense"
        # dense mode exposes the live registers, not a copy
        assert buffers[0] is sketch._registers
        assert roundtrip(sketch)._registers == sketch._registers

    def test_hll_empty_encodes_to_nothing(self):
        meta, buffers = HyperLogLog(10).to_buffers()
        assert meta[0] == "hll-sparse"
        assert len(buffers[0]) == 0

    def test_hll_wide_precision_sparse_pairs(self):
        sketch = HyperLogLog(12, seed=2)  # indexes need two bytes
        for i in range(20):
            sketch.add("x%d" % i)
        meta, buffers = sketch.to_buffers()
        occupied = sketch.num_registers - sketch._registers.count(0)
        assert len(buffers[0]) == 3 * occupied
        assert roundtrip(sketch).to_buffers() == (meta, buffers)

    def test_loghistogram_roundtrip_exact_base(self):
        hist = LogHistogram(min_value=0.05)
        for value in (0.01, 0.3, 12.5, 12.5, 900.0):
            hist.add(value)
        back = roundtrip(hist)
        assert back.base == hist.base  # bit-exact, not via relative_error
        assert back.to_buffers() == hist.to_buffers()
        assert back.quartiles() == hist.quartiles()
        hist.merge(back)  # merge accepts the reconstructed parameters

    def test_loghistogram_empty_roundtrip(self):
        back = roundtrip(LogHistogram())
        assert back.count == 0 and back.quartiles() == (0.0, 0.0, 0.0)

    def test_runningmean_roundtrip(self):
        mean = RunningMean()
        mean.add(2.0)
        for _ in range(3):
            mean.add(4.0)
        back = roundtrip(mean)
        assert (back.count, back.mean) == (mean.count, mean.mean)

    def test_topvalues_int_packs_to_buffer(self):
        top = TopValues(max_values=4)
        for ttl in (300, 300, 60, 86400, 1, 2):  # forces a recycle
            top.add(ttl)
        meta, buffers = top.to_buffers()
        assert meta[0] == "topv-int" and len(buffers) == 1
        back = roundtrip(top)
        assert list(back._counts) == list(top._counts)  # insertion order
        assert back.to_buffers() == (meta, buffers)

    def test_topvalues_object_values_fall_back_inband(self):
        top = TopValues(16)
        top.add("a")
        top.add(1.5)
        meta, buffers = top.to_buffers()
        assert meta[0] == "topv-obj" and buffers == []
        assert roundtrip(top).distribution() == top.distribution()


class TestTransportInterface:
    def test_get_transport(self):
        assert isinstance(get_transport("pickle"), PickleTransport)
        for name in ("binary", "carrier-pigeon"):
            with pytest.raises(ValueError, match="removed"):
                get_transport(name)

    def test_pickle_transport_is_passthrough(self):
        codec = PickleTransport()
        txns = [make_txn()]
        assert codec.unpack_batch(codec.pack_batch(txns)) == txns
        states = ["anything"]
        assert codec.unpack_states(codec.pack_states(states)) == states


DATASETS = ("srvip", "qname")


def _cut_windows():
    """What a worker owning every channel ships at the cut of window 0:
    the windows it cut, in channel order."""
    shipped = []
    manager = WindowManager(
        [TopKTracker(make_dataset(name, 64)) for name in DATASETS],
        window_seconds=60, state_sink=shipped.append,
        skip_recent_inserts=False, detectors=build_detectors(True),
        encrypted=EncryptedChannelAggregator())
    txns = [make_txn(ts=0.5 * i, qname="q%d.example.com" % (i % 13),
                     server_ip="192.0.2.%d" % (i % 7),
                     delay_ms=1.5 * i + 0.1, answer_ttls=(300 + i % 3,))
            for i in range(80)]
    txns[::4] = [encrypt_observation(txn, "doh") for txn in txns[::4]]
    manager.consume_batch(txns)
    manager.flush()
    [windows] = shipped
    return windows


def _content(windows):
    return [(w.dataset, w.start_ts, list(w.columns), w.rows, w.stats)
            for w in windows]


class TestQueuePickling:
    """The queues pickle at ``pickle.DEFAULT_PROTOCOL`` -- 4 through
    Python 3.13, 5 from 3.14 -- with nothing of ours hooked in, so a
    worker's cut windows must decode to the same windows at either."""

    @pytest.mark.parametrize("protocol", [4, 5, pickle.HIGHEST_PROTOCOL],
                             ids=["4", "5", "highest"])
    def test_cut_windows_cross_the_queue_unchanged(self, protocol):
        windows = _cut_windows()
        assert [w.dataset for w in windows if w.rows] == \
            ["srvip", "qname", "_detector", "_encrypted"]
        # blinded records count in every trailer's seen
        assert {w.stats["seen"] for w in windows[:3]} == {80}
        decoded = pickle.loads(pickle.dumps(windows, protocol))
        assert _content(decoded) == _content(windows)
