"""Tests for the zero-copy shard transport codecs.

Covers three layers: the per-sketch ``to_buffers``/``from_buffers``
pairs (flat contiguous payloads), the protocol-5 ``__reduce_ex__``
wiring (out-of-band with a buffer callback, in-band without, untouched
below protocol 5), and the batch/state codecs the sharded engine ships
over its queues.
"""

import pickle

import pytest

from repro.dnswire.constants import RCODE
from repro.observatory.features import FeatureSet
from repro.observatory.tracker import ShardWindowState
from repro.observatory.transport import (
    BinaryTransport, PickleTransport, decode_batch, encode_batch_into,
    get_transport, pack_states, unpack_states)
from repro.sketches.histogram import LogHistogram, RunningMean
from repro.sketches.hyperloglog import HyperLogLog
from repro.sketches.topvalues import TopValues
from tests.util import make_txn


def roundtrip_oob(obj):
    """Pickle with protocol-5 out-of-band buffers, like the transport."""
    payload, buffers = pack_states(obj)
    return unpack_states(payload, buffers)


class TestSketchBuffers:
    def test_hll_sparse_roundtrip(self):
        sketch = HyperLogLog(8, seed=5)
        for i in range(10):
            sketch.add("key-%d" % i)
        meta, buffers = sketch.to_buffers()
        assert meta[0] == "hll-sparse"
        assert len(buffers[0]) < sketch.num_registers
        back = HyperLogLog.from_buffers(meta, buffers)
        assert back._registers == sketch._registers
        assert (back.precision, back.seed) == (8, 5)

    def test_hll_dense_roundtrip_zero_copy(self):
        sketch = HyperLogLog(8, seed=1)
        for i in range(5000):
            sketch.add(str(i))
        meta, buffers = sketch.to_buffers()
        assert meta[0] == "hll-dense"
        # dense mode exposes the live registers, not a copy
        assert buffers[0] is sketch._registers
        back = HyperLogLog.from_buffers(meta, buffers)
        assert back._registers == sketch._registers

    def test_hll_empty_encodes_to_nothing(self):
        meta, buffers = HyperLogLog(10).to_buffers()
        assert meta[0] == "hll-sparse"
        assert len(buffers[0]) == 0

    def test_hll_wide_precision_sparse_pairs(self):
        sketch = HyperLogLog(12, seed=2)  # indexes need two bytes
        for i in range(20):
            sketch.add("x%d" % i)
        meta, buffers = sketch.to_buffers()
        back = HyperLogLog.from_buffers(meta, buffers)
        assert back._registers == sketch._registers

    def test_hll_rejects_bad_blob(self):
        meta, buffers = HyperLogLog(8).to_buffers()
        with pytest.raises(ValueError):
            HyperLogLog.from_buffers(("hll-dense", 8, 0), [b"short"])
        with pytest.raises(ValueError):
            HyperLogLog.from_buffers(("hll-wat", 8, 0), buffers)

    def test_loghistogram_roundtrip_exact_base(self):
        hist = LogHistogram(min_value=0.05)
        for value in (0.01, 0.3, 12.5, 12.5, 900.0):
            hist.add(value)
        meta, buffers = hist.to_buffers()
        back = LogHistogram.from_buffers(meta, buffers)
        assert back.base == hist.base  # bit-exact, not via relative_error
        assert back._buckets == hist._buckets
        assert back.quartiles() == hist.quartiles()
        assert (back.count, back.mean, back._min, back.max) == \
            (hist.count, hist.mean, hist._min, hist.max)
        hist.merge(back)  # merge accepts the reconstructed parameters

    def test_loghistogram_empty_roundtrip(self):
        back = roundtrip_oob(LogHistogram())
        assert back.count == 0 and back.quartiles() == (0.0, 0.0, 0.0)

    def test_runningmean_roundtrip(self):
        mean = RunningMean()
        mean.add(2.0)
        mean.add(4.0, count=3)
        back = RunningMean.from_buffers(*mean.to_buffers())
        assert (back.count, back.mean) == (mean.count, mean.mean)

    def test_topvalues_int_packs_to_buffer(self):
        top = TopValues(max_values=4)
        for ttl in (300, 300, 60, 86400, 1, 2):  # forces a recycle
            top.add(ttl)
        meta, buffers = top.to_buffers()
        assert meta[0] == "topv-int" and len(buffers) == 1
        back = TopValues.from_buffers(meta, buffers)
        assert back._counts == top._counts
        assert list(back._counts) == list(top._counts)  # insertion order
        assert (back.total, back.replaced) == (top.total, top.replaced)

    def test_topvalues_object_values_fall_back_inband(self):
        top = TopValues()
        top.add("a")
        top.add(1.5)
        meta, buffers = top.to_buffers()
        assert meta[0] == "topv-obj" and buffers == []
        back = TopValues.from_buffers(meta, buffers)
        assert back.distribution() == top.distribution()


class TestReduceEx:
    @pytest.mark.parametrize("protocol", [2, 4, 5])
    def test_hll_pickles_at_every_protocol(self, protocol):
        sketch = HyperLogLog(8, seed=3)
        for i in range(100):
            sketch.add(str(i))
        back = pickle.loads(pickle.dumps(sketch, protocol))
        assert back._registers == sketch._registers

    def test_protocol4_stream_unchanged_by_codec(self):
        """Below protocol 5 the legacy (slot-dict) pickling is used, so
        old payloads and mp queues at the default protocol still work."""
        sketch = HyperLogLog(8)
        assert b"hll-" not in pickle.dumps(sketch, 4)
        assert b"hll-" in pickle.dumps(sketch, 5)

    def test_featureset_oob_roundtrip(self):
        features = FeatureSet()
        for i in range(80):
            features.update(make_txn(
                ts=float(i), qname="q%d.example.com" % (i % 13),
                server_ip="192.0.2.%d" % (i % 7), delay_ms=1.5 * i + 0.1))
        payload, buffers = pack_states(features)
        assert buffers  # register blocks really went out-of-band
        back = unpack_states(payload, buffers)
        assert back.as_row() == features.as_row()
        assert back.srvips._registers == features.srvips._registers

    def test_featureset_inband_protocol5_roundtrip(self):
        features = FeatureSet()
        features.update(make_txn())
        back = pickle.loads(pickle.dumps(features, 5))
        assert back.as_row() == features.as_row()

    def test_featureset_merge_after_roundtrip(self):
        a, b = FeatureSet(), FeatureSet()
        for i in range(10):
            a.update(make_txn(ts=float(i), qname="a%d.example.com" % i))
            b.update(make_txn(ts=float(i), qname="b%d.example.com" % i))
        direct = FeatureSet()
        for i in range(10):
            direct.update(make_txn(ts=float(i), qname="a%d.example.com" % i))
        for i in range(10):
            direct.update(make_txn(ts=float(i), qname="b%d.example.com" % i))
        merged = roundtrip_oob(a).merge(roundtrip_oob(b))
        assert merged.hits == direct.hits
        assert merged.qnamesa._registers == direct.qnamesa._registers

    def test_shard_window_state_roundtrip(self):
        features = FeatureSet()
        features.update(make_txn())
        state = ShardWindowState(
            "srvip", 60, [("192.0.2.53", 2.5, 0.0, 1.0, 3, features)],
            [("10.0.0.1", 5.0, 0.25)], {"seen": 10, "kept": 8})
        back = roundtrip_oob(state)
        assert back.dataset == "srvip" and back.start_ts == 60
        assert back.inserted == [("10.0.0.1", 5.0, 0.25)]
        assert back.stats == {"seen": 10, "kept": 8}
        key, rate, error, inserted_at, hits, fs = back.entries[0]
        assert (key, rate, error, inserted_at, hits) == \
            ("192.0.2.53", 2.5, 0.0, 1.0, 3)
        assert fs.as_row() == features.as_row()


def encode_batch(txns):
    return BinaryTransport().pack_batch(txns)


class TestBatchCodec:
    def test_roundtrip_exact(self):
        txns = [make_txn(ts=0.1 * i + 1e-9, delay_ms=3.7 * i,
                         qname="w%d.example.org" % i) for i in range(50)]
        back = decode_batch(encode_batch(txns))
        assert len(back) == 50
        for original, decoded in zip(txns, back):
            assert decoded.ts == original.ts          # bit-exact floats
            assert decoded.delay_ms == original.delay_ms
            assert decoded.qname == original.qname
            assert decoded.answer_ttls == original.answer_ttls
            assert decoded.answer_ips == original.answer_ips

    def test_empty_batch(self):
        assert encode_batch([]) == b""
        assert decode_batch(b"") == []

    def test_decode_accepts_memoryview(self):
        data = encode_batch([make_txn(ts=1.25)])
        assert decode_batch(memoryview(data))[0].ts == 1.25

    def test_unanswered_and_nxdomain_roundtrip(self):
        txns = [make_txn(ts=1.0, answered=False),
                make_txn(ts=2.0, rcode=RCODE.NXDOMAIN, answer_count=0)]
        back = decode_batch(encode_batch(txns))
        assert back[0].answered is False and back[0].rcode is None
        assert back[1].rcode == RCODE.NXDOMAIN

    def test_encode_batch_into_reuses_buffer(self):
        buf = bytearray(b"stale contents from the last batch")
        txns = [make_txn(ts=1.0), make_txn(ts=2.0)]
        out = encode_batch_into(txns, buf)
        assert out is buf  # same object, grown in place
        assert decode_batch(bytes(buf)) and len(decode_batch(bytes(buf))) == 2
        # a following smaller batch must fully replace the contents
        out = encode_batch_into([make_txn(ts=3.0)], buf)
        assert out is buf
        assert len(decode_batch(bytes(buf))) == 1
        assert encode_batch_into([], buf) == b""


class TestTransportInterface:
    def test_get_transport(self):
        assert isinstance(get_transport("pickle"), PickleTransport)
        assert isinstance(get_transport("binary"), BinaryTransport)
        custom = BinaryTransport()
        assert get_transport(custom) is custom
        with pytest.raises(ValueError, match="unknown transport"):
            get_transport("carrier-pigeon")

    def test_pickle_transport_is_passthrough(self):
        codec = PickleTransport()
        txns = [make_txn()]
        assert codec.unpack_batch(codec.pack_batch(txns)) == txns
        states = ["anything"]
        assert codec.unpack_states(codec.pack_states(states)) == states

    def test_binary_transport_states(self):
        codec = BinaryTransport()
        features = FeatureSet()
        features.update(make_txn())
        state = ShardWindowState("srvip", 0,
                                 [("k", 1.0, 0.0, 0.0, 1, features)],
                                 [], {"seen": 1, "kept": 1})
        packed = codec.pack_states([state])
        payload, buffers = packed
        assert isinstance(payload, bytes)
        back = codec.unpack_states(packed)
        assert back[0].entries[0][5].as_row() == features.as_row()

    def test_binary_states_smaller_than_default_pickle(self):
        """The acceptance criterion's micro version: one merged window
        of shard state must serialize to well under half the default
        pickle bytes (sparse HLL register blocks dominate)."""
        entries = []
        for i in range(20):
            features = FeatureSet()
            for j in range(5):
                features.update(make_txn(
                    ts=float(j), qname="q%d-%d.example.com" % (i, j)))
            entries.append(("key-%d" % i, 1.0, 0.0, 0.0, 5, features))
        state = ShardWindowState("srvip", 0, entries, [],
                                 {"seen": 100, "kept": 100})
        default_bytes = len(pickle.dumps([state]))
        payload, buffers = pack_states([state])
        binary_bytes = len(payload) + sum(len(b) for b in buffers)
        assert binary_bytes * 2 <= default_bytes
