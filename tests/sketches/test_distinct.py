"""Tests for the distinct-counting Space-Saving sketch."""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches.distinct import DistinctSpaceSaving
from repro.sketches._hashing import hash64


def estimate(sketch, key):
    """*key*'s distinct estimate as ``top()`` reports it (0 untracked)."""
    return dict(sketch.top()).get(key, 0)


def feed(sketch, pairs):
    for key, value in pairs:
        sketch.offer(key, hash64(value))
    return sketch


class TestDistinctSpaceSaving:
    def test_ranks_by_distinct_not_volume(self):
        sketch = DistinctSpaceSaving(capacity=16)
        # "loud" repeats one subdomain 1000x; "wide" sees 50 distinct
        feed(sketch, [("loud", "only-one")] * 1000)
        feed(sketch, [("wide", "sub-%d" % i) for i in range(50)])
        top = sketch.top(2)
        assert top[0][0] == "wide"
        assert top[0][1] == pytest.approx(50, abs=3)
        assert top[1] == ("loud", 1)

    def test_exact_while_capacity_unbound(self):
        sketch = DistinctSpaceSaving(capacity=64)
        for k in range(10):
            feed(sketch, [("key%d" % k, "v%d" % v) for v in range(k + 1)])
        assert sketch.evictions == 0
        for k in range(10):
            assert estimate(sketch, "key%d" % k) == k + 1

    def test_eviction_inherits_base(self):
        sketch = DistinctSpaceSaving(capacity=2)
        feed(sketch, [("a", "v%d" % i) for i in range(10)])
        feed(sketch, [("b", "v%d" % i) for i in range(20)])
        before = estimate(sketch, "a")
        sketch.offer("c", hash64("first"))
        assert sketch.evictions == 1
        assert estimate(sketch, "a") == 0
        # the newcomer carries the victim's estimate as its error base
        assert estimate(sketch, "c") >= before
        assert len(sketch.top()) == 2

    def test_estimate_never_underestimates_after_eviction(self):
        rng = random.Random(5)
        sketch = DistinctSpaceSaving(capacity=8)
        truth = {}
        for _ in range(2000):
            key = "k%d" % rng.randrange(24)
            value = "v%d" % rng.randrange(500)
            truth.setdefault(key, set()).add(value)
            sketch.offer(key, hash64(value))
        for key, estimate in sketch.top():
            # Space-Saving overestimates; HLL adds ~2% noise at p=11.
            assert estimate >= len(truth[key]) * 0.9

    def test_merge_parameter_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DistinctSpaceSaving(capacity=4).merge(
                DistinctSpaceSaving(capacity=8))
        with pytest.raises(TypeError):
            DistinctSpaceSaving().merge(object())

    def test_pickle_roundtrip_protocol5(self):
        sketch = feed(DistinctSpaceSaving(capacity=8),
                      [("k%d" % (i % 5), "v%d" % i) for i in range(100)])
        clone = pickle.loads(pickle.dumps(sketch, protocol=5))
        assert clone.top() == sketch.top()
        assert clone.evictions == sketch.evictions
        assert (clone.capacity, clone.precision, clone.seed) == \
            (sketch.capacity, sketch.precision, sketch.seed)
        # the clone keeps working
        clone.offer("k0", hash64("new-value"))

    def test_buffer_roundtrip_identical(self):
        sketch = feed(DistinctSpaceSaving(capacity=4),
                      [("k%d" % (i % 6), "v%d" % i) for i in range(200)])
        meta, buffers = sketch.to_buffers()
        clone = DistinctSpaceSaving.from_buffers(meta, buffers)
        assert clone.to_buffers() == (meta, buffers)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 400)),
                    max_size=300),
           st.integers(0, 2**32 - 1))
    def test_split_merge_matches_single_pass(self, pairs, salt):
        """Splitting a stream by hash and merging equals one pass --
        exactly, while capacity does not bind (no evictions)."""
        whole = DistinctSpaceSaving(capacity=64)
        parts = [DistinctSpaceSaving(capacity=64) for _ in range(2)]
        for key_id, value_id in pairs:
            key, value = "key%d" % key_id, "value%d" % value_id
            shard = hash64("%d|%s|%s" % (salt, key, value)) % 2
            whole.offer(key, hash64(value))
            parts[shard].offer(key, hash64(value))
        merged = parts[0].merge(parts[1])
        assert merged.top() == whole.top()
        # byte-identical serialized state, not just equal estimates
        assert merged.to_buffers() == whole.to_buffers()

    def test_merge_is_order_insensitive(self):
        streams = [[("k%d" % ((i * j) % 7), "v%d" % (i + 97 * j))
                    for i in range(120)] for j in range(3)]
        forward = DistinctSpaceSaving(capacity=32)
        backward = DistinctSpaceSaving(capacity=32)
        for stream in streams:
            forward.merge(feed(DistinctSpaceSaving(capacity=32), stream))
        for stream in reversed(streams):
            backward.merge(feed(DistinctSpaceSaving(capacity=32), stream))
        assert forward.to_buffers() == backward.to_buffers()

    def test_merge_truncates_to_capacity(self):
        left = feed(DistinctSpaceSaving(capacity=4),
                    [("l%d" % k, "v%d" % v)
                     for k in range(4) for v in range(k + 1)])
        right = feed(DistinctSpaceSaving(capacity=4),
                     [("r%d" % k, "v%d" % v)
                      for k in range(4) for v in range(k + 10)])
        left.merge(right)
        assert len(left.top()) == 4
        # the survivors are the four largest distinct counts (r-keys)
        assert [key for key, _ in left.top()] == \
            ["r3", "r2", "r1", "r0"]
        assert left.evictions == 4
