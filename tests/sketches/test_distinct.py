"""Tests for the distinct-counting Space-Saving sketch."""

import pickle
import random

import pytest

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
        sketch = DistinctSpaceSaving(16, 11)
        # "loud" repeats one subdomain 1000x; "wide" sees 50 distinct
        feed(sketch, [("loud", "only-one")] * 1000)
        feed(sketch, [("wide", "sub-%d" % i) for i in range(50)])
        top = sketch.top()[:2]
        assert top[0][0] == "wide"
        assert top[0][1] == pytest.approx(50, abs=3)
        assert top[1] == ("loud", 1)

    def test_exact_while_capacity_unbound(self):
        sketch = DistinctSpaceSaving(64, 11)
        for k in range(10):
            feed(sketch, [("key%d" % k, "v%d" % v) for v in range(k + 1)])
        assert sketch.evictions == 0
        for k in range(10):
            assert estimate(sketch, "key%d" % k) == k + 1

    def test_eviction_inherits_base(self):
        sketch = DistinctSpaceSaving(2, 11)
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
        sketch = DistinctSpaceSaving(8, 11)
        truth = {}
        for _ in range(2000):
            key = "k%d" % rng.randrange(24)
            value = "v%d" % rng.randrange(500)
            truth.setdefault(key, set()).add(value)
            sketch.offer(key, hash64(value))
        for key, estimate in sketch.top():
            # Space-Saving overestimates; HLL adds ~2% noise at p=11.
            assert estimate >= len(truth[key]) * 0.9

    def test_pickle_roundtrip_protocol5(self):
        sketch = feed(DistinctSpaceSaving(8, 11),
                      [("k%d" % (i % 5), "v%d" % i) for i in range(100)])
        clone = pickle.loads(pickle.dumps(sketch, protocol=5))
        assert clone.top() == sketch.top()
        assert clone.evictions == sketch.evictions
        assert (clone.capacity, clone.precision) == \
            (sketch.capacity, sketch.precision)
        # the clone keeps working
        clone.offer("k0", hash64("new-value"))

    def test_buffer_roundtrip_identical(self):
        sketch = feed(DistinctSpaceSaving(4, 11),
                      [("k%d" % (i % 6), "v%d" % i) for i in range(200)])
        clone = pickle.loads(pickle.dumps(sketch))
        assert clone.to_buffers() == sketch.to_buffers()
