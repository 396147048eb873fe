"""Tests for the Count-Min Sketch and CMS-based top-k."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches.countmin import CmsTopK, CountMinSketch


def error_bound(cms):
    """The classic eps*N overestimate bound: e/width * total."""
    return 2.718281828 / cms.width * cms.total


class TestCountMinSketch:
    def test_never_underestimates(self):
        cms = CountMinSketch(width=256, depth=4)
        true = {}
        rng = random.Random(1)
        for _ in range(2000):
            key = "k%d" % rng.randrange(100)
            cms.add(key)
            true[key] = true.get(key, 0) + 1
        for key, count in true.items():
            assert cms.estimate(key) >= count

    def test_overestimate_within_bound(self):
        cms = CountMinSketch(width=1024, depth=5)
        rng = random.Random(2)
        true = {}
        for _ in range(5000):
            key = "k%d" % rng.randrange(500)
            cms.add(key)
            true[key] = true.get(key, 0) + 1
        violations = sum(
            1 for key, count in true.items()
            if cms.estimate(key) - count > error_bound(cms))
        # The bound holds with probability 1 - (1/e)^depth per query.
        assert violations < 0.05 * len(true)

    def test_unseen_key_estimate_small(self):
        cms = CountMinSketch(width=2048, depth=4)
        for i in range(100):
            cms.add("seen-%d" % i)
        assert cms.estimate("never-seen") <= error_bound(cms) + 1

    def test_add_with_count(self):
        cms = CountMinSketch(2048, 4)
        for _ in range(10):
            cms.add("x")
        assert cms.estimate("x") >= 10
        assert cms.total == 10

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            CountMinSketch(width=0, depth=4)
        with pytest.raises(ValueError):
            CountMinSketch(width=2048, depth=0)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 20), min_size=1, max_size=200))
    def test_monotone_property(self, stream):
        """Estimates only grow, and always dominate the true count."""
        cms = CountMinSketch(width=128, depth=3)
        true = {}
        for x in stream:
            key = "k%d" % x
            true[key] = true.get(key, 0) + 1
            cms.add(key)
            assert cms.estimate(key) >= true[key]


class TestCmsTopK:
    def test_tracks_heavy_hitters(self):
        topk = CmsTopK(capacity=10, width=4096, depth=4)
        rng = random.Random(7)
        for _ in range(5000):
            if rng.random() < 0.6:
                topk.offer("heavy-%d" % rng.randrange(5))
            else:
                topk.offer("tail-%d" % rng.randrange(5000))
        top_keys = {k for k, _ in topk.top(5)}
        assert {"heavy-%d" % i for i in range(5)} <= top_keys

    def test_capacity_respected(self):
        topk = CmsTopK(capacity=3, width=2048, depth=4)
        for i in range(100):
            topk.offer("k%d" % i)
        assert len(topk.top()) <= 3

    def test_top_ordering(self):
        topk = CmsTopK(capacity=8, width=4096, depth=4)
        for count, key in ((30, "a"), (20, "b"), (10, "c")):
            for _ in range(count):
                topk.offer(key)
        ranked = [k for k, _ in topk.top(3)]
        assert ranked == ["a", "b", "c"]

    def test_membership(self):
        topk = CmsTopK(capacity=4, width=2048, depth=4)
        topk.offer("x")
        assert "x" in dict(topk.top())

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            CmsTopK(capacity=0, width=2048, depth=4)
