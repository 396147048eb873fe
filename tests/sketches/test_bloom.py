"""Tests for the Bloom filter eviction gate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches.bloom import BloomFilter, RotatingBloomFilter


class TestBloomFilter:
    def test_no_false_negatives(self):
        bf = BloomFilter(capacity=1000)
        keys = ["key-%d" % i for i in range(500)]
        for key in keys:
            bf.add(key)
        for key in keys:
            assert key in bf

    def test_add_reports_prior_presence(self):
        bf = BloomFilter(capacity=100)
        assert bf.add("x") is False
        assert bf.add("x") is True

    def test_false_positive_rate_near_target(self):
        bf = BloomFilter(capacity=2000, seed=3)
        for i in range(2000):
            bf.add("member-%d" % i)
        fp = sum(1 for i in range(10000) if ("other-%d" % i) in bf)
        # Allow generous slack over the 1% design point.
        assert fp / 10000 < 0.05

    def test_clear(self):
        bf = BloomFilter(capacity=100)
        bf.add("x")
        bf.clear()
        assert "x" not in bf
        assert len(bf) == 0

    def test_fill_ratio_monotone(self):
        bf = BloomFilter(capacity=100)
        assert bf.fill_ratio() == 0.0
        bf.add("a")
        r1 = bf.fill_ratio()
        bf.add("b")
        assert bf.fill_ratio() >= r1

    def test_approximate_fpr_increases_with_load(self):
        bf = BloomFilter(capacity=50, seed=1)
        empty_fpr = bf.approximate_fpr()
        for i in range(50):
            bf.add("k%d" % i)
        assert bf.approximate_fpr() > empty_fpr

    def test_seeds_give_independent_filters(self):
        a = BloomFilter(capacity=100, seed=0)
        b = BloomFilter(capacity=100, seed=9)
        a.add("hello")
        # The exact positions must differ for at least some keys.
        assert a._positions("hello") != b._positions("hello")

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BloomFilter(capacity=0)
        with pytest.raises(ValueError):
            BloomFilter(capacity=-10)

    @settings(max_examples=30, deadline=None)
    @given(st.sets(st.text(min_size=1), min_size=1, max_size=50))
    def test_membership_property(self, keys):
        bf = BloomFilter(capacity=500)
        for key in keys:
            bf.add(key)
        assert all(key in bf for key in keys)


class TestRotatingBloomFilter:
    def test_remembers_across_one_rotation(self):
        rb = RotatingBloomFilter(capacity=100, rotate_interval=60.0)
        rb.add("x", now=0.0)
        rb.maybe_rotate(now=100.0)
        assert "x" in rb

    def test_forgets_after_two_rotations(self):
        rb = RotatingBloomFilter(capacity=100, rotate_interval=60.0)
        rb.add("x", now=0.0)
        rb.maybe_rotate(now=100.0)
        rb.maybe_rotate(now=200.0)
        assert "x" not in rb
        assert rb.rotations == 2

    def test_no_rotation_before_interval(self):
        rb = RotatingBloomFilter(capacity=100, rotate_interval=60.0)
        rb.add("x", now=0.0)
        assert rb.maybe_rotate(now=30.0) is False
        assert rb.rotations == 0

    def test_add_returns_seen_status(self):
        rb = RotatingBloomFilter(capacity=100, rotate_interval=1e9)
        assert rb.add("y", now=0.0) is False
        assert rb.add("y", now=1.0) is True

    def test_add_survives_rotation_window(self):
        rb = RotatingBloomFilter(capacity=100, rotate_interval=10.0)
        rb.add("z", now=0.0)
        # One rotation later the key is in the "previous" filter and
        # still counts as seen.
        assert rb.add("z", now=15.0) is True


class TestOverflowRotation:
    """Regression: a key surge (PRSD attack, botnet ramp-up) within one
    rotate_interval used to saturate both filters -- once the fill
    ratio neared 1.0 every unknown key read as "seen before" and the
    eviction gate silently stopped gating."""

    def test_surge_triggers_overflow_rotation(self):
        rb = RotatingBloomFilter(capacity=200, rotate_interval=1e9)
        for i in range(1000):
            rb.add("surge-%d" % i, now=0.0)
        assert rb.overflow_rotations >= 4
        assert rb.rotations == rb.overflow_rotations  # none time-based
        # The active filter never accumulates more than capacity inserts.
        assert len(rb._active) < rb.capacity

    def test_gate_keeps_gating_under_surge(self):
        rb = RotatingBloomFilter(capacity=500, rotate_interval=1e9)
        for i in range(20_000):
            rb.add("surge-%d" % i, now=float(i))
        # Bounded memory: the estimated FPR stays far from saturation.
        assert rb.approximate_fpr() < 0.5
        seen = sum(1 for i in range(1000)
                   if rb.add("fresh-%d" % i, now=1e6))
        assert seen / 1000 < 0.5

    def test_saturation_signals_exposed(self):
        rb = RotatingBloomFilter(capacity=100, rotate_interval=60.0)
        assert rb.fill_ratio() == 0.0
        assert rb.approximate_fpr() == 0.0
        for i in range(50):
            rb.add("k%d" % i, now=0.0)
        assert 0.0 < rb.fill_ratio() < 1.0
        assert 0.0 < rb.approximate_fpr() < 1.0
