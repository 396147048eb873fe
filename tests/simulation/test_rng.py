"""Tests for deterministic RNG plumbing."""

import pytest

from repro.simulation.rng import RngHub, ZipfSampler


class TestRngHub:
    def test_streams_are_deterministic(self):
        a = RngHub(seed=7).stream("x").random()
        b = RngHub(seed=7).stream("x").random()
        assert a == b

    def test_streams_are_independent(self):
        hub = RngHub(seed=7)
        assert hub.stream("x").random() != hub.stream("y").random()

    def test_stream_is_cached(self):
        hub = RngHub(seed=1)
        assert hub.stream("x") is hub.stream("x")

    def test_fork_is_fresh(self):
        hub = RngHub(seed=1)
        assert hub.fork("x") is not hub.fork("x")
        assert hub.fork("x").random() == hub.fork("x").random()

    def test_seed_changes_everything(self):
        assert RngHub(1).stream("x").random() != RngHub(2).stream("x").random()

    def test_uniform_hash_range_and_determinism(self):
        hub = RngHub(3)
        v = hub.uniform_hash("resolver:10.0.0.1")
        assert 0.0 <= v < 1.0
        assert v == RngHub(3).uniform_hash("resolver:10.0.0.1")


class TestZipfSampler:
    def test_rank_zero_most_likely(self):
        z = ZipfSampler(100, s=1.0)
        counts = [0] * 100
        for _ in range(5000):
            counts[z.sample()] += 1
        assert counts[0] == max(counts)
        assert counts[0] > 5 * max(counts[50:] or [1])

    def test_s_zero_is_uniform(self):
        z = ZipfSampler(10, s=0.0)
        assert [c / z._total for c in z._cdf] == \
            pytest.approx([(r + 1) / 10 for r in range(10)])

    def test_samples_in_range(self):
        z = ZipfSampler(5, s=2.0)
        assert all(0 <= z.sample() < 5 for _ in range(200))

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)
        with pytest.raises(ValueError):
            ZipfSampler(5, s=-1)
