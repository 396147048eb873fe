"""Tests for the path delay model."""

import random
import statistics

import pytest

from repro.netsim.latency import DelayModel, PathProfile
from tests.util import tuned


class TestPathProfile:
    def test_basic_construction(self):
        p = tuned(PathProfile(hops=7, base_delay_ms=20.0),
                  server_delay_ms=2.0)
        assert p.hops == 7
        assert p.initial_ttl == 64

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            PathProfile(hops=0, base_delay_ms=1.0)
        with pytest.raises(ValueError):
            PathProfile(hops=1, base_delay_ms=-1.0)

    def test_distance_classes_ordered(self):
        rng = random.Random(1)
        classes = ["colocated", "regional", "distant", "impaired"]
        means = []
        for cls_name in classes:
            samples = [
                PathProfile.from_distance_class(cls_name, rng).base_delay_ms
                for _ in range(200)
            ]
            means.append(statistics.mean(samples))
        assert means == sorted(means)

    def test_distance_class_delay_ranges(self):
        rng = random.Random(2)
        for _ in range(100):
            assert PathProfile.from_distance_class("colocated", rng).base_delay_ms < 5
            p = PathProfile.from_distance_class("regional", rng)
            assert 5 <= p.base_delay_ms <= 35
            p = PathProfile.from_distance_class("impaired", rng)
            assert p.base_delay_ms >= 350

    def test_rejects_unknown_class(self):
        with pytest.raises(ValueError):
            PathProfile.from_distance_class("martian", random.Random(0))

    def test_colocated_paths_have_fewer_hops(self):
        rng = random.Random(3)
        near = [PathProfile.from_distance_class("colocated", rng).hops
                for _ in range(100)]
        far = [PathProfile.from_distance_class("distant", rng).hops
               for _ in range(100)]
        assert statistics.mean(near) < statistics.mean(far)


class TestDelayModel:
    def test_sample_positive_and_near_expected(self):
        model = DelayModel()
        profile = tuned(PathProfile(hops=10, base_delay_ms=50.0),
                        server_delay_ms=2.0)
        rng = random.Random(4)
        samples = [model.sample_ms(profile, rng) for _ in range(2000)]
        assert all(s > 0 for s in samples)
        assert abs(statistics.mean(samples) - model.expected_ms(profile)) < 5.0

    def test_min_delay_enforced(self):
        model = tuned(DelayModel(), min_delay_ms=1.0)
        profile = tuned(PathProfile(hops=1, base_delay_ms=0.0),
                        server_delay_ms=0.0)
        assert model.sample_ms(profile, random.Random(0)) == 1.0

    def test_deterministic_given_rng(self):
        model = DelayModel()
        profile = PathProfile(hops=5, base_delay_ms=10.0)
        a = [model.sample_ms(profile, random.Random(9)) for _ in range(5)]
        b = [model.sample_ms(profile, random.Random(9)) for _ in range(5)]
        assert a == b
