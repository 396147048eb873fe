"""Tests for the streaming log-bucketed histogram."""

import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches.histogram import LogHistogram, RunningMean


class TestLogHistogram:
    def test_empty_histogram(self):
        h = LogHistogram()
        assert h.count == 0
        assert h.mean == 0.0
        assert h.quantile(0.5) == 0.0
        assert h.quartiles() == (0.0, 0.0, 0.0)

    def test_single_value(self):
        h = LogHistogram()
        h.add(42.0)
        assert h._min == 42.0
        assert h.max == 42.0
        assert h.mean == 42.0
        assert h.quantile(0.5) == pytest.approx(42.0, rel=0.1)

    def test_mean_is_exact(self):
        h = LogHistogram()
        values = [1.0, 10.0, 100.0, 55.5]
        for v in values:
            h.add(v)
        assert h.mean == pytest.approx(sum(values) / len(values))

    def test_median_relative_error(self):
        rng = random.Random(11)
        h = LogHistogram(relative_error=0.05)
        values = [rng.uniform(1, 1000) for _ in range(5000)]
        for v in values:
            h.add(v)
        true_median = statistics.median(values)
        est = h.quantile(0.5)
        assert abs(est - true_median) / true_median < 0.12

    def test_quartiles_ordering(self):
        rng = random.Random(3)
        h = LogHistogram()
        for _ in range(1000):
            h.add(rng.expovariate(0.05))
        q25, q50, q75 = h.quartiles()
        assert q25 <= q50 <= q75

    def test_count_multiplicity(self):
        h = LogHistogram()
        for _ in range(10):
            h.add(5.0)
        assert h.count == 10
        assert h.mean == pytest.approx(5.0)

    def test_merge(self):
        a, b = LogHistogram(), LogHistogram()
        for v in [1, 2, 3]:
            a.add(v)
        for v in [100, 200, 300]:
            b.add(v)
        a.merge(b)
        assert a.count == 6
        assert a._min == 1
        assert a.max == 300
        assert a.mean == pytest.approx((1 + 2 + 3 + 100 + 200 + 300) / 6)

    def test_merge_rejects_mismatch(self):
        a = LogHistogram(relative_error=0.05)
        b = LogHistogram(relative_error=0.10)
        with pytest.raises(ValueError):
            a.merge(b)
        with pytest.raises(TypeError):
            a.merge([1, 2, 3])

    def test_clear(self):
        h = LogHistogram()
        h.add(7.0)
        h.clear()
        assert h.count == 0
        assert h.mean == 0.0

    def test_underflow_bucket(self):
        h = LogHistogram(min_value=0.001)
        h.add(0.0)
        h.add(0.0001)
        assert h.count == 2
        assert h.quantile(0.5) <= 0.001

    def test_rejects_negative_values(self):
        h = LogHistogram()
        with pytest.raises(ValueError):
            h.add(-1.0)

    def test_rejects_bad_quantile(self):
        h = LogHistogram()
        h.add(1.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_rejects_bad_relative_error(self):
        with pytest.raises(ValueError):
            LogHistogram(relative_error=0.0)

    def test_quantile_extremes_hit_min_max(self):
        h = LogHistogram()
        for v in [1.0, 5.0, 9.0, 120.0]:
            h.add(v)
        assert h.quantile(0.0) >= h._min
        assert h.quantile(1.0) <= h.max

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=300,
        )
    )
    def test_quantile_bounded_by_min_max(self, values):
        h = LogHistogram()
        for v in values:
            h.add(v)
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            est = h.quantile(q)
            assert h._min <= est <= h.max

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=1.0, max_value=1e4, allow_nan=False),
            min_size=20,
            max_size=200,
        )
    )
    def test_median_property(self, values):
        h = LogHistogram(relative_error=0.05)
        for v in values:
            h.add(v)
        true_median = statistics.median(values)
        est = h.quantile(0.5)
        # Bucketed median may land one rank off; accept the bucket's
        # relative error plus a rank-neighbourhood tolerance.
        lo = min(v for v in values)
        hi = max(v for v in values)
        assert lo <= est <= hi
        if len(values) >= 50:
            assert est <= true_median * 2.0
            assert est >= true_median * 0.5


class TestRunningMean:
    def test_basic(self):
        m = RunningMean()
        m.add(2.0)
        m.add(4.0)
        assert m.mean == 3.0
        assert m.count == 2

    def test_empty_mean(self):
        assert RunningMean().mean == 0.0

    def test_weighted(self):
        m = RunningMean()
        for _ in range(3):
            m.add(10.0)
        m.add(0.0)
        assert m.mean == pytest.approx(7.5)

    def test_merge(self):
        a, b = RunningMean(), RunningMean()
        a.add(1.0)
        b.add(3.0)
        a.merge(b)
        assert a.mean == 2.0
        assert a.count == 2
