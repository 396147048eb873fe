"""Tests for Hilbert curve mapping and heatmap accumulator."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netsim.hilbert import HilbertHeatmap, d2xy, xy2d


class TestCurve:
    def test_order1_layout(self):
        # Order-1 Hilbert curve visits (0,0),(0,1),(1,1),(1,0).
        assert [d2xy(1, d) for d in range(4)] == [(0, 0), (0, 1), (1, 1), (1, 0)]

    def test_inverse(self):
        for order in (1, 2, 3, 6):
            n = (1 << order) ** 2
            for d in range(n):
                x, y = d2xy(order, d)
                assert xy2d(order, x, y) == d

    def test_adjacency(self):
        # Consecutive curve positions are grid neighbours (locality).
        order = 5
        prev = d2xy(order, 0)
        for d in range(1, (1 << order) ** 2):
            x, y = d2xy(order, d)
            assert abs(x - prev[0]) + abs(y - prev[1]) == 1
            prev = (x, y)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            d2xy(2, 16)
        with pytest.raises(ValueError):
            xy2d(2, 4, 0)

    @given(st.integers(0, (1 << 12) - 1), st.integers(0, (1 << 12) - 1))
    def test_inverse_property_order12(self, x, y):
        d = xy2d(12, x, y)
        assert d2xy(12, d) == (x, y)


class TestHeatmap:
    def test_counts_per_slash24(self):
        hm = HilbertHeatmap(order=4)
        hm.add("192.0.2.1")
        hm.add("192.0.2.200")  # same /24
        hm.add("192.0.3.1")    # different /24
        assert hm.populated_prefixes == 2
        assert hm.prefix_density_histogram() == {2: 1, 1: 1}

    def test_density_histogram_shape(self):
        # Mirror §3.7: mostly 1-address prefixes.
        hm = HilbertHeatmap(order=4)
        for i in range(48):
            hm.add("10.%d.0.1" % i)
        for i in range(24):
            hm.add("11.%d.0.1" % i)
            hm.add("11.%d.0.2" % i)
        hist = hm.prefix_density_histogram()
        assert hist[1] == 48
        assert hist[2] == 24

    def test_grid_total_preserved(self):
        hm = HilbertHeatmap(order=3)
        for i in range(10):
            hm.add("10.0.%d.1" % i)
        rows = hm.grid()
        assert sum(sum(row) for row in rows) == 10
        assert len(rows) == 8 and all(len(r) == 8 for r in rows)

    def test_ascii_rendering(self):
        hm = HilbertHeatmap(order=3)
        art = hm.to_ascii()
        assert len(art.splitlines()) == 8
        hm.add("10.0.0.1")
        art = hm.to_ascii()
        assert any(ch != " " for ch in art)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            HilbertHeatmap(order=0)
        with pytest.raises(ValueError):
            HilbertHeatmap(order=13)
