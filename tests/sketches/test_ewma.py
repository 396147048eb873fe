"""Tests for forward decay."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches.ewma import ForwardDecay


class TestForwardDecay:
    def test_weight_at_landmark_is_one(self):
        fd = ForwardDecay(tau=10.0)
        assert fd.weight(0.0) == pytest.approx(1.0)

    def test_weight_grows_with_time(self):
        fd = ForwardDecay(tau=10.0)
        assert fd.weight(10.0) > fd.weight(5.0) > fd.weight(0.0)

    def test_rate_of_single_event(self):
        fd = ForwardDecay(tau=10.0)
        w = fd.weight(100.0)
        # Rate right at the observation time: 1/tau.
        assert fd.rate(w, 100.0) == pytest.approx(1.0 / 10.0)
        # Rate one tau later decays by 1/e.
        assert fd.rate(w, 110.0) == pytest.approx(1.0 / 10.0 / math.e)

    def test_renormalize_preserves_rates(self):
        fd = ForwardDecay(tau=5.0)
        w = fd.weight(50.0)
        rate_before = fd.rate(w, 60.0)
        factor = fd.renormalize(60.0)
        w *= factor
        assert fd.rate(w, 60.0) == pytest.approx(rate_before)

    def test_needs_renormalize_threshold(self):
        fd = ForwardDecay(tau=1.0)
        fd.max_exponent = 10.0
        assert not fd.needs_renormalize(9.0)
        assert fd.needs_renormalize(11.0)

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            ForwardDecay(tau=0.0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_ordering_invariant(self, t1, t2):
        """Later observations always weigh at least as much."""
        fd = ForwardDecay(tau=7.0)
        if t1 <= t2:
            assert fd.weight(t1) <= fd.weight(t2)
        else:
            assert fd.weight(t1) >= fd.weight(t2)
