"""Tests for the bounded top-values tracker (top-3 TTL feature)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches.topvalues import TopValues


def test_exact_when_under_capacity():
    tv = TopValues(max_values=8)
    for ttl in [300, 300, 300, 60, 60, 86400]:
        tv.add(ttl)
    assert tv.top(3) == [(300, 3), (60, 2), (86400, 1)]


def test_empty_tracker():
    tv = TopValues()
    assert tv.top() == []
    assert tv.distribution() == {}
    assert tv.replaced == 0


def test_capacity_bound():
    tv = TopValues(max_values=4)
    for i in range(100):
        tv.add(i)
    assert len(tv.distribution()) == 4
    assert tv.total == 100


def test_heavy_value_survives_churn():
    rng = random.Random(5)
    tv = TopValues(max_values=8)
    for i in range(5000):
        if rng.random() < 0.5:
            tv.add(3600)
        else:
            tv.add(rng.randrange(1_000_000))
    assert tv.top(1)[0][0] == 3600


def test_distinct_pressure_detects_dynamic_ttls():
    # Well-behaved object: few distinct TTLs, no recycling.
    good = TopValues(max_values=8)
    for _ in range(1000):
        good.add(300)
    assert good.replaced == 0
    # Non-conforming object (Table 4): fresh TTL per response.
    bad = TopValues(max_values=8)
    for i in range(1000):
        bad.add(i)
    assert bad.replaced / bad.total > 0.9


def test_distribution_sums_to_at_most_one():
    tv = TopValues(max_values=4)
    for i in range(50):
        tv.add(i % 10)
    dist = tv.distribution()
    assert 0.0 < sum(dist.values()) <= 1.0 + 1e-9


def test_count_multiplicity():
    tv = TopValues()
    tv.add(60, count=7)
    assert tv.top(1) == [(60, 7)]
    assert tv.total == 7


def test_merge_preserves_totals():
    a, b = TopValues(max_values=8), TopValues(max_values=8)
    for _ in range(10):
        a.add(300)
    for _ in range(5):
        b.add(60)
    a.merge(b)
    assert a.total == 15
    assert a.top(2) == [(300, 10), (60, 5)]


def test_merge_rejects_wrong_type():
    with pytest.raises(TypeError):
        TopValues().merge({})


def test_rejects_bad_capacity():
    with pytest.raises(ValueError):
        TopValues(max_values=0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=300))
def test_exact_counts_with_small_universe(stream):
    """With universe <= capacity, the tracker is an exact counter."""
    tv = TopValues(max_values=6)
    true = {}
    for v in stream:
        tv.add(v)
        true[v] = true.get(v, 0) + 1
    assert tv.total == len(stream)
    assert dict(tv.top(6)) == true


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 1000), min_size=1, max_size=300))
def test_estimates_never_underestimate(stream):
    """Space-Saving property: tracked estimate >= true count."""
    tv = TopValues(max_values=4)
    true = {}
    for v in stream:
        tv.add(v)
        true[v] = true.get(v, 0) + 1
    for value, est in tv.top(4):
        assert est >= true[value]
