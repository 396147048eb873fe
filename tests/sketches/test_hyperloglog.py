"""Tests for the HyperLogLog cardinality estimator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches.hyperloglog import HyperLogLog


def test_empty_cardinality_zero():
    hll = HyperLogLog(precision=10)
    assert hll.cardinality() == 0.0
    assert round(hll.cardinality()) == 0


def test_small_cardinalities_near_exact():
    # Linear counting should make small counts almost exact.
    hll = HyperLogLog(precision=12)
    for i in range(100):
        hll.add("item-%d" % i)
    assert abs(round(hll.cardinality()) - 100) <= 3


def test_duplicates_do_not_inflate():
    hll = HyperLogLog(precision=12)
    for _ in range(50):
        for i in range(20):
            hll.add("dup-%d" % i)
    assert abs(round(hll.cardinality()) - 20) <= 2


@pytest.mark.parametrize("true_n", [1000, 10000, 100000])
def test_error_within_envelope(true_n):
    hll = HyperLogLog(precision=12, seed=5)
    for i in range(true_n):
        hll.add("card-%d" % i)
    err = abs(hll.cardinality() - true_n) / true_n
    # 1.04/sqrt(4096) ~ 1.6%; allow 4 sigma.
    assert err < 4 * 1.04 / hll.num_registers ** 0.5


def test_merge_equals_union():
    a = HyperLogLog(precision=12)
    b = HyperLogLog(precision=12)
    for i in range(1000):
        a.add("a-%d" % i)
        b.add("b-%d" % i)
    union = a.copy().merge(b)
    est = union.cardinality()
    assert abs(est - 2000) / 2000 < 0.1


def test_merge_is_idempotent_for_same_data():
    a = HyperLogLog(precision=10)
    for i in range(500):
        a.add("x-%d" % i)
    before = a.cardinality()
    a.merge(a.copy())
    assert a.cardinality() == before


def test_merge_rejects_mismatched_parameters():
    a = HyperLogLog(precision=10)
    b = HyperLogLog(precision=12)
    with pytest.raises(ValueError):
        a.merge(b)
    with pytest.raises(TypeError):
        a.merge(object())


def test_copy_is_independent():
    a = HyperLogLog(precision=10)
    a.add("x")
    c = a.copy()
    c.add("y")
    assert round(a.cardinality()) == 1
    assert round(c.cardinality()) == 2


def test_rejects_bad_precision():
    with pytest.raises(ValueError):
        HyperLogLog(precision=2)
    with pytest.raises(ValueError):
        HyperLogLog(precision=25)


@settings(max_examples=30, deadline=None)
@given(st.sets(st.text(min_size=1), max_size=200))
def test_estimate_close_for_arbitrary_keys(keys):
    hll = HyperLogLog(precision=12)
    for key in keys:
        hll.add(key)
    n = len(keys)
    assert abs(round(hll.cardinality()) - n) <= max(3, 0.1 * n)


@settings(max_examples=20, deadline=None)
@given(
    st.sets(st.integers(), max_size=100),
    st.sets(st.integers(), max_size=100),
)
def test_merge_commutative(xs, ys):
    a1, b1 = HyperLogLog(precision=10), HyperLogLog(precision=10)
    for x in xs:
        a1.add(str(x))
    for y in ys:
        b1.add(str(y))
    ab = a1.copy().merge(b1)
    ba = b1.copy().merge(a1)
    assert ab._registers == ba._registers
