"""Mergeability tests for the sketch layer.

The sharded ingest engine (:mod:`repro.observatory.sharded`) splits
one stream across workers and recombines their summaries, so every
sketch a ``FeatureSet`` is made of must satisfy the
mergeable-summaries contract (Agarwal et al., PODS 2012): ``merge(A,
B)`` over a split stream agrees with a single-pass sketch over the
concatenated stream -- exactly for the counter-style sketches, within
documented error bounds for the approximate ones.  Space-Saving state
merges in ``TrackerChannel`` only; its property is
``test_split_streams_merge_like_one_observatory``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches.ewma import ForwardDecay
from repro.sketches.histogram import LogHistogram, RunningMean
from repro.sketches.hyperloglog import HyperLogLog
from repro.sketches.topvalues import TopValues

# A stream of (value, side) pairs: *side* says which of the two
# sketches the value is fed to before merging.
split_streams = st.lists(
    st.tuples(st.integers(0, 25), st.booleans()),
    min_size=1, max_size=300,
)


def _split(stream):
    left = [v for v, side in stream if side]
    right = [v for v, side in stream if not side]
    return left, right


# -- ForwardDecay -------------------------------------------------------

def test_rebase_preserves_rates():
    decay = ForwardDecay(tau=30.0)
    weight = decay.weight(100.0) + decay.weight(130.0)
    before = decay.rate(weight, 200.0)
    factor = decay.rebase(150.0)
    assert decay.landmark == 150.0
    after = decay.rate(weight * factor, 200.0)
    assert after == pytest.approx(before, rel=1e-12)


def test_rebase_makes_landmarks_comparable():
    a = ForwardDecay(tau=10.0)
    b = ForwardDecay(tau=10.0)
    b.rebase(50.0)  # b accumulates under a later landmark
    wa = a.weight(60.0)
    wb = b.weight(60.0)
    # Same observation time must yield the same rate from either side.
    assert a.rate(wa, 60.0) == pytest.approx(b.rate(wb, 60.0), rel=1e-12)


# -- LogHistogram / RunningMean (exact merges) --------------------------

@settings(max_examples=50, deadline=None)
@given(split_streams)
def test_histogram_merge_matches_single_pass(stream):
    left, right = _split(stream)
    a, b, whole = LogHistogram(), LogHistogram(), LogHistogram()
    for v in left:
        a.add(v)
    for v in right:
        b.add(v)
    for v, _ in stream:
        whole.add(v)
    a.merge(b)
    assert a._buckets == whole._buckets
    assert a.count == whole.count
    for q in (0.25, 0.5, 0.75):
        assert a.quantile(q) == whole.quantile(q)


@settings(max_examples=50, deadline=None)
@given(split_streams)
def test_running_mean_merge_matches_single_pass(stream):
    left, right = _split(stream)
    a, b, whole = RunningMean(), RunningMean(), RunningMean()
    for v in left:
        a.add(v)
    for v in right:
        b.add(v)
    for v, _ in stream:
        whole.add(v)
    a.merge(b)
    assert a.count == whole.count
    assert a.mean == pytest.approx(whole.mean, rel=1e-9, abs=1e-12)


# -- TopValues ----------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(split_streams)
def test_topvalues_merge_exact_below_capacity(stream):
    """With capacity above the distinct-value count, counters never
    recycle and the merge is exactly the concatenated distribution."""
    left, right = _split(stream)
    a, b, whole = TopValues(64), TopValues(64), TopValues(64)
    for v in left:
        a.add(v)
    for v in right:
        b.add(v)
    for v, _ in stream:
        whole.add(v)
    a.merge(b)
    assert a.total == whole.total
    assert dict(a.distribution()) == dict(whole.distribution())


def test_topvalues_merge_preserves_total_mass_when_full():
    a, b = TopValues(4), TopValues(4)
    for v in range(10):
        a.add(v, count=v + 1)
        b.add(v + 5, count=v + 1)
    total = a.total + b.total
    a.merge(b)
    assert a.total == total
    assert len(a.distribution()) <= a.max_values


# -- HyperLogLog --------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(split_streams)
def test_hll_merge_registers_match_single_pass(stream):
    """Register-max merge is byte-identical to a single-pass sketch,
    so merged cardinalities carry no extra error at all."""
    left, right = _split(stream)
    a, b, whole = (HyperLogLog(precision=8) for _ in range(3))
    for v in left:
        a.add("key-%d" % v)
    for v in right:
        b.add("key-%d" % v)
    for v, _ in stream:
        whole.add("key-%d" % v)
    a.merge(b)
    assert a._registers == whole._registers
    assert a.cardinality() == whole.cardinality()


def test_hll_merge_rejects_mismatched_precision():
    with pytest.raises(ValueError):
        HyperLogLog(precision=8).merge(HyperLogLog(precision=10))
