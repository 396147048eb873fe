"""Tests for the Space-Saving top-k tracker (paper Section 2.2)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches.bloom import RotatingBloomFilter
from repro.sketches.spacesaving import SpaceSaving


def test_tracks_within_capacity():
    ss = SpaceSaving(capacity=4)
    for key in ["a", "b", "c"]:
        ss.offer(key, now=0.0)
    assert len(ss) == 3
    assert "a" in ss and "b" in ss and "c" in ss


def test_capacity_is_enforced():
    ss = SpaceSaving(capacity=3)
    for i in range(100):
        ss.offer("key-%d" % i, now=float(i))
    assert len(ss) == 3


def test_eviction_picks_least_frequent():
    ss = SpaceSaving(capacity=2)
    for _ in range(10):
        ss.offer("heavy", now=0.0)
    ss.offer("light", now=0.0)
    ss.offer("new", now=0.0)
    assert "heavy" in ss
    assert "light" not in ss
    assert "new" in ss


def test_new_entry_inherits_evicted_weight():
    ss = SpaceSaving(capacity=1)
    for _ in range(5):
        ss.offer("old", now=0.0)
    entry = ss.offer("new", now=0.0)
    # Classic Space-Saving: estimate = victim estimate + own observation.
    assert entry.error > 0
    assert entry.weight > entry.error


def test_state_resets_on_eviction():
    ss = SpaceSaving(capacity=1)
    entry = ss.offer("old", now=0.0)
    entry.state = {"stats": 123}
    new_entry = ss.offer("new", now=0.0)
    assert new_entry.state is None
    assert new_entry.hits == 1


def test_rates_decay_over_time():
    ss = SpaceSaving(capacity=4, tau=10.0)
    entry = ss.offer("a", now=0.0)
    early = ss.rate(entry, now=0.0)
    late = ss.rate(entry, now=100.0)
    assert late < early


def test_constant_rate_stream_estimate():
    # Offer one key at exactly 5 events/second for a long time; the
    # decayed estimate should settle near 5.
    ss = SpaceSaving(capacity=4, tau=20.0)
    t = 0.0
    for i in range(2000):
        t = i * 0.2
        ss.offer("steady", now=t)
    rate = ss.rate("steady", now=t)
    assert 4.0 < rate < 6.0


def test_top_orders_by_frequency():
    ss = SpaceSaving(capacity=8)
    freq = {"a": 50, "b": 30, "c": 10, "d": 1}
    seq = [k for k, n in freq.items() for _ in range(n)]
    random.Random(7).shuffle(seq)
    for i, key in enumerate(seq):
        ss.offer(key, now=i * 0.001)
    top = [e.key for e in ss.top(3)]
    assert top == ["a", "b", "c"]


def test_heavy_hitters_survive_heavy_tail():
    # Zipf-ish stream: heavy keys must stay in a small cache despite a
    # large churn of one-off keys (the Space-Saving guarantee).
    rng = random.Random(42)
    ss = SpaceSaving(capacity=50)
    heavy = ["hh-%d" % i for i in range(10)]
    t = 0.0
    for i in range(20000):
        t = i * 0.01
        if rng.random() < 0.6:
            ss.offer(rng.choice(heavy), now=t)
        else:
            ss.offer("tail-%d" % rng.randrange(100000), now=t)
    tracked = {e.key for e in ss.top(20)}
    assert set(heavy) <= tracked


def test_renormalization_preserves_order():
    # Run long enough in virtual time to force renormalization.
    ss = SpaceSaving(capacity=4, tau=1.0)
    ss.offer("a", now=0.0)
    ss.offer("a", now=0.0)
    ss.offer("b", now=0.0)
    # tau=1.0 and max_exponent=200 => renormalize after ~200 s.
    for i in range(10):
        ss.offer("b", now=500.0 + i)
        ss.offer("b", now=500.0 + i)
        ss.offer("a", now=500.0 + i)
    assert ss.top(1)[0].key == "b"
    assert ss.decay.landmark > 0.0


def test_bloom_gate_blocks_first_sighting():
    gate = RotatingBloomFilter(capacity=1000, rotate_interval=1e9)
    ss = SpaceSaving(capacity=2, gate=gate)
    ss.offer("a", now=0.0)
    ss.offer("b", now=0.0)
    # Cache is full now; first sighting of "c" must be gated out...
    assert ss.offer("c", now=0.0) is None
    assert ss.gated == 1
    assert "c" not in ss
    # ...but the second sighting passes the gate and evicts.
    assert ss.offer("c", now=0.0) is not None
    assert "c" in ss


def test_gate_not_consulted_below_capacity():
    gate = RotatingBloomFilter(capacity=1000)
    ss = SpaceSaving(capacity=8, gate=gate)
    entry = ss.offer("first", now=0.0)
    assert entry is not None
    assert ss.gated == 0


def test_capture_ratio_accounting():
    ss = SpaceSaving(capacity=2)
    for _ in range(8):
        ss.offer("a", now=0.0)
    for i in range(4):
        ss.offer("one-off-%d" % i, now=0.0)
    assert ss.offered == 12
    # 7 repeat hits on "a" out of 12 offers.
    assert ss.tracked_hits == 7
    assert ss.capture_ratio() == pytest.approx(7 / 12)


def test_hits_are_exact_since_insertion():
    ss = SpaceSaving(capacity=4)
    for _ in range(9):
        ss.offer("a", now=0.0)
    assert ss.get("a").hits == 9


def test_rate_of_unknown_key_is_zero():
    ss = SpaceSaving(capacity=4)
    assert ss.rate("missing", now=0.0) == 0.0


def test_rejects_bad_capacity():
    with pytest.raises(ValueError):
        SpaceSaving(capacity=0)


def test_iteration_yields_live_entries():
    ss = SpaceSaving(capacity=4)
    for key in "abc":
        ss.offer(key, now=0.0)
    assert {e.key for e in ss} == {"a", "b", "c"}


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=400))
def test_space_saving_error_bound(stream):
    """Property: with capacity k, any key with true count > N/k is tracked,
    and estimates never underestimate the true count (undecayed case)."""
    k = 8
    ss = SpaceSaving(capacity=k, tau=1e12)  # effectively no decay
    true = {}
    for i, x in enumerate(stream):
        key = "k%d" % x
        true[key] = true.get(key, 0) + 1
        ss.offer(key, now=0.0)
    n = len(stream)
    for key, count in true.items():
        entry = ss.get(key)
        if count > n / k:
            assert entry is not None, "frequent key evicted"
        if entry is not None:
            # weight at fixed now=0 equals estimated count (g(0)=1).
            assert entry.weight >= count - 1e-6
            assert entry.weight - entry.error <= count + 1e-6


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 20), st.floats(0, 1000, allow_nan=False)),
        min_size=1,
        max_size=200,
    )
)
def test_space_saving_never_crashes_with_time(stream):
    """Robustness: arbitrary key/time interleavings keep invariants."""
    ss = SpaceSaving(capacity=4, tau=5.0)
    stream = sorted(stream, key=lambda kv: kv[1])
    for x, t in stream:
        ss.offer("k%d" % x, now=t)
        assert len(ss) <= 4
    for entry in ss:
        assert entry.weight >= 0.0
        assert entry.error >= 0.0
