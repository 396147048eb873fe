"""Tests for the Space-Saving top-k tracker (paper Section 2.2)."""

import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches import spacesaving
from repro.sketches.bloom import RotatingBloomFilter
from repro.sketches.ewma import ForwardDecay
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


# -- the insert-only heap against the push-on-every-hit heap ------------

class _ReferenceEntry:
    __slots__ = ("key", "weight", "error", "version")

    def __init__(self, key, weight, error):
        self.key, self.weight, self.error = key, weight, error
        self.version = 0


class _ReferenceSpaceSaving:
    """The heap that pushed a ``(weight, id, version, entry)`` tuple on
    every hit and skipped stale tuples on pop, as the sketch kept it
    before hits stopped pushing.  *ident* stands in for ``id``; a
    sequence number keeps a dead entry's stale tuple from ever being
    compared to a live one's."""

    def __init__(self, capacity, tau, gate, ident):
        self.capacity, self.gate, self.ident = capacity, gate, ident
        self.decay = ForwardDecay(tau=tau)
        self.entries = {}
        self.heap = []
        self.pushes = 0

    def _push(self, entry):
        entry.version += 1
        self.pushes += 1
        heapq.heappush(self.heap, (entry.weight, self.ident(entry),
                                   entry.version, self.pushes, entry))
        if len(self.heap) > 8 * self.capacity + 64:
            self._rebuild()

    def _rebuild(self):
        self.heap = []
        for entry in self.entries.values():
            self.pushes += 1
            self.heap.append((entry.weight, self.ident(entry),
                              entry.version, self.pushes, entry))
        heapq.heapify(self.heap)

    def offer(self, key, now):
        """Returns ``(entry or None, victim key or None)``."""
        if self.decay.needs_renormalize(now):
            factor = self.decay.renormalize(now)
            for entry in self.entries.values():
                entry.weight *= factor
                entry.error *= factor
            self._rebuild()
        add_weight = self.decay.weight(now)
        entry = self.entries.get(key)
        if entry is not None:
            entry.weight += add_weight
            self._push(entry)
            return entry, None
        victim_key = None
        inherited = 0.0
        if len(self.entries) >= self.capacity:
            if self.gate is not None and not self.gate.add(key, now):
                return None, None
            while True:
                _, _, version, _, victim = heapq.heappop(self.heap)
                if victim.version == version \
                        and self.entries.get(victim.key) is victim:
                    break
            inherited = victim.weight
            victim_key = victim.key
            del self.entries[victim_key]
        entry = _ReferenceEntry(key, inherited + add_weight, inherited)
        self.entries[key] = entry
        self._push(entry)
        return entry, victim_key


@st.composite
def zipf_streams(draw):
    """Zipf-ranked keys at few distinct timestamps -- equal weights are
    common, so the (weight, id) tie-break decides victims -- with a
    jump past the decay's renormalization threshold halfway."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    keys = draw(st.integers(3, 60))
    exponent = draw(st.sampled_from([0.8, 1.1, 1.5]))
    weights = [1.0 / (rank + 1) ** exponent for rank in range(keys)]
    length = draw(st.integers(1, 600))
    picks = rng.choices(range(keys), weights=weights, k=length)
    ticks = sorted(rng.choice((0, 0, 1, 2)) for _ in range(length))
    jump = draw(st.integers(0, length))
    return [("k%d" % pick, float(tick) + (250.0 if i >= jump else 0.0))
            for i, (pick, tick) in enumerate(zip(picks, ticks))]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(zipf_streams(), st.integers(1, 12), st.booleans())
def test_insert_only_heap_picks_the_reference_victims(stream, capacity,
                                                      gated):
    """A hit only adds weight; the victim is still the live entry with
    the least ``(weight, id)``: over Zipf streams with forced weight
    ties and a renormalization (tau 1 s, a 250 s jump), the sketch and
    the push-on-every-hit reference evict the same keys in the same
    order and end with the same ranking and eviction threshold."""
    # a fixed per-key order stands in for id(): both heaps then break
    # weight ties the same way
    order = {"k%d" % i: (i * 7919) % 1009 for i in range(61)}

    def ident(entry):
        return order[entry.key]

    def gate():
        return RotatingBloomFilter(capacity=64, rotate_interval=50.0) \
            if gated else None

    reference = _ReferenceSpaceSaving(capacity, 1.0, gate(), ident)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spacesaving, "id", ident, raising=False)
        sketch = SpaceSaving(capacity=capacity, tau=1.0, gate=gate())
        for key, now in stream:
            before = set(sketch._entries)
            entry = sketch.offer(key, now)
            expected, victim = reference.offer(key, now)
            assert (entry is None) == (expected is None)
            evicted = before - set(sketch._entries)
            assert evicted == ({victim} if victim is not None else set())
            if entry is not None:
                assert (entry.key, entry.weight, entry.error) == \
                    (expected.key, expected.weight, expected.error)
        assert len(sketch._heap) == len(sketch)
        now = stream[-1][1]
        assert [(e.key, e.weight) for e in sketch.top()] == [
            (e.key, e.weight) for e in sorted(
                reference.entries.values(), key=lambda e: (-e.weight, e.key))]
        assert sketch.min_rate(now) == reference.decay.rate(
            min(e.weight for e in reference.entries.values()), now)
        assert sketch.decay.landmark == reference.decay.landmark
