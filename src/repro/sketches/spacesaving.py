"""The Space-Saving top-k algorithm with decaying rate estimates.

This is the "basic tool" of DNS Observatory (Section 2.2): it keeps
track of the most frequently queried DNS objects -- nameserver IPs,
FQDNs, eSLDs, ... -- while keeping memory usage bounded by *k*.

The implementation follows Metwally, Agrawal & El Abbadi (ICDT 2005)
with the paper's adaptation:

* the frequency estimate of each entry is an **exponentially decaying
  moving average** of the transaction rate (events/second), realized
  via forward decay so that the estimates of all entries remain
  directly comparable (see :mod:`repro.sketches.ewma`);
* on a miss with a full cache, the **least-frequent entry is evicted**
  and the new key inherits its (decayed) frequency estimate -- the
  classic Space-Saving overestimate, preserved across the swap exactly
  as Section 2.2 describes ("keeping (and updating) the frequency
  estimate of the evicted entry");
* optionally, a **Bloom-filter gate** is consulted before eviction so
  that a key seen for the very first time cannot displace a tracked
  object -- only on its second observation within the gate's horizon
  may it enter the cache.

Each live entry carries an opaque ``state`` slot where the caller
(:mod:`repro.observatory.tracker`) attaches its per-object traffic
feature accumulator; the slot is reset on insertion, since the
statistics of the evicted object do not describe the new one.

Complexity: O(log k) amortized per observation (lazy min-heap with
periodic compaction), O(k) memory.
"""

import heapq

from repro.sketches.ewma import ForwardDecay


class SpaceSavingEntry:
    """A tracked object inside the Space-Saving cache."""

    __slots__ = ("key", "weight", "error", "inserted_at", "hits", "state",
                 "_version")

    def __init__(self, key, weight, error, inserted_at):
        #: the object's textual key (e.g. a nameserver IP address)
        self.key = key
        #: accumulated forward-decay weight (internal units)
        self.weight = weight
        #: weight inherited from the evicted entry at insertion time;
        #: ``weight - error`` is a lower bound on the object's own weight
        self.error = error
        #: virtual time when this key entered the cache (used by the
        #: window manager to skip recently inserted objects, §2.4)
        self.inserted_at = inserted_at
        #: exact number of observations since this key entered the cache
        self.hits = 0
        #: caller-attached per-object statistics (reset on insertion)
        self.state = None
        self._version = 0


class SpaceSaving:
    """Track the top-*k* keys of a stream with decaying rate estimates.

    Parameters
    ----------
    capacity:
        Maximum number of tracked keys (the *k* in top-k).
    tau:
        Decay time constant (seconds) for the rate estimates.  The
        paper tracks "the rate of transactions per second"; with the
        default of 300 s, an object silent for ~3.5 minutes loses half
        its estimated rate.
    gate:
        Optional eviction gate with an ``add(key, now) -> bool``
        method (e.g. :class:`repro.sketches.bloom.RotatingBloomFilter`).
        When provided, an unknown key is dropped -- not inserted -- the
        first time the gate reports it as unseen.
    """

    def __init__(self, capacity, tau=300.0, gate=None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.decay = ForwardDecay(tau=tau)
        self.gate = gate
        self._entries = {}
        self._heap = []
        # --- stream accounting (used for §3.1 capture ratios) ---
        #: total keys offered
        self.offered = 0
        #: observations that landed on an already-tracked key
        self.tracked_hits = 0
        #: observations dropped by the Bloom gate
        self.gated = 0
        #: evictions performed
        self.evictions = 0

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------

    def offer(self, key, now):
        """Observe *key* at virtual time *now*.

        Returns the live :class:`SpaceSavingEntry` for *key*, or None
        when the observation was dropped by the Bloom gate.
        """
        self.offered += 1
        if self.decay.needs_renormalize(now):
            self._renormalize(now)
        entries = self._entries
        entry = entries.get(key)
        add_weight = self.decay.weight(now)
        if entry is not None:
            self.tracked_hits += 1
            entry.weight += add_weight
            entry.hits += 1
            self._push(entry)
            return entry
        if len(entries) >= self.capacity:
            if self.gate is not None and not self.gate.add(key, now):
                self.gated += 1
                return None
            victim = self._pop_min()
            inherited = victim.weight
            del entries[victim.key]
            self.evictions += 1
        else:
            inherited = 0.0
        entry = SpaceSavingEntry(key, inherited + add_weight, inherited, now)
        entry.hits = 1
        entries[key] = entry
        self._push(entry)
        return entry

    def get(self, key):
        """Return the live entry for *key*, or None if not tracked."""
        return self._entries.get(key)

    def __contains__(self, key):
        return key in self._entries

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        """Iterate over live entries (arbitrary order)."""
        return iter(self._entries.values())

    def rate(self, entry_or_key, now):
        """Decayed rate estimate (events/second) of an entry at *now*."""
        entry = entry_or_key
        if not isinstance(entry, SpaceSavingEntry):
            entry = self._entries.get(entry_or_key)
            if entry is None:
                return 0.0
        return self.decay.rate(entry.weight, now)

    def top(self, n=None):
        """Return entries ranked by estimated frequency, heaviest first
        (all weights share one landmark, so decay does not change the
        ordering)."""
        ranked = sorted(
            self._entries.values(), key=lambda e: (-e.weight, e.key)
        )
        return ranked if n is None else ranked[:n]

    def min_rate(self, now):
        """Decayed rate estimate (events/second) of the weakest tracked
        entry at *now* -- the eviction threshold a new key must beat.
        A collapsing min-rate on a full cache signals churn; telemetry
        samples it once per window."""
        if not self._entries:
            return 0.0
        return self.decay.rate(
            min(entry.weight for entry in self._entries.values()), now)

    def capture_ratio(self):
        """Fraction of offered observations that landed on a tracked key.

        Section 3.1 reports these per dataset, e.g. 94.9 % for the
        Top-100K nameserver list and 23.2 % for Top-100K FQDNs.
        """
        return self.tracked_hits / self.offered if self.offered else 0.0

    # ------------------------------------------------------------------
    # Heap bookkeeping (lazy deletion + periodic compaction)
    # ------------------------------------------------------------------

    def _push(self, entry):
        entry._version += 1
        heapq.heappush(self._heap, (entry.weight, id(entry), entry._version, entry))
        if len(self._heap) > 8 * self.capacity + 64:
            self._rebuild_heap()

    def _pop_min(self):
        heap = self._heap
        while heap:
            weight, _, version, entry = heapq.heappop(heap)
            if entry._version == version and self._entries.get(entry.key) is entry:
                return entry
        raise RuntimeError("Space-Saving heap exhausted with live entries present")

    def _rebuild_heap(self):
        self._heap = [
            (e.weight, id(e), e._version, e) for e in self._entries.values()
        ]
        heapq.heapify(self._heap)

    def _renormalize(self, now):
        factor = self.decay.renormalize(now)
        for entry in self._entries.values():
            entry.weight *= factor
            entry.error *= factor
        self._rebuild_heap()
