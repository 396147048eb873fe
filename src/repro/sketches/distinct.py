"""Distinct-counting Space-Saving (Afek et al., arXiv:1612.02636).

Random-subdomain ("water torture") DDoS floods an authoritative server
with queries for *distinct* nonexistent subdomains of the victim zone,
so the heavy hitter of interest is not the key with the most queries
but the key with the most **distinct** subordinate values.  Plain
Space-Saving ranks by weight; this variant gives every tracked slot a
small HyperLogLog and ranks by the slot's distinct-value estimate
instead -- the "distinct heavy hitters" construction of Afek,
Bremler-Barr, Feibish and Schiff.

Slots are keyed (eSLD in the detector's use) and each ``offer`` feeds
one 64-bit value hash (the full QNAME hash) into the slot's HLL.  When
the structure is full, the slot with the smallest distinct estimate is
evicted and its estimate is inherited by the newcomer as an error
``base`` -- the classic Space-Saving overestimate bound, carried over
to distinct counts.
"""

import heapq

from repro.sketches.hyperloglog import HyperLogLog


class DistinctEntry:
    """One tracked key: a per-key HLL plus the inherited error base."""

    __slots__ = ("key", "hll", "base", "_card", "_dirty")

    def __init__(self, key, hll, base):
        self.key = key
        self.hll = hll
        self.base = base
        self._card = 0
        self._dirty = True

    def estimate(self):
        """Distinct-count estimate: inherited base + own HLL estimate.

        Quantized to an integer so comparisons (eviction, ranking) are
        stable across platforms."""
        if self._dirty:
            self._card = int(round(self.hll.cardinality()))
            self._dirty = False
        return self.base + self._card


class DistinctSpaceSaving:
    """Top-k keys by *distinct value count*, in bounded space.

    Parameters
    ----------
    capacity:
        Maximum number of tracked keys.  While the number of live keys
        stays below this, counts are exact HLL estimates (no
        Space-Saving error).
    precision:
        Per-slot HyperLogLog precision (``2**p`` one-byte registers
        per slot; p=11 keeps a 2048-slot sketch around 4 MB).
    """

    def __init__(self, capacity, precision):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.precision = int(precision)
        self._entries = {}
        #: lazy min-heap of (estimate_at_push, key); estimates only
        #: grow, so a popped entry whose live estimate moved is pushed
        #: back -- the same trick as SpaceSaving's rate heap
        self._heap = []
        self.evictions = 0

    def offer(self, key, value_hash):
        """Feed one (key, 64-bit value hash) observation."""
        entry = self._entries.get(key)
        if entry is not None:
            entry.hll.add_hash(value_hash)
            entry._dirty = True
            return entry
        if len(self._entries) >= self.capacity:
            victim = self._pop_min()
            base = victim.estimate()
            del self._entries[victim.key]
            self.evictions += 1
        else:
            base = 0
        entry = DistinctEntry(key, HyperLogLog(self.precision), base)
        entry.hll.add_hash(value_hash)
        entry._dirty = True
        self._entries[key] = entry
        # A one-item HLL estimates to exactly 1 (linear counting), so
        # the heap record is base + 1 without touching the registers;
        # the lazy heap tolerates records that lag the live estimate.
        heapq.heappush(self._heap, (base + 1, key))
        return entry

    def _pop_min(self):
        """Pop the entry with the smallest live distinct estimate."""
        while self._heap:
            est, key = heapq.heappop(self._heap)
            entry = self._entries.get(key)
            if entry is None:
                continue
            current = entry.estimate()
            if current > est and self._heap and self._heap[0][0] < current:
                # Stale heap record: the entry grew since it was
                # pushed and something smaller is behind it.
                heapq.heappush(self._heap, (current, key))
                continue
            return entry
        raise RuntimeError("heap empty with entries tracked")

    def top(self):
        """``(key, estimate)`` pairs sorted by (-estimate, key)."""
        return sorted(((e.key, e.estimate())
                       for e in self._entries.values()),
                      key=lambda kv: (-kv[1], kv[0]))

    # -- flat-buffer view (state comparison) ----------------------------

    def to_buffers(self):
        """Serialize to ``(meta, buffers)``; one HLL blob per slot."""
        entry_meta = []
        buffers = []
        for key in sorted(self._entries):
            entry = self._entries[key]
            hmeta, hbufs = entry.hll.to_buffers()
            entry_meta.append((key, entry.base, hmeta, len(hbufs)))
            buffers.extend(hbufs)
        meta = ("dss", self.capacity, self.precision,
                self.evictions, tuple(entry_meta))
        return meta, buffers
