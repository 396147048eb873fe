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

Merging follows the mergeable-summaries recipe: HLLs union by register
max, error bases add, and the union is truncated back to capacity by
distinct estimate.  While no eviction has occurred on either side
(``base == 0`` everywhere, capacity not binding) a merge of split
streams is *exactly* the single-stream sketch -- the property the
sharded ingest differential relies on.
"""

import heapq
from pickle import PickleBuffer

from repro.sketches.hyperloglog import HyperLogLog


class DistinctEntry:
    """One tracked key: a per-key HLL plus the inherited error base."""

    __slots__ = ("key", "hll", "base", "_card", "_dirty")

    def __init__(self, key, hll, base=0):
        self.key = key
        self.hll = hll
        self.base = base
        self._card = 0
        self._dirty = True

    def estimate(self):
        """Distinct-count estimate: inherited base + own HLL estimate.

        Quantized to an integer so comparisons (eviction, ranking,
        merge truncation) are stable across platforms and merge
        orders."""
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
    seed:
        HLL hash seed; only sketches with equal parameters merge.
    """

    def __init__(self, capacity=2048, precision=11, seed=0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.precision = int(precision)
        self.seed = int(seed)
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
        entry = DistinctEntry(key, HyperLogLog(self.precision, self.seed),
                              base)
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

    def top(self, n=None):
        """``(key, estimate)`` pairs sorted by (-estimate, key)."""
        ranked = sorted(((e.key, e.estimate())
                         for e in self._entries.values()),
                        key=lambda kv: (-kv[1], kv[0]))
        return ranked if n is None else ranked[:n]

    # -- merge ----------------------------------------------------------

    def merge(self, other):
        """Fold *other* into this sketch (mergeable-summaries union)."""
        if not isinstance(other, DistinctSpaceSaving):
            raise TypeError("can only merge DistinctSpaceSaving")
        if (self.capacity, self.precision, self.seed) != \
                (other.capacity, other.precision, other.seed):
            raise ValueError("cannot merge sketches with different "
                             "parameters")
        for key, theirs in sorted(other._entries.items()):
            mine = self._entries.get(key)
            if mine is not None:
                mine.hll.merge(theirs.hll)
                mine.base += theirs.base
                mine._dirty = True
            else:
                entry = DistinctEntry(key, theirs.hll.copy(), theirs.base)
                self._entries[key] = entry
        self.evictions += other.evictions
        if len(self._entries) > self.capacity:
            ranked = sorted(self._entries.values(),
                            key=lambda e: (-e.estimate(), e.key))
            for entry in ranked[self.capacity:]:
                del self._entries[entry.key]
                self.evictions += 1
        self._heap = [(e.estimate(), k)
                      for k, e in self._entries.items()]
        heapq.heapify(self._heap)
        return self

    # -- flat-buffer codec (zero-copy shard transport) -----------------

    def to_buffers(self):
        """Serialize to ``(meta, buffers)``; one HLL blob per slot."""
        entry_meta = []
        buffers = []
        for key in sorted(self._entries):
            entry = self._entries[key]
            hmeta, hbufs = entry.hll.to_buffers()
            entry_meta.append((key, entry.base, hmeta, len(hbufs)))
            buffers.extend(hbufs)
        meta = ("dss", self.capacity, self.precision, self.seed,
                self.evictions, tuple(entry_meta))
        return meta, buffers

    @classmethod
    def from_buffers(cls, meta, buffers):
        tag, capacity, precision, seed, evictions, entry_meta = meta
        if tag != "dss":
            raise ValueError("unknown DistinctSpaceSaving mode %r" % (tag,))
        sketch = cls(capacity, precision, seed)
        sketch.evictions = evictions
        pos = 0
        for key, base, hmeta, nbufs in entry_meta:
            hll = HyperLogLog.from_buffers(hmeta, buffers[pos:pos + nbufs])
            pos += nbufs
            sketch._entries[key] = DistinctEntry(key, hll, base)
        sketch._heap = [(e.estimate(), k)
                        for k, e in sketch._entries.items()]
        heapq.heapify(sketch._heap)
        return sketch

    def __reduce_ex__(self, protocol):
        if protocol >= 5:
            meta, buffers = self.to_buffers()
            return (self.from_buffers,
                    (meta, [PickleBuffer(b) for b in buffers]))
        return super().__reduce_ex__(protocol)
