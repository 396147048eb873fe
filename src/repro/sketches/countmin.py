"""Count-Min Sketch heavy hitters: the alternative to Space-Saving.

The paper builds on Space-Saving, and cites the distinct-heavy-hitter
sketch line of work (Feibish et al. [23]) for related DNS problems.
This module implements the classic alternative design -- a Count-Min
Sketch (Cormode & Muthukrishnan, 2005) paired with a candidate heap --
so the repository can compare the two approaches empirically (see
``benchmarks/bench_ablation_topk_sketch.py``):

* Space-Saving: O(k) memory, deterministic overestimates bounded by
  N/k, entry identity is stable (supports the per-object feature
  state the Observatory needs);
* CMS + heap: memory independent of k (width x depth counters),
  pure frequency estimation with (eps, delta) guarantees, but no
  stable per-key slots -- attaching per-object state requires the
  separate heap anyway.

The comparison motivates the paper's choice: for the Observatory's
workload the SS cache doubles as the state container for the §2.3
feature sets, which a CMS cannot provide by itself.
"""

import heapq

from repro.sketches._hashing import hash_pair


class CountMinSketch:
    """A (width x depth) Count-Min frequency sketch."""

    def __init__(self, width, depth):
        if width < 1 or depth < 1:
            raise ValueError("width and depth must be >= 1")
        self.width = int(width)
        self.depth = int(depth)
        self._rows = [[0] * self.width for _ in range(self.depth)]
        #: total increments (for the eps*N error bound)
        self.total = 0

    def _positions(self, key):
        h1, h2 = hash_pair(key)
        width = self.width
        return [(h1 + i * h2) % width for i in range(self.depth)]

    def add(self, key):
        """Count one occurrence of *key*; returns the new estimate."""
        self.total += 1
        estimate = None
        for row, pos in zip(self._rows, self._positions(key)):
            row[pos] += 1
            if estimate is None or row[pos] < estimate:
                estimate = row[pos]
        return estimate

    def estimate(self, key):
        """Point estimate of *key*'s count (never underestimates)."""
        return min(row[pos]
                   for row, pos in zip(self._rows, self._positions(key)))


class CmsTopK:
    """Top-k tracking with a Count-Min Sketch + candidate min-heap.

    The standard construction: estimate each arriving key with the
    CMS; keep the k largest estimates in a heap.  Provides the same
    ``offer``/``top`` surface as the Space-Saving tracker, for the
    ablation benchmark.
    """

    def __init__(self, capacity, width, depth):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.sketch = CountMinSketch(width, depth)
        self._heap = []      # (estimate, key) -- lazy values
        self._members = {}   # key -> latest estimate
        self.offered = 0

    def offer(self, key):
        """Observe *key*; maintain the top-k candidate set."""
        self.offered += 1
        estimate = self.sketch.add(key)
        if key in self._members:
            self._members[key] = estimate
            return
        if len(self._members) < self.capacity:
            self._members[key] = estimate
            heapq.heappush(self._heap, (estimate, key))
            return
        # Evict the smallest current member if this key beats it.
        while self._heap:
            old_estimate, old_key = self._heap[0]
            current = self._members.get(old_key)
            if current is None or current > old_estimate:
                heapq.heapreplace(
                    self._heap, (current, old_key) if current else
                    (estimate, key))
                if current is None:
                    self._members[key] = estimate
                    return
                continue
            break
        if self._heap and self._heap[0][0] < estimate:
            _, evicted = heapq.heapreplace(self._heap, (estimate, key))
            self._members.pop(evicted, None)
            self._members[key] = estimate

    def top(self, n=None):
        """Keys ranked by estimated count, heaviest first."""
        ranked = sorted(self._members.items(),
                        key=lambda kv: (-kv[1], kv[0]))
        if n is not None:
            ranked = ranked[:n]
        return ranked
