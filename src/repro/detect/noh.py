"""Newly-observed-hostname tracking for DNS tunneling.

A tunnel encodes its channel in fresh hostnames: every query carries a
name the resolver population has never asked before.  The detector
remembers the recently-seen hostname universe in rotating Bloom
generations and, per window, counts each eSLD's *newly observed*
hostnames; an eSLD whose NOH count jumps over its own EWMA baseline is
flagged.

Novelty is *not* decided at observe time.  The accumulator only
collects per-eSLD sets of 64-bit hostname hashes; the scorer owns the
Bloom generations and replays each window's hashes against them in
sorted order at cut time, so the Bloom insert order (and with it the
rare false-positive pattern) does not depend on arrival order.
"""

from repro.detect.base import Detector
from repro.sketches.bloom import RotatingBloomFilter


class NohDetector(Detector):
    """Per-eSLD newly-observed-hostname counting (tunneling)."""

    name = "noh"
    min_value = 120.0  # newly observed hostnames
    #: hostname memory: each generation holds *generation_windows*
    #: windows, membership spans one-to-two generations
    generation_windows = 10

    def __init__(self):
        super().__init__()
        self._acc = {}
        self._bloom = RotatingBloomFilter(capacity=1 << 17,
                                          rotate_interval=float("inf"))
        self._cuts = 0

    def observe_facts(self, facts):
        acc = self._acc
        for esld, qname_hash, _ in facts:
            hashes = acc.get(esld)
            if hashes is None:
                acc[esld] = {qname_hash}
            else:
                hashes.add(qname_hash)

    def close_window(self, start_ts):
        acc, self._acc = self._acc, {}
        bloom = self._bloom
        noh = {}
        # Sorted replay: iteration order must not depend on arrival
        # order, or Bloom insert order (and with it the rare
        # false-positive pattern) would differ between runs.
        for esld in sorted(acc):
            fresh = 0
            for h in sorted(acc[esld]):
                if not bloom.add(b"%016x" % h):
                    fresh += 1
            noh[esld] = fresh
        self._cuts += 1
        if self._cuts % self.generation_windows == 0:
            bloom._rotate(start_ts)

        def row(esld, value, prior, flag):
            return {"noh": int(value), "distinct": len(acc[esld]),
                    "baseline": round(prior, 1), "flagged": flag}

        return noh, row, {"max_noh": int(max(noh.values(), default=0)),
                          "generations": bloom.rotations}
