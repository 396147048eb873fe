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
from repro.sketches._hashing import hash64
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

    def observe(self, txn):
        esld = self.esld(txn.qname)
        if esld is None:
            return
        qname_hash = hash64(txn.qname.lower().rstrip("."))
        hashes = self._acc.get(esld)
        if hashes is None:
            self._acc[esld] = {qname_hash}
        else:
            hashes.add(qname_hash)

    def cut(self, start_ts, end_ts):
        acc, self._acc = self._acc, {}
        bloom = self._bloom
        noh = {}
        distinct = {}
        # Sorted replay: iteration order must not depend on arrival
        # order, or Bloom insert order (and with it the rare
        # false-positive pattern) would differ between runs.
        for esld in sorted(acc):
            hashes = acc[esld]
            fresh = 0
            for h in sorted(hashes):
                if not bloom.add(b"%016x" % h):
                    fresh += 1
            noh[esld] = fresh
            distinct[esld] = len(hashes)
        self._cuts += 1
        if self._cuts % self.generation_windows == 0:
            bloom._rotate(start_ts)
        ranked, flagged = self.score_keys(noh)
        rows = []
        for key, value, prior, flag in ranked:
            esld = key[len(self.name) + 1:]
            rows.append((key, {
                "noh": int(value),
                "distinct": distinct[esld],
                "baseline": round(prior, 1),
                "flagged": flag,
            }))
        max_noh = max(noh.values()) if noh else 0
        rows.append((self.name, {
            "keys": len(acc),
            "flagged": flagged,
            "max_noh": int(max_noh),
            "generations": bloom.rotations,
        }))
        return rows
