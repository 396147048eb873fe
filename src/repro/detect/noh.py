"""Newly-observed-hostname tracking for DNS tunneling.

A tunnel encodes its channel in fresh hostnames: every query carries a
name the resolver population has never asked before.  The detector
remembers the recently-seen hostname universe in rotating Bloom
generations and, per window, counts each eSLD's *newly observed*
hostnames; an eSLD whose NOH count jumps over its own EWMA baseline is
flagged.

Shards cannot share a Bloom filter mid-window, so novelty is *not*
decided at observe time.  The accumulator only collects per-eSLD sets
of 64-bit hostname hashes (exact, union-mergeable); the scorer -- the
single place windows are emitted -- owns the Bloom generations and
replays each window's hashes against them in sorted order at cut
time.  Sorted replay plus set-union accumulators make the sharded
``_detector`` output bit-identical to a single process.
"""

from repro.detect.base import Detector
from repro.sketches._hashing import hash64
from repro.sketches.bloom import RotatingBloomFilter


class NohDetector(Detector):
    """Per-eSLD newly-observed-hostname counting (tunneling)."""

    name = "noh"

    def __init__(self, psl=None, min_noh=120.0, ratio=4.0, alpha=0.3,
                 warmup=2, topn=20, capacity=1 << 17, error_rate=0.01,
                 generation_windows=10):
        super().__init__(psl=psl, min_value=min_noh, ratio=ratio,
                         alpha=alpha, warmup=warmup, topn=topn)
        self._acc = {}
        #: hostname memory: each generation holds *generation_windows*
        #: windows, membership spans one-to-two generations
        self.generation_windows = int(generation_windows)
        self._bloom = RotatingBloomFilter(capacity=capacity,
                                          error_rate=error_rate,
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

    def take_state(self):
        acc, self._acc = self._acc, {}
        return ("noh-v1", acc)

    def absorb(self, state):
        tag, acc = state
        if tag != "noh-v1":
            raise ValueError("unknown noh state %r" % (tag,))
        mine = self._acc
        for esld, hashes in acc.items():
            seen = mine.get(esld)
            if seen is None:
                mine[esld] = set(hashes)
            else:
                seen |= hashes
        return self

    def cut(self, start_ts, end_ts):
        acc, self._acc = self._acc, {}
        bloom = self._bloom
        noh = {}
        distinct = {}
        # Sorted replay: iteration order must not depend on how the
        # stream was sharded, or Bloom insert order (and with it the
        # rare false-positive pattern) would differ between runs.
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
