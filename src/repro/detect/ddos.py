"""Distinct heavy hitters for random-subdomain (water-torture) DDoS.

Afek et al. (arXiv:1612.02636): a water-torture attack floods the
victim's authoritative servers with queries for random nonexistent
subdomains, so per-eSLD *query volume* may look unremarkable at a
vantage point while the number of *distinct* subdomains explodes.
The detector ranks eSLDs by distinct-FQDN count per window on a
:class:`~repro.sketches.distinct.DistinctSpaceSaving` sketch
(Space-Saving slots carrying a small HyperLogLog each) and flags keys
whose distinct count jumps over their own EWMA baseline.

The sketch is the accumulator: shards ship theirs at every cut and
the coordinator merges them (HLL register max + error-base addition),
which is exact -- and therefore bit-identical to single-process --
while the slot capacity does not bind.
"""

from repro.detect.base import Detector
from repro.sketches._hashing import hash64
from repro.sketches.distinct import DistinctSpaceSaving


class DdosDetector(Detector):
    """Per-eSLD distinct-subdomain counting (water-torture DDoS)."""

    name = "ddos"

    def __init__(self, psl=None, min_distinct=400.0, ratio=4.0,
                 alpha=0.3, warmup=2, topn=20, capacity=2048,
                 precision=11):
        super().__init__(psl=psl, min_value=min_distinct, ratio=ratio,
                         alpha=alpha, warmup=warmup, topn=topn)
        self.capacity = int(capacity)
        self.precision = int(precision)
        self._sketch = DistinctSpaceSaving(self.capacity, self.precision)

    def observe(self, txn):
        esld = self.esld(txn.qname)
        if esld is None:
            return
        self._sketch.offer(esld, hash64(txn.qname.lower().rstrip(".")))

    def take_state(self):
        sketch = self._sketch
        self._sketch = DistinctSpaceSaving(self.capacity, self.precision)
        return ("ddos-v1", sketch)

    def absorb(self, state):
        tag, sketch = state
        if tag != "ddos-v1":
            raise ValueError("unknown ddos state %r" % (tag,))
        self._sketch.merge(sketch)

    def cut(self, start_ts, end_ts):
        sketch = self._sketch
        self._sketch = DistinctSpaceSaving(self.capacity, self.precision)
        distinct = dict(sketch.top())
        ranked, flagged = self.score_keys(distinct)
        rows = []
        for key, value, prior, flag in ranked:
            rows.append((key, {
                "distinct": int(value),
                "baseline": round(prior, 1),
                "flagged": flag,
            }))
        max_distinct = max(distinct.values()) if distinct else 0
        rows.append((self.name, {
            "keys": len(distinct),
            "flagged": flagged,
            "max_distinct": int(max_distinct),
            "evictions": sketch.evictions,
        }))
        return rows
