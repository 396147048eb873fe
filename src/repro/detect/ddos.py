"""Distinct heavy hitters for random-subdomain (water-torture) DDoS.

Afek et al. (arXiv:1612.02636): a water-torture attack floods the
victim's authoritative servers with queries for random nonexistent
subdomains, so per-eSLD *query volume* may look unremarkable at a
vantage point while the number of *distinct* subdomains explodes.
The detector ranks eSLDs by distinct-FQDN count per window on a
:class:`~repro.sketches.distinct.DistinctSpaceSaving` sketch
(Space-Saving slots carrying a small HyperLogLog each) and flags keys
whose distinct count jumps over their own EWMA baseline.

The sketch is the window accumulator; ``cut`` ranks it and starts a
fresh one.
"""

from repro.detect.base import Detector
from repro.sketches._hashing import hash64
from repro.sketches.distinct import DistinctSpaceSaving


class DdosDetector(Detector):
    """Per-eSLD distinct-subdomain counting (water-torture DDoS)."""

    name = "ddos"
    min_value = 400.0  # distinct FQDNs
    #: eSLD slots and per-slot HLL precision of the window sketch
    capacity = 2048
    precision = 11

    def __init__(self):
        super().__init__()
        self._sketch = DistinctSpaceSaving(self.capacity, self.precision)

    def observe(self, txn):
        esld = self.esld(txn.qname)
        if esld is None:
            return
        self._sketch.offer(esld, hash64(txn.qname.lower().rstrip(".")))

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
