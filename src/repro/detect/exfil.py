"""Information-based heavy hitters for DNS exfiltration.

Ozery, Hendler and Shabtai (arXiv:2307.02614) observe that
exfiltration-over-DNS is bounded by the *information content* a domain
receives, not its query count: a tunnel moving data must push
high-entropy qnames at volume, while high-volume legitimate domains
repeat low-entropy names.  The detector therefore scores each eSLD by
``sum over qnames of (character entropy x subdomain length)`` per
window and flags keys whose information intake jumps over their own
EWMA baseline.

The accumulator is a plain dict ``esld -> [queries, milli_bits]``;
per-qname information is quantized to integer milli-bits *before*
summing, so the sums are exact.  Memory is bounded by the number of
distinct eSLDs per window, and emitted rows are capped at ``topn``.
"""

from repro.detect.base import Detector


class ExfilDetector(Detector):
    """Per-eSLD information-content scoring (bits per window)."""

    name = "exfil"
    min_value = 5000.0  # bits

    def __init__(self):
        super().__init__()
        self._acc = {}

    def observe_facts(self, facts):
        acc = self._acc
        for esld, _, millibits in facts:
            cell = acc.get(esld)
            if cell is None:
                cell = acc[esld] = [0, 0]
            cell[0] += 1
            cell[1] += millibits

    def close_window(self, start_ts):
        acc, self._acc = self._acc, {}
        bits = {esld: cell[1] / 1000.0 for esld, cell in acc.items()}

        def row(esld, value, prior, flag):
            return {"queries": acc[esld][0], "bits": round(value, 2),
                    "baseline": round(prior, 2), "flagged": flag}

        return bits, row, {"max_bits": round(max(bits.values(),
                                                 default=0.0), 2)}
