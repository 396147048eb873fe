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

from repro.detect.base import Detector, qname_info_millibits


class ExfilDetector(Detector):
    """Per-eSLD information-content scoring (bits per window)."""

    name = "exfil"
    min_value = 5000.0  # bits

    def __init__(self):
        super().__init__()
        self._acc = {}
        #: normalized qname -> quantized information content; benign
        #: names repeat every window, tunnel payloads never do
        self._info_memo = {}

    def observe(self, txn):
        esld = self.esld(txn.qname)
        if esld is None:
            return
        norm = txn.qname.lower().rstrip(".")
        cell = self._acc.get(esld)
        if cell is None:
            cell = self._acc[esld] = [0, 0]
        cell[0] += 1
        millibits = self._info_memo.get(norm)
        if millibits is None:
            if len(norm) > len(esld) and norm.endswith(esld):
                sub = norm[: -(len(esld) + 1)]
            else:
                sub = ""
            millibits = qname_info_millibits(sub)
            if len(self._info_memo) >= 1 << 16:
                self._info_memo.clear()
            self._info_memo[norm] = millibits
        cell[1] += millibits

    def cut(self, start_ts, end_ts):
        acc, self._acc = self._acc, {}
        queries = {esld: cell[0] for esld, cell in acc.items()}
        bits = {esld: cell[1] / 1000.0 for esld, cell in acc.items()}
        ranked, flagged = self.score_keys(bits)
        rows = []
        for key, value, prior, flag in ranked:
            esld = key[len(self.name) + 1:]
            rows.append((key, {
                "queries": queries[esld],
                "bits": round(value, 2),
                "baseline": round(prior, 2),
                "flagged": flag,
            }))
        max_bits = max(bits.values()) if bits else 0.0
        rows.append((self.name, {
            "keys": len(acc),
            "flagged": flagged,
            "max_bits": round(max_bits, 2),
        }))
        return rows
