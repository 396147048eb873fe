"""Detector protocol and the accumulator/scorer split.

A :class:`Detector` watches the transaction stream and, at every
window cut, emits rows into the ``_detector`` meta-dataset (the same
TSV/segments/aggregation/serving chain the ``_platform`` telemetry
rides).  Three concrete detectors live in this package:

* ``exfil`` -- information-based heavy hitters for DNS exfiltration
  (Ozery et al., arXiv:2307.02614): per-eSLD information content
  (qname entropy x query volume) against a per-key EWMA baseline.
* ``ddos`` -- distinct heavy hitters for random-subdomain DDoS (Afek
  et al., arXiv:1612.02636) on a
  :class:`~repro.sketches.distinct.DistinctSpaceSaving` sketch.
* ``noh`` -- newly-observed-hostname tracking for tunneling, backed
  by rotating Bloom generations.

Every detector is split into a per-window **accumulator** (fed by
``observe``, reset by ``cut``) and a cross-window **scorer** (EWMA
baselines, Bloom generations, flag logic) that runs at ``cut``.  The
detector set is one window channel: in a sharded run one worker owns
it and sees every transaction, so the ``_detector`` series is the
single-process series byte for byte.
"""

import math

from repro.dnswire.psl import default_psl

#: the detector meta-dataset, stored/served like any other dataset
DETECTOR_DATASET = "_detector"

#: canonical detector order (also the registry iteration order)
DEFAULT_DETECTORS = ("exfil", "ddos", "noh")


def qname_info_millibits(subdomain):
    """Information content of one qname's subdomain part, in integer
    milli-bits: Shannon character entropy times the subdomain length.

    The quantization keeps the per-eSLD sum an exact integer, so it
    does not depend on the order qnames arrive in."""
    n = len(subdomain)
    if n == 0:
        return 0
    counts = {}
    for ch in subdomain:
        counts[ch] = counts.get(ch, 0) + 1
    entropy = 0.0
    for c in counts.values():
        p = c / n
        entropy -= p * math.log2(p)
    return int(round(entropy * n * 1000.0))


class Detector:
    """Base class: eSLD extraction plus the shared EWMA flag logic.

    Subclasses implement ``observe`` (feed the accumulator) and
    ``cut`` (score the window and emit rows).  Emitted row keys
    are ``<name>.<esld>`` plus one summary row keyed by the bare
    detector name -- the component the ``DETECTOR_RULES`` alert rules
    match on.

    The thresholds are class attributes; a test or bench that tunes
    one sets it on the instance.
    """

    name = "detector"
    #: absolute floor a window value must reach to flag
    min_value = 0.0
    #: multiple of the EWMA baseline a window value must reach
    ratio = 4.0
    #: EWMA smoothing factor for the per-key baseline
    alpha = 0.3
    #: windows to observe before flagging (baseline warm-up)
    warmup = 2
    #: per-key rows emitted per window (summary row always emitted)
    topn = 20

    def __init__(self):
        psl = default_psl()
        self._effective_sld = psl.effective_sld
        self._effective_tld = psl.effective_tld
        self._baseline = {}
        self._windows = 0

    # -- stream side (accumulator) -------------------------------------

    def esld(self, qname):
        """Registrable domain of *qname* (eTLD fallback, like the
        qname dataset's key function), or None."""
        esld = self._effective_sld(qname)
        if esld is None:
            esld = self._effective_tld(qname)
        return esld

    def observe(self, txn):
        raise NotImplementedError

    def observe_batch(self, txns):
        observe = self.observe
        for txn in txns:
            observe(txn)

    # -- scorer ---------------------------------------------------------

    def cut(self, start_ts, end_ts):
        """Score the window, update baselines, reset; return rows."""
        raise NotImplementedError

    def score_keys(self, values):
        """Shared flag logic over ``{esld: value}``; returns
        ``(rows, flagged)`` with rows sorted by (-value, esld) and
        truncated to ``topn``.

        A key flags when its window value reaches both the absolute
        ``min_value`` floor and ``ratio`` times its EWMA baseline.
        Baselines update only from *unflagged* windows, so a sustained
        attack cannot launder itself into its own baseline; the first
        ``warmup`` windows never flag (every baseline starts cold).
        """
        baseline = self._baseline
        warm = self._windows >= self.warmup
        rows = []
        flagged = 0
        for esld in sorted(values):
            value = values[esld]
            base = baseline.get(esld)
            prior = 0.0 if base is None else base
            flag = 1 if (warm and value >= self.min_value
                         and value >= self.ratio * prior) else 0
            if flag:
                flagged += 1
            else:
                baseline[esld] = value if base is None else \
                    self.alpha * value + (1.0 - self.alpha) * base
            rows.append(("%s.%s" % (self.name, esld), value, prior, flag))
        self._windows += 1
        rows.sort(key=lambda r: (-r[1], r[0]))
        return rows[: self.topn], flagged
