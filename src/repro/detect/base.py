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

Sharding and bit-identity
-------------------------
Every detector is split into a per-window **accumulator** and a
cross-window **scorer**.  The accumulator ingests transactions and is
*mergeable with order-invariant exact operations only* -- integer
sums (per-qname entropy is quantized to integer milli-bits before
summing), HLL register max, set union.  Shard workers run accumulators
and ship them at every cut as :class:`DetectorWindowState` through the
same transport as the tracker states; the coordinator absorbs them in
shard order and scores.  The scorer (EWMA baselines, Bloom
generations, flag logic) runs only where windows are emitted -- the
single-process :class:`~repro.observatory.pipeline.Observatory` or the
sharded coordinator -- so its floating-point path is single-threaded
and the ``_detector`` series is bit-identical between a sharded run
and a single process.
"""

import math

from repro.dnswire.psl import default_psl

#: the detector meta-dataset, stored/served like any other dataset
DETECTOR_DATASET = "_detector"

#: canonical detector order (also the registry iteration order)
DEFAULT_DETECTORS = ("exfil", "ddos", "noh")


class DetectorWindowState:
    """One detector's accumulator for one window, shipped shard ->
    coordinator next to the tracker's ShardWindowState."""

    __slots__ = ("name", "start_ts", "payload")

    dataset = DETECTOR_DATASET

    def __init__(self, name, start_ts, payload):
        self.name = name
        self.start_ts = start_ts
        self.payload = payload

    def __repr__(self):
        return "DetectorWindowState(%s, %d)" % (self.name, self.start_ts)


def qname_info_millibits(subdomain):
    """Information content of one qname's subdomain part, in integer
    milli-bits: Shannon character entropy times the subdomain length.

    The quantization matters: shards sum these per eSLD, and integer
    addition is order-invariant where float addition is not -- the
    foundation of the sharded/single bit-identity guarantee."""
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

    Subclasses implement ``observe`` (feed the accumulator),
    ``take_state``/``absorb`` (ship/merge accumulators across shards)
    and ``cut`` (score the window and emit rows).  Emitted row keys
    are ``<name>.<esld>`` plus one summary row keyed by the bare
    detector name -- the component the ``DETECTOR_RULES`` alert rules
    match on.
    """

    name = "detector"

    def __init__(self, psl=None, min_value=0.0, ratio=4.0, alpha=0.3,
                 warmup=2, topn=20):
        psl = psl if psl is not None else default_psl()
        self._effective_sld = psl.effective_sld
        self._effective_tld = psl.effective_tld
        #: absolute floor a window value must reach to flag
        self.min_value = float(min_value)
        #: multiple of the EWMA baseline a window value must reach
        self.ratio = float(ratio)
        #: EWMA smoothing factor for the per-key baseline
        self.alpha = float(alpha)
        #: windows to observe before flagging (baseline warm-up)
        self.warmup = int(warmup)
        #: per-key rows emitted per window (summary row always emitted)
        self.topn = int(topn)
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

    # -- shard transport ------------------------------------------------

    def take_state(self):
        """Export and reset the window accumulator (shard flush)."""
        raise NotImplementedError

    def absorb(self, state):
        """Merge a shipped accumulator into ours (coordinator)."""
        raise NotImplementedError

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
