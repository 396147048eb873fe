"""Detector protocol, the shared name facts and the shared cut.

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

Every detector reads a transaction through the same facts about its
qname -- eSLD, name hash, subdomain information -- which
:func:`chunk_facts` derives once per name for all of them.  A detector
is split into a per-window **accumulator** (fed by ``observe_facts``,
taken and reset by ``close_window``) and a cross-window **scorer**
(EWMA baselines, Bloom generations, flag logic) that runs at
:meth:`Detector.cut`.  The detector set is one window channel: in a
sharded run one worker owns it and sees every transaction, so the
``_detector`` series is the single-process series byte for byte.
"""

import math

from repro.dnswire.psl import default_psl
from repro.memo import BoundedMemo
from repro.sketches._hashing import hash64

#: the detector meta-dataset, stored/served like any other dataset
DETECTOR_DATASET = "_detector"

#: canonical detector order (also the registry iteration order)
DEFAULT_DETECTORS = ("exfil", "ddos", "noh")

#: entries the name memo holds before it is cleared wholesale, counted
#: as a ``record`` clear (:mod:`repro.memo`)
NAME_MEMO_LIMIT = 1 << 16

#: canonical qname -> (eSLD, hash64(qname), subdomain milli-bits), or
#: None for a name without an eSLD (the root)
_NAMES = BoundedMemo("record")


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


def qname_facts(qname):
    """The facts every detector reads from canonical *qname* (see
    :data:`_NAMES`), derived on its first sight: the registrable
    domain (eTLD fallback, like the qname dataset's key function),
    the name's hash and the information of the part left of the
    eSLD."""
    if qname in _NAMES:
        return _NAMES[qname]
    psl = default_psl()
    esld = psl.effective_sld(qname) or psl.effective_tld(qname)
    facts = None
    if esld is not None:
        if len(qname) > len(esld) and qname.endswith(esld):
            subdomain = qname[: -(len(esld) + 1)]
        else:
            subdomain = ""
        facts = (esld, hash64(qname), qname_info_millibits(subdomain))
    return _NAMES.put(qname, facts, NAME_MEMO_LIMIT)


def chunk_facts(txns):
    """The :func:`qname_facts` of each transaction in *txns* that has
    them, in stream order."""
    known = _NAMES.get
    facts = []
    for txn in txns:
        fact = known(txn.qname) or qname_facts(txn.qname)
        if fact is not None:
            facts.append(fact)
    return facts


class Detector:
    """Base class: the shared EWMA flag logic and row assembly.

    A subclass implements ``observe_facts(facts)`` (fold a chunk's
    :func:`chunk_facts` into the accumulator) and
    ``close_window(start_ts)``: take and reset the accumulator, and
    return the window's ``{esld: value}``, the function
    ``(esld, value, prior, flag) -> row`` of its per-key columns, and
    the columns its summary row adds to ``keys`` and ``flagged``.
    Emitted row keys are ``<name>.<esld>`` plus one summary row keyed
    by the bare detector name -- the component the ``DETECTOR_RULES``
    alert rules match on.

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
        self._baseline = {}
        self._windows = 0

    def cut(self, start_ts, end_ts):
        """Score the window, update baselines, reset; return rows."""
        values, row, summary = self.close_window(start_ts)
        ranked, flagged = self.score_keys(values)
        rows = [("%s.%s" % (self.name, esld), row(esld, value, prior, flag))
                for esld, value, prior, flag in ranked]
        rows.append((self.name, {"keys": len(values), "flagged": flagged,
                                 **summary}))
        return rows

    def score_keys(self, values):
        """Shared flag logic over ``{esld: value}``; returns
        ``(ranked, flagged)`` with ``(esld, value, prior, flag)``
        tuples sorted by (-value, esld) and truncated to ``topn``.

        A key flags when its window value reaches both the absolute
        ``min_value`` floor and ``ratio`` times its EWMA baseline.
        Baselines update only from *unflagged* windows, so a sustained
        attack cannot launder itself into its own baseline; the first
        ``warmup`` windows never flag (every baseline starts cold).
        """
        baseline = self._baseline
        warm = self._windows >= self.warmup
        ranked = []
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
            ranked.append((esld, value, prior, flag))
        self._windows += 1
        ranked.sort(key=lambda r: (-r[1], r[0]))
        return ranked[: self.topn], flagged
