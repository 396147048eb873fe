"""Per-object traffic features (the full Section 2.3 feature set).

Every tracked Top-k object carries one :class:`FeatureSet`, updated on
each transaction that maps to its key and reset at every 60-second
window boundary.  The underlying structure per feature follows the
paper: "either a simple counter (e.g., hits), an average (e.g.,
qdots), a histogram (e.g., resp_delays), or a cardinality estimate
(e.g., ip4s)".
"""

from repro.dnswire.constants import QTYPE, RCODE
from repro.dnswire.psl import default_psl
from repro.netsim.addr import is_ipv6
from repro.netsim.hops import infer_hops
from repro.sketches._hashing import derive64, hash64
from repro.sketches.histogram import LogHistogram, RunningMean
from repro.sketches.hyperloglog import HyperLogLog, index_rank
from repro.sketches.topvalues import TopValues

#: Counter feature columns.  Aggregated over time with missing -> 0
#: (Section 2.4: "If the object is missing in some of the files being
#: aggregated, we use a value of 0 for counters").
COUNTER_COLUMNS = (
    "hits", "unans", "ok", "nxd", "rfs", "fail",
    "ok_ans", "ok_ns", "ok_add", "ok_nil",
    "ok6", "ok6nil", "ok_sec",
)

#: Non-counter (gauge) columns.  Aggregated with the mean of *present*
#: data points (missing points are skipped, §2.4).
GAUGE_COLUMNS = (
    "srvips", "srcips", "sources",
    "qnamesa", "qnames", "tlds", "eslds", "qtypes",
    "qdots", "qdots_max", "lvl", "nslvl",
    "ip4s", "ip6s",
    "ttl_top1", "ttl_top2", "ttl_top3", "ttl_top1_share",
    "nsttl_top1", "nsttl_top1_share",
    "delay_q25", "delay_q50", "delay_q75",
    "hops_q25", "hops_q50", "hops_q75",
    "size_q25", "size_q50", "size_q75",
)

#: All feature columns, in canonical TSV order.
ALL_COLUMNS = COUNTER_COLUMNS + GAUGE_COLUMNS

_MAX_SOURCES = 1024  # contributor count is small; cap defensively

#: register exponent of every HyperLogLog feature (~6.5 % error,
#: per-object memory near 2 KiB)
HLL_PRECISION = 8


#: response classes of a prepared record
_UNANSWERED, _NOERROR, _NXDOMAIN, _REFUSED, _SERVFAIL, _OTHER = range(6)
_RESPONSE_CLASS = {int(RCODE.NOERROR): _NOERROR,
                   int(RCODE.NXDOMAIN): _NXDOMAIN,
                   int(RCODE.REFUSED): _REFUSED,
                   int(RCODE.SERVFAIL): _SERVFAIL}
_AAAA = int(QTYPE.AAAA)
#: query types whose answer addresses feed ip4s/ip6s
_ADDRESS_QTYPES = frozenset((int(QTYPE.A), _AAAA, int(QTYPE.ANY)))

#: smallest distinguishable value of the three quartile histograms; a
#: record computes each bucket index once on these shared templates
_DELAY_MIN, _HOPS_MIN, _SIZE_MIN = 0.05, 0.5, 1.0
_DELAY_INDEX = LogHistogram(min_value=_DELAY_MIN).bucket_index
_HOPS_INDEX = LogHistogram(min_value=_HOPS_MIN).bucket_index
_SIZE_INDEX = LogHistogram(min_value=_SIZE_MIN).bucket_index


class TxnHashes:
    """The per-transaction prepared record, shared across all trackers.

    The Observatory runs several trackers per transaction, and every
    admitting tracker's :class:`FeatureSet` needs the same facts about
    it: HLL register/rank pairs of the same strings, the response
    class, histogram bucket indexes.  The record derives them once per
    *transaction* so that :meth:`FeatureSet.update`, which runs once
    per admitting *dataset*, only bumps registers, buckets and
    counters.

    Every field is computed on first attribute access only: an unset
    slot falls through to :meth:`__getattr__`, which computes the
    value and stores it in the slot, so later accesses are plain slot
    reads.  Construction itself stores three references -- a
    transaction that all trackers filter out pays for no hashing at
    all.  ``server``/``resolver``/``qname`` are the base 64-bit hashes
    (per-feature independence comes from
    :func:`~repro.sketches._hashing.derive64`); ``prepared`` is the
    tuple :meth:`FeatureSet.update` unpacks.
    """

    __slots__ = ("txn", "server", "resolver", "qname", "qdots", "prepared")

    def __init__(self, txn):
        self.txn = txn

    def __getattr__(self, name):
        # Reached only while the slot is still unset (slot reads that
        # succeed never get here).
        txn = self.txn
        if name == "prepared":
            value = self._prepare()
        elif name == "server":
            value = hash64(txn.server_ip)
        elif name == "resolver":
            value = hash64(txn.resolver_ip)
        elif name == "qname":
            value = hash64(txn.qname)
        elif name == "qdots":
            value = txn.qdots
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value

    def _prepare(self):
        """Everything :meth:`FeatureSet.update` applies, as one flat
        tuple: the ``index, rank`` of srvips, srcips and qnamesa, then
        ``source, qtype, qdots``, the response class, the NoError part
        (or None) and the answered part (or None) -- in the layout
        ``update`` unpacks.  Raises ``ValueError`` for a numeric field
        outside its domain, so a bad transaction fails here, before
        any FeatureSet changed."""
        txn = self.txn
        precision = HLL_PRECISION
        qname_hash = self.qname
        head = index_rank(derive64(self.server, 1), precision) \
            + index_rank(derive64(self.resolver, 2), precision) \
            + index_rank(derive64(qname_hash, 3), precision) \
            + (txn.source, txn.qtype, self.qdots)
        if not txn.answered:
            return head + (_UNANSWERED, None, None)
        txn.check_domains()
        delay, size = txn.delay_ms, txn.response_size
        hops = infer_hops(txn.observed_ttl)
        answer_count = txn.answer_count
        ns_count = txn.authority_ns_count
        answered = (answer_count, ns_count, txn.answer_ttls, txn.ns_ttls,
                    _DELAY_INDEX(delay), delay, _HOPS_INDEX(hops), hops,
                    _SIZE_INDEX(size), size)
        response = _RESPONSE_CLASS.get(txn.rcode, _OTHER)
        if response != _NOERROR:
            return head + (response, None, answered)
        qname, qtype = txn.qname, txn.qtype
        psl = default_psl()
        tld = psl.effective_tld(qname)
        esld = psl.effective_sld(qname)
        nodata = answer_count == 0 and ns_count == 0
        ips = ()
        if qtype in _ADDRESS_QTYPES:
            ips = tuple(
                (True,) + index_rank(hash64(address, 8), precision)
                if is_ipv6(address) else
                (False,) + index_rank(hash64(address, 7), precision)
                for address in txn.answer_ips)
        noerror = index_rank(derive64(qname_hash, 4), precision) + (
            index_rank(hash64(tld, 5), precision) if tld else None,
            index_rank(hash64(esld, 6), precision) if esld else None,
            answer_count > 0, ns_count > 0, txn.additional_count > 0,
            nodata, qtype == _AAAA, nodata and qtype == _AAAA,
            txn.edns_do and txn.has_rrsig
            and (answer_count > 0 or ns_count > 0), ips)
        return head + (_NOERROR, noerror, answered)


class FeatureSet:
    """Traffic statistics of one Top-k DNS object: HyperLogLogs of
    :data:`HLL_PRECISION`, the builtin Public Suffix List for the
    tlds/eslds features."""

    __slots__ = (
        "hits", "unans", "ok", "nxd", "rfs", "fail",
        "ok_ans", "ok_ns", "ok_add", "ok_nil", "ok6", "ok6nil", "ok_sec",
        "srvips", "srcips", "_sources",
        "qnamesa", "qnames", "tlds", "eslds", "_qtypes",
        "qdots", "qdots_max", "lvl", "nslvl", "ip4s", "ip6s",
        "ttl", "nsttl", "resp_delays", "network_hops", "resp_size",
    )

    def __init__(self):
        # counters
        self.hits = 0          #: total transactions
        self.unans = 0         #: unanswered queries
        self.ok = 0            #: NoError responses
        self.nxd = 0           #: NXDOMAIN responses
        self.rfs = 0           #: Refused responses
        self.fail = 0          #: ServFail responses
        self.ok_ans = 0        #: NoError with non-empty ANSWER
        self.ok_ns = 0         #: NoError with NS records in AUTHORITY
        self.ok_add = 0        #: NoError with non-empty ADDITIONAL (no OPT)
        self.ok_nil = 0        #: NoError with neither (NoData)
        self.ok6 = 0           #: AAAA queries answered NoError
        self.ok6nil = 0        #: AAAA queries answered NoData
        self.ok_sec = 0        #: DNSSEC-signed responses (DO + RRSIG)
        # cardinality estimates
        self.srvips = HyperLogLog(HLL_PRECISION, seed=1)
        self.srcips = HyperLogLog(HLL_PRECISION, seed=2)
        self._sources = set()
        self.qnamesa = HyperLogLog(HLL_PRECISION, seed=3)
        self.qnames = HyperLogLog(HLL_PRECISION, seed=4)
        self.tlds = HyperLogLog(HLL_PRECISION, seed=5)
        self.eslds = HyperLogLog(HLL_PRECISION, seed=6)
        self._qtypes = set()
        self.ip4s = HyperLogLog(HLL_PRECISION, seed=7)
        self.ip6s = HyperLogLog(HLL_PRECISION, seed=8)
        # averages
        self.qdots = RunningMean()
        #: deepest QNAME seen -- the per-pair qmin evidence of §3.6
        #: (one full-depth query conclusively marks a non-qmin pair)
        self.qdots_max = 0
        self.lvl = RunningMean()
        self.nslvl = RunningMean()
        # top values
        self.ttl = TopValues(16)
        self.nsttl = TopValues(16)
        # histograms
        self.resp_delays = LogHistogram(min_value=_DELAY_MIN)
        self.network_hops = LogHistogram(min_value=_HOPS_MIN)
        self.resp_size = LogHistogram(min_value=_SIZE_MIN)

    # ------------------------------------------------------------------

    def update(self, txn, hashes=None):
        """Fold one :class:`Transaction` into the statistics.

        *hashes* is the transaction's shared :class:`TxnHashes`: when
        the Observatory runs several trackers, the record is prepared
        once and every admitting FeatureSet only applies its values.
        Without one, a fresh record is prepared here.  All-or-nothing:
        preparation validates the transaction before anything below
        mutates state.
        """
        if hashes is None:
            hashes = TxnHashes(txn)
        (srvip_index, srvip_rank, srcip_index, srcip_rank,
         qnamea_index, qnamea_rank, source, qtype, qdots,
         response, noerror, answered) = hashes.prepared
        self.hits += 1
        self.srvips.add_indexed(srvip_index, srvip_rank)
        self.srcips.add_indexed(srcip_index, srcip_rank)
        if len(self._sources) < _MAX_SOURCES:
            self._sources.add(source)
        self.qnamesa.add_indexed(qnamea_index, qnamea_rank)
        if len(self._qtypes) < 256:
            self._qtypes.add(qtype)
        self.qdots.add(qdots)
        if qdots > self.qdots_max:
            self.qdots_max = qdots

        if response == _UNANSWERED:
            self.unans += 1
            return

        if response == _NOERROR:
            (qname_index, qname_rank, tld, esld, ok_ans, ok_ns, ok_add,
             ok_nil, ok6, ok6nil, ok_sec, ips) = noerror
            self.ok += 1
            self.qnames.add_indexed(qname_index, qname_rank)
            if tld is not None:
                self.tlds.add_indexed(*tld)
            if esld is not None:
                self.eslds.add_indexed(*esld)
            if ok_ans:
                self.ok_ans += 1
            if ok_ns:
                self.ok_ns += 1
            if ok_add:
                self.ok_add += 1
            if ok_nil:
                self.ok_nil += 1
            if ok6:
                self.ok6 += 1
                if ok6nil:
                    self.ok6nil += 1
            if ok_sec:
                self.ok_sec += 1
            for is_v6, index, rank in ips:
                if is_v6:
                    self.ip6s.add_indexed(index, rank)
                else:
                    self.ip4s.add_indexed(index, rank)
        elif response == _NXDOMAIN:
            self.nxd += 1
        elif response == _REFUSED:
            self.rfs += 1
        elif response == _SERVFAIL:
            self.fail += 1

        (answer_count, ns_count, answer_ttls, ns_ttls, delay_index, delay,
         hops_index, hops, size_index, size) = answered
        self.lvl.add(answer_count)
        self.nslvl.add(ns_count)
        for ttl in answer_ttls:
            self.ttl.add(ttl)
        for ttl in ns_ttls:
            self.nsttl.add(ttl)
        self.resp_delays.add_indexed(delay_index, delay)
        self.network_hops.add_indexed(hops_index, hops)
        self.resp_size.add_indexed(size_index, size)

    # ------------------------------------------------------------------

    def merge(self, other):
        """Fold another object's statistics into this one.

        Counters add exactly, the HLL sketches merge register-wise
        (yielding byte-identical registers to a single-pass sketch
        over the combined stream), the bounded sets union (subject to
        their caps), running means and histograms add exactly, and the
        top-TTL counters merge with the usual Space-Saving-style
        overestimate.  The pipeline never merges (a sharded run owns
        each dataset in one worker); the ledger's ``features.merge_us``
        row times this.

        Returns self.
        """
        if not isinstance(other, FeatureSet):
            raise TypeError("can only merge FeatureSet instances")
        for name in COUNTER_COLUMNS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.srvips.merge(other.srvips)
        self.srcips.merge(other.srcips)
        self.qnamesa.merge(other.qnamesa)
        self.qnames.merge(other.qnames)
        self.tlds.merge(other.tlds)
        self.eslds.merge(other.eslds)
        self.ip4s.merge(other.ip4s)
        self.ip6s.merge(other.ip6s)
        for source in other._sources:
            if len(self._sources) >= _MAX_SOURCES:
                break
            self._sources.add(source)
        for qtype in other._qtypes:
            if len(self._qtypes) >= 256:
                break
            self._qtypes.add(qtype)
        self.qdots.merge(other.qdots)
        self.lvl.merge(other.lvl)
        self.nslvl.merge(other.nslvl)
        if other.qdots_max > self.qdots_max:
            self.qdots_max = other.qdots_max
        self.ttl.merge(other.ttl)
        self.nsttl.merge(other.nsttl)
        self.resp_delays.merge(other.resp_delays)
        self.network_hops.merge(other.network_hops)
        self.resp_size.merge(other.resp_size)
        return self

    # -- flat-buffer view (state comparison; the ledger's
    #    features.to_buffers_us row) -----------------------------------

    #: sketch-valued fields, in canonical buffer order
    _SKETCH_FIELDS = (
        "srvips", "srcips", "qnamesa", "qnames", "tlds", "eslds",
        "ip4s", "ip6s", "qdots", "lvl", "nslvl", "ttl", "nsttl",
        "resp_delays", "network_hops", "resp_size",
    )

    def to_buffers(self):
        """Serialize to ``(meta, buffers)``: counters and bounded sets
        in *meta*, every child sketch contributing its own
        ``(child_meta, buffer_count)`` pair plus contiguous buffers.
        Like the sketches' views, buffers may alias live state."""
        buffers = []
        children = []
        for name in self._SKETCH_FIELDS:
            child_meta, child_buffers = getattr(self, name).to_buffers()
            children.append((child_meta, len(child_buffers)))
            buffers.extend(child_buffers)
        meta = (
            tuple(getattr(self, name) for name in COUNTER_COLUMNS),
            tuple(self._sources), tuple(self._qtypes), self.qdots_max,
            tuple(children),
        )
        return meta, buffers

    # ------------------------------------------------------------------

    @property
    def sources(self):
        """Number of distinct SIE contributors that saw this object."""
        return len(self._sources)

    @property
    def qtypes(self):
        """Number of distinct QTYPEs in all queries."""
        return len(self._qtypes)

    def as_row(self):
        """Flatten into ``{column: numeric value}`` for the TSV writer."""
        row = {
            "hits": self.hits, "unans": self.unans, "ok": self.ok,
            "nxd": self.nxd, "rfs": self.rfs, "fail": self.fail,
            "ok_ans": self.ok_ans, "ok_ns": self.ok_ns,
            "ok_add": self.ok_add, "ok_nil": self.ok_nil,
            "ok6": self.ok6, "ok6nil": self.ok6nil, "ok_sec": self.ok_sec,
            "srvips": round(self.srvips.cardinality(), 1),
            "srcips": round(self.srcips.cardinality(), 1),
            "sources": self.sources,
            "qnamesa": round(self.qnamesa.cardinality(), 1),
            "qnames": round(self.qnames.cardinality(), 1),
            "tlds": round(self.tlds.cardinality(), 1),
            "eslds": round(self.eslds.cardinality(), 1),
            "qtypes": self.qtypes,
            "qdots": round(self.qdots.mean, 3),
            "qdots_max": self.qdots_max,
            "lvl": round(self.lvl.mean, 3),
            "nslvl": round(self.nslvl.mean, 3),
            "ip4s": round(self.ip4s.cardinality(), 1),
            "ip6s": round(self.ip6s.cardinality(), 1),
        }
        ttl_top = self.ttl.top(3)
        ttl_dist = self.ttl.distribution()
        for i in range(3):
            row["ttl_top%d" % (i + 1)] = ttl_top[i][0] if i < len(ttl_top) else 0
        row["ttl_top1_share"] = round(
            ttl_dist.get(ttl_top[0][0], 0.0), 4) if ttl_top else 0.0
        nsttl_top = self.nsttl.top(1)
        nsttl_dist = self.nsttl.distribution()
        row["nsttl_top1"] = nsttl_top[0][0] if nsttl_top else 0
        row["nsttl_top1_share"] = round(
            nsttl_dist.get(nsttl_top[0][0], 0.0), 4) if nsttl_top else 0.0
        for prefix, hist in (("delay", self.resp_delays),
                             ("hops", self.network_hops),
                             ("size", self.resp_size)):
            q25, q50, q75 = hist.quartiles()
            row["%s_q25" % prefix] = round(q25, 3)
            row["%s_q50" % prefix] = round(q50, 3)
            row["%s_q75" % prefix] = round(q75, 3)
        return row
