"""Dataset key definitions (the Section 3.1 collected datasets).

"A DNS object is any entity within the DNS, identified with a textual
key: the value of any transaction detail, or a combination thereof."
(Section 2.2.)  Each :class:`DatasetSpec` names a dataset, gives its
key extractor (transaction -> key string, or None to skip the
transaction), an optional pre-filter, and the default Top-k size.

The registry :data:`DATASETS` mirrors the paper's list:

* ``srvip``  -- Top nameserver IPs (the primary objects);
* ``etld``   -- Top effective TLDs, *including* NXDOMAIN traffic;
* ``esld``   -- Top effective SLDs;
* ``qname``  -- Top FQDNs;
* ``qtype``  -- all QTYPE aggregations;
* ``rcode``  -- all RCODE aggregations;
* ``aafqdn`` -- Top FQDNs in authoritative answers (AA flag set, used
  for the TTL-change detection of Section 4.2);
* ``srcsrv`` -- Top (resolver, nameserver) pairs (used for the QNAME
  minimization study of Section 3.6).

Paper-scale k values (100K/10K/...) are scaled down by default; every
spec's ``k`` can be overridden when instantiating the Observatory.
"""

import sys

from repro.dnswire.constants import RCODE
from repro.dnswire.psl import default_psl
from repro.memo import BoundedMemo

#: memo-miss sentinel (None is a valid memoized result: "filtered out")
_MISSING = object()

#: entries a batch extractor's ``attr value -> key`` memo holds before
#: it is cleared wholesale (counted as a ``key`` clear, :mod:`repro.memo`)
MEMO_LIMIT = 100_000


class DatasetSpec:
    """Specification of one Top-k aggregation dataset.

    Beyond the basic ``key_fn`` contract, two optional fields let the
    hot path specialize extraction per dataset:

    ``key_factory``
        ``psl -> key_fn``: builds an extractor with the Public Suffix
        List pre-bound, so PSL-based datasets skip the per-transaction
        ``default_psl()`` resolution.
    ``cache_key_attr``
        Name of the single transaction attribute that fully determines
        the key (e.g. ``"qname"`` for eTLD extraction).  When set, the
        tracker memoizes ``attr value -> key`` -- the stream repeats
        popular names millions of times, so suffix matching runs once
        per distinct name instead of once per transaction.
    """

    def __init__(self, name, key_fn, k, description="", filter_fn=None,
                 key_factory=None, cache_key_attr=None):
        #: dataset identifier (also the TSV file prefix)
        self.name = name
        #: transaction -> key string (None skips the transaction)
        self.key_fn = key_fn
        #: default Top-k cache size
        self.k = int(k)
        #: human-readable description
        self.description = description
        #: optional pre-filter, transaction -> bool
        self.filter_fn = filter_fn
        #: optional psl -> key_fn specialization
        self.key_factory = key_factory
        #: optional txn attribute name that determines the key
        self.cache_key_attr = cache_key_attr

    def extract(self, txn):
        """Return the key for *txn*, or None when filtered out."""
        if self.filter_fn is not None and not self.filter_fn(txn):
            return None
        return self.key_fn(txn)

    def make_batch_extractor(self, psl):
        """Build a batch extractor: ``txns -> [key-or-None, ...]``.

        The fast form of :meth:`extract`, with *psl* bound (when the
        dataset uses one): one call per batch instead of one per
        transaction.  For memoizable datasets (``cache_key_attr`` set,
        no pre-filter) the loop runs against a local binding of a
        :data:`MEMO_LIMIT`-bounded ``attr value -> key`` memo (cleared
        wholesale when full, like the PSL's own cache) with interned
        keys -- every
        hit returns the singleton, so the Space-Saving dict compares
        by pointer first -- and the steady-state per-transaction cost
        is one attribute read and one dict hit, no Python-level
        function call at all.
        """
        if self.key_factory is not None:
            key_fn = self.key_factory(psl)
        else:
            key_fn = self.key_fn
        filter_fn = self.filter_fn
        if self.cache_key_attr is not None and filter_fn is None:
            attr = self.cache_key_attr
            cache = BoundedMemo("key")
            intern = sys.intern

            def extract_batch(txns):
                cache_get = cache.get
                keys = []
                append = keys.append
                for txn in txns:
                    value = getattr(txn, attr)
                    key = cache_get(value, _MISSING)
                    if key is _MISSING:
                        key = key_fn(txn)
                        if key is not None:
                            key = intern(key)
                        cache.put(value, key, MEMO_LIMIT)
                    append(key)
                return keys

            return extract_batch
        if filter_fn is not None:
            def extract_batch(txns):
                return [key_fn(txn) if filter_fn(txn) else None
                        for txn in txns]

            return extract_batch

        def extract_batch(txns):
            return [key_fn(txn) for txn in txns]

        return extract_batch

    def __repr__(self):
        return "DatasetSpec(%r, k=%d)" % (self.name, self.k)


# -- key extractors ----------------------------------------------------

def key_srvip(txn):
    """Authoritative nameserver IP address."""
    return txn.server_ip


def key_qname(txn):
    """Full QNAME."""
    return txn.qname or "."


def key_etld(txn):
    """Effective TLD of the QNAME (NXDOMAIN traffic included)."""
    return default_psl().effective_tld(txn.qname)


def key_etld_factory(psl):
    """PSL-bound eTLD extractor (hot-path specialization)."""
    effective_tld = psl.effective_tld

    def key(txn):
        return effective_tld(txn.qname)

    return key


def key_esld(txn):
    """Effective SLD of the QNAME; falls back to the eTLD for names
    that are themselves public suffixes (so the traffic is not lost)."""
    psl = default_psl()
    esld = psl.effective_sld(txn.qname)
    return esld if esld is not None else psl.effective_tld(txn.qname)


def key_esld_factory(psl):
    """PSL-bound eSLD extractor (hot-path specialization)."""
    effective_sld = psl.effective_sld
    effective_tld = psl.effective_tld

    def key(txn):
        esld = effective_sld(txn.qname)
        return esld if esld is not None else effective_tld(txn.qname)

    return key


def key_qtype(txn):
    """QTYPE mnemonic (A, AAAA, PTR, ...)."""
    return txn.qtype_name()


def key_rcode(txn):
    """RCODE mnemonic, or UNANSWERED."""
    if not txn.answered:
        return "UNANSWERED"
    return RCODE.name_of(txn.rcode)


def key_aafqdn(txn):
    """QNAME + QTYPE of authoritative answers (AA set, NoError with
    data or delegation) -- the Section 4.2 aafqdn dataset.

    The qtype is part of the key so that each object's TTL
    distribution is homogeneous ("we analyze the TTL distribution of
    its A and NS records", §4.2): mixing the A and MX TTLs of one name
    in one top-TTL feature would fabricate TTL 'changes' whenever the
    traffic mix shifts.
    """
    return "%s|%s" % (txn.qname or ".", txn.qtype_name())


def filter_aafqdn(txn):
    return txn.aa and txn.noerror and (
        txn.answer_count > 0 or txn.authority_ns_count > 0
    )


def key_srcsrv(txn):
    """Combined resolver|nameserver pair key."""
    return "%s|%s" % (txn.resolver_ip, txn.server_ip)


#: The §3.1 dataset registry.  k values follow DESIGN.md's scale map.
DATASETS = {
    "srvip": DatasetSpec(
        "srvip", key_srvip, k=2000,
        description="Top authoritative nameserver IPs"),
    "etld": DatasetSpec(
        "etld", key_etld, k=500,
        description="Top effective TLDs (incl. NXDOMAIN)",
        key_factory=key_etld_factory, cache_key_attr="qname"),
    "esld": DatasetSpec(
        "esld", key_esld, k=3000,
        description="Top effective SLDs",
        key_factory=key_esld_factory, cache_key_attr="qname"),
    "qname": DatasetSpec(
        "qname", key_qname, k=5000,
        description="Top FQDNs"),
    "qtype": DatasetSpec(
        "qtype", key_qtype, k=64,
        description="All QTYPE aggregations",
        cache_key_attr="qtype"),
    "rcode": DatasetSpec(
        "rcode", key_rcode, k=16,
        description="All RCODE aggregations"),
    "aafqdn": DatasetSpec(
        "aafqdn", key_aafqdn, k=2000, filter_fn=filter_aafqdn,
        description="Top FQDNs in authoritative answers"),
    "srcsrv": DatasetSpec(
        "srcsrv", key_srcsrv, k=3000,
        description="Top resolver-nameserver pairs"),
}


def make_dataset(name, k=None):
    """Return a copy of the registered spec, optionally resized."""
    base = DATASETS[name]
    return DatasetSpec(base.name, base.key_fn, k if k is not None else base.k,
                       base.description, base.filter_fn,
                       key_factory=base.key_factory,
                       cache_key_attr=base.cache_key_attr)
