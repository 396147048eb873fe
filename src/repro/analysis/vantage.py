"""Per-country / per-ASN vantage indices (the vantage-point study).

The paper's per-AS breakdowns (Table 1) assume one privileged passive
vantage.  This module asks the world-observer question instead: *from
where you stand, how well does each network neighbourhood answer?*
Every flushed ``srvip`` window is regrouped by the announcing ASN and
its registration country (via an :class:`~repro.netsim.asdb.
AsDatabase`-backed :class:`VantageDb`), and two bounded indices are
computed per group:

* **reachability score** -- the answered fraction of transactions to
  the group's nameservers, in ``[0, 1]``;
* **time-to-answer index** -- ``1 / (1 + delay / 100 ms)`` of the
  hits-weighted median response delay, in ``(0, 1]``: 1.0 means
  answers come back instantly, 0.5 means a 100 ms median, long tails
  asymptote to 0.

The derived ``_vantage_asn`` / ``_vantage_cc`` meta-datasets ride the
normal TSV/segments/serving chain (``/vantage`` on the HTTP API) and
are byte-identical between sharded and single-process runs: the
derivation is a pure function of the emitted ``srvip`` dump, whose
cells are the values its file holds -- so the indices are exactly
reproducible from the ``srvip`` files alone.
"""

from repro.netsim.asdb import AsDatabase
from repro.observatory.tsv import TimeSeriesData, escape_key, unescape_key

#: derived meta-dataset names (reserved, like ``_platform``)
VANTAGE_ASN_DATASET = "_vantage_asn"
VANTAGE_CC_DATASET = "_vantage_cc"
VANTAGE_DATASETS = (VANTAGE_ASN_DATASET, VANTAGE_CC_DATASET)

#: group keys for addresses no prefix covers
UNROUTED_ASN_KEY = "AS0"
UNROUTED_CC_KEY = "--"

#: delay (ms) at which the time-to-answer index reads 0.5
TTA_HALF_MS = 100.0

#: derived row schema
VANTAGE_COLUMNS = [
    "hits", "unans", "answered", "servers", "reach", "tta", "delay_ms",
]


def _clamp01(value):
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return value


def reachability_score(hits, unans):
    """Answered fraction in ``[0, 1]``; 0.0 on a zero-traffic group."""
    hits = float(hits)
    if hits <= 0:
        return 0.0
    return _clamp01((hits - float(unans)) / hits)


def time_to_answer_index(delay_ms):
    """``1 / (1 + delay / TTA_HALF_MS)`` clamped to ``[0, 1]``.

    Negative or NaN-ish delays (hostile input) clamp rather than
    crash: the index is a ranking signal, not a measurement.
    """
    delay_ms = float(delay_ms)
    if not delay_ms >= 0.0:  # catches negatives and NaN
        return 1.0
    return _clamp01(1.0 / (1.0 + delay_ms / TTA_HALF_MS))


class VantageDb:
    """Prefix -> (ASN, country, org) attribution for vantage grouping.

    A thin layer over the Route-Views-style
    :class:`~repro.netsim.asdb.AsDatabase` longest-prefix match,
    adding the per-ASN registration country and organization name the
    vantage indices group by.  Populated from the simulator topology
    (:meth:`from_topology`) or a TSV snapshot (:meth:`from_tsv`,
    written by ``simulate --vantage-db``).
    """

    def __init__(self):
        self.asdb = AsDatabase()
        #: ASN -> (country, org)
        self._info = {}
        #: registration order of (prefix, asn) pairs, for to_tsv
        self._prefixes = []

    def __len__(self):
        return len(self._info)

    def add(self, prefix, asn, country=UNROUTED_CC_KEY, org=""):
        """Register *prefix* as announced by *asn* in *country*."""
        asn = int(asn)
        self.asdb.add_prefix(prefix, asn)
        self._prefixes.append((prefix, asn))
        self._info[asn] = (str(country), str(org))

    def lookup(self, address):
        """Return ``(asn, country, org)``; ``(None, None, None)`` for
        unrouted addresses."""
        asn = self.asdb.lookup(address)
        if asn is None:
            return (None, None, None)
        country, org = self._info.get(asn, (UNROUTED_CC_KEY, ""))
        return (asn, country, org)

    @classmethod
    def from_topology(cls, topology):
        """Build from a simulator :class:`~repro.simulation.topology.
        Topology` (both IPv4 and IPv6 prefixes, all orgs)."""
        db = cls()
        for name in sorted(topology.orgs):
            org = topology.orgs[name]
            for asn, prefix in zip(org.asns, org.prefixes):
                db.add(prefix, asn,
                       topology.countries.get(asn, UNROUTED_CC_KEY),
                       org.name)
            for asn, prefix in zip(org.asns, org.v6_prefixes):
                db.add(prefix, asn,
                       topology.countries.get(asn, UNROUTED_CC_KEY),
                       org.name)
        return db

    # -- TSV snapshot ---------------------------------------------------

    def to_tsv(self, path):
        """Write ``prefix<TAB>asn<TAB>country<TAB>org`` lines.

        Country and org are attacker-adjacent free text (real AS
        registries contain anything), so both are escaped with the
        series-key escapes -- a hostile org name cannot produce a
        field or line break.
        """
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("#prefix\tasn\tcountry\torg\n")
            for prefix, asn in self._prefixes:
                country, org = self._info[asn]
                fh.write("%s\t%d\t%s\t%s\n" % (
                    prefix, asn, escape_key(country), escape_key(org)))
        return path

    @classmethod
    def from_tsv(cls, path):
        """Inverse of :meth:`to_tsv`."""
        db = cls()
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                fields = line.split("\t")
                if len(fields) != 4:
                    raise ValueError(
                        "malformed vantage-db line: %r" % (line,))
                prefix, asn, country, org = fields
                db.add(prefix, int(asn), unescape_key(country),
                       unescape_key(org))
        return db


class _Group:
    """One ASN's or country's accumulation over a window."""

    __slots__ = ("hits", "unans", "servers", "delay_weight")

    def __init__(self):
        self.hits = 0.0
        self.unans = 0.0
        self.servers = 0
        #: sum of hits * delay_q50, for the hits-weighted mean
        self.delay_weight = 0.0

    def row(self):
        answered = max(self.hits - self.unans, 0.0)
        delay_ms = (self.delay_weight / self.hits) if self.hits > 0 \
            else 0.0
        return {
            "hits": self.hits,
            "unans": self.unans,
            "answered": answered,
            "servers": self.servers,
            "reach": reachability_score(self.hits, self.unans),
            "tta": time_to_answer_index(delay_ms),
            "delay_ms": delay_ms,
        }


class VantageEmitter:
    """Derive ``_vantage_asn`` / ``_vantage_cc`` dumps from ``srvip``.

    Hooked into the pipeline sinks: every emitted window of *source*
    produces two derived windows that flow through the same sink (and
    hence TSV/serving chain).  Derivation reads the source window's
    cells -- the values its file holds -- and is deterministic and
    side-effect free, so the sharded and single-process paths, whose
    *source* dumps are byte-identical, emit byte-identical vantage
    series too.
    """

    def __init__(self, db, source="srvip"):
        self.db = db
        #: dataset whose dumps feed the derivation
        self.source = source
        #: derived windows so far (observability)
        self.windows_derived = 0

    def derive(self, dump):
        """Return the ``[_vantage_asn, _vantage_cc]`` dumps for one
        *source* window (empty list for a zero-row window)."""
        if not dump.keys:
            return []
        by_asn = {}
        by_cc = {}
        for key, hits, unans, delay in zip(
                dump.keys, dump.column("hits"), dump.column("unans"),
                dump.column("delay_q50")):
            asn, country, _org = self.db.lookup(key)
            if asn is None:
                asn_key, cc_key = UNROUTED_ASN_KEY, UNROUTED_CC_KEY
            else:
                asn_key, cc_key = "AS%d" % asn, country
            for groups, group_key in ((by_asn, asn_key), (by_cc, cc_key)):
                group = groups.get(group_key)
                if group is None:
                    group = groups[group_key] = _Group()
                group.hits += hits
                group.unans += unans
                group.servers += 1
                group.delay_weight += hits * delay
        self.windows_derived += 1
        dumps = []
        for dataset, groups in ((VANTAGE_ASN_DATASET, by_asn),
                                (VANTAGE_CC_DATASET, by_cc)):
            rows = [(key, groups[key].row()) for key in sorted(groups)]
            dumps.append(TimeSeriesData(
                dataset, "minutely", dump.start_ts,
                columns=VANTAGE_COLUMNS, rows=rows,
                stats={"seen": dump.stats.get("seen", 0),
                       "kept": len(rows)}))
        return dumps
