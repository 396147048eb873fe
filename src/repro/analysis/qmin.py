"""Section 3.6 / Table 3: detecting QNAME minimization deployment.

The paper's method: inspect the QNAMEs each resolver sends to root and
TLD nameservers.  A resolver that ever sends >1 label to a root server
is non-qmin; >2 labels to a TLD server is non-qmin (with a whitelist
allowing 3 labels for TLD zones hosting multi-label suffixes like
co.uk).  Only negative evidence is conclusive; resolvers that never
exceed the limits are *possible* qmin deployments.  The strict
"100 % of queries" notion explains why the paper finds far less qmin
than DeVries et al.'s 97 %-threshold method.
"""

from repro.analysis.tables import format_percent, format_table
from repro.dnswire.name import count_labels


class QminDetector:
    """Stream detector of per-resolver qmin behaviour.

    Parameters
    ----------
    root_ips / tld_ips:
        Sets of root and TLD nameserver IPs (from root-zone data in
        the real system; from simulation ground truth here).
    tld_whitelist_labels:
        Optional ``{tld_server_ip: max_labels}`` overrides for
        registries hosting multi-label suffixes (default limit is 2,
        whitelisted servers allow 3).
    """

    def __init__(self, root_ips, tld_ips, whitelisted_tld_ips=()):
        self.root_ips = frozenset(root_ips)
        self.tld_ips = frozenset(tld_ips)
        self.whitelisted_tld_ips = frozenset(whitelisted_tld_ips)
        #: resolver -> max labels ever sent to a root server
        self.root_max_labels = {}
        #: resolver -> max labels ever sent to a TLD server
        self.tld_max_labels = {}
        #: per-resolver query counts to root/TLD servers
        self.root_queries = {}
        self.tld_queries = {}
        self.total_root_queries = 0
        self.total_tld_queries = 0

    def observe(self, txn):
        """Feed one transaction."""
        labels = count_labels(txn.qname)
        resolver = txn.resolver_ip
        if txn.server_ip in self.root_ips:
            self.total_root_queries += 1
            self.root_queries[resolver] = \
                self.root_queries.get(resolver, 0) + 1
            if labels > self.root_max_labels.get(resolver, 0):
                self.root_max_labels[resolver] = labels
        elif txn.server_ip in self.tld_ips:
            self.total_tld_queries += 1
            self.tld_queries[resolver] = \
                self.tld_queries.get(resolver, 0) + 1
            limit_key = (resolver, txn.server_ip)
            effective = labels
            if txn.server_ip in self.whitelisted_tld_ips:
                effective = max(labels - 1, 0)  # allow one extra label
            if effective > self.tld_max_labels.get(resolver, 0):
                self.tld_max_labels[resolver] = effective

    # -- classification ------------------------------------------------

    def non_qmin_resolvers_root(self):
        """Resolvers with conclusive non-qmin evidence at the root."""
        return sorted(r for r, labels in self.root_max_labels.items()
                      if labels > 1)

    def possible_qmin_resolvers_root(self):
        """Resolvers that only ever sent <=1 label to root servers."""
        return sorted(r for r, labels in self.root_max_labels.items()
                      if labels <= 1)

    def non_qmin_resolvers_tld(self):
        return sorted(r for r, labels in self.tld_max_labels.items()
                      if labels > 2)

    def possible_qmin_resolvers_tld(self):
        return sorted(r for r, labels in self.tld_max_labels.items()
                      if labels <= 2)

    def cross_check(self, resolvers):
        """Paper's cross-check: drop candidates that show non-qmin
        behaviour towards the *other* level."""
        non_qmin = set(self.non_qmin_resolvers_root()) | \
            set(self.non_qmin_resolvers_tld())
        return sorted(set(resolvers) - non_qmin)

    def qmin_traffic_shares(self):
        """Share of root/TLD queries sent by possible-qmin resolvers."""
        qmin_root = self.cross_check(self.possible_qmin_resolvers_root())
        qmin_tld = self.cross_check(self.possible_qmin_resolvers_tld())
        root_q = sum(self.root_queries.get(r, 0) for r in qmin_root)
        tld_q = sum(self.tld_queries.get(r, 0) for r in qmin_tld)
        return {
            "root": root_q / self.total_root_queries
            if self.total_root_queries else 0.0,
            "tld": tld_q / self.total_tld_queries
            if self.total_tld_queries else 0.0,
        }


def detect_qmin(transactions, root_ips, tld_ips, whitelisted_tld_ips=()):
    """Run the detector over a transaction iterable."""
    detector = QminDetector(root_ips, tld_ips, whitelisted_tld_ips)
    for txn in transactions:
        detector.observe(txn)
    return detector


def detect_qmin_from_srcsrv(store, root_ips, tld_ips,
                            whitelisted_tld_ips=()):
    """Run the detection from the *aggregated* srcsrv series of
    *store*.

    This is how the production platform works: the srcsrv rows (§3.1,
    "Top-30K pairs of resolvers and nameservers") carry the
    ``qdots_max`` feature -- the deepest QNAME the pair ever
    exchanged -- which is exactly the Table 3 evidence, without
    keeping raw transactions around.
    """
    detector = QminDetector(root_ips, tld_ips, whitelisted_tld_ips)
    for key, row in store.accumulate("srcsrv").items():
        resolver_ip, _, server_ip = key.partition("|")
        labels = int(row.get("qdots_max", 0))
        hits = int(row.get("hits", 0))
        if server_ip in detector.root_ips:
            detector.total_root_queries += hits
            detector.root_queries[resolver_ip] = \
                detector.root_queries.get(resolver_ip, 0) + hits
            if labels > detector.root_max_labels.get(resolver_ip, 0):
                detector.root_max_labels[resolver_ip] = labels
        elif server_ip in detector.tld_ips:
            effective = labels
            if server_ip in detector.whitelisted_tld_ips:
                effective = max(labels - 1, 0)
            detector.total_tld_queries += hits
            detector.tld_queries[resolver_ip] = \
                detector.tld_queries.get(resolver_ip, 0) + hits
            if effective > detector.tld_max_labels.get(resolver_ip, 0):
                detector.tld_max_labels[resolver_ip] = effective
    return detector


#: The Table 3 decision matrix, rendered as data: sent QNAME depth ->
#: what each authority level lets us conclude ('?' undecidable, 'x'
#: conclusively non-qmin).
TABLE3_MATRIX = (
    ("com", "?", "?", "?"),
    ("example.com", "x", "?", "?"),
    ("www.example.com", "x", "x", "?"),
)


def render_table3(detector):
    lines = [format_table(
        ["Sent QNAME", "Root NS", "TLD NS", "Other NS"],
        TABLE3_MATRIX, title="Table 3: qmin detection matrix")]
    qmin_root = detector.cross_check(detector.possible_qmin_resolvers_root())
    qmin_tld = detector.cross_check(detector.possible_qmin_resolvers_tld())
    shares = detector.qmin_traffic_shares()
    lines.append("possible qmin resolvers (root evidence): %d"
                 % len(qmin_root))
    lines.append("possible qmin resolvers (TLD evidence):  %d"
                 % len(qmin_tld))
    lines.append("non-qmin resolvers: %d"
                 % len(set(detector.non_qmin_resolvers_root())
                       | set(detector.non_qmin_resolvers_tld())))
    lines.append("qmin share of root traffic: %s"
                 % format_percent(shares["root"], 3))
    lines.append("qmin share of TLD traffic:  %s"
                 % format_percent(shares["tld"], 3))
    return "\n".join(lines)
