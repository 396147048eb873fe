"""Table 2: the top-10 QTYPE profiles.

Reproduces the per-QTYPE columns of Table 2: global share, outcome mix
(data / nodata / nxd / other errors), qdots, distinct TLD/eSLD/FQDN
counts, the valid-name share, top TTL, distinct servers, delay, hops,
and response size.  The paper's headline shapes: A ~3x AAAA, AAAA
NoData ~40x A's, NS traffic dominated by NXDOMAIN, PTR slow and
deep-labelled, TXT with tiny TTLs.
"""

from repro.analysis.seriesops import ranked_keys, total_hits
from repro.analysis.tables import format_percent, format_table


class QtypeRow:
    """One Table 2 row (values over the whole analyzed run)."""

    __slots__ = ("qtype", "hits", "global_share", "data", "nodata", "nxd",
                 "err", "qdots", "tlds", "eslds", "fqdns", "valid", "ttl",
                 "servers", "delay", "hops", "size")

    def __init__(self, qtype, row, total):
        hits = max(row.get("hits", 0), 1)
        ok = row.get("ok", 0)
        nodata = row.get("ok_nil", 0)
        nxd = row.get("nxd", 0)
        self.qtype = qtype
        self.hits = row.get("hits", 0)
        self.global_share = self.hits / total if total else 0.0
        # Outcome shares over *all* transactions of this QTYPE; "err"
        # covers other RCODEs and unanswered queries (paper Table 2).
        self.data = max(ok - nodata, 0) / hits
        self.nodata = nodata / hits
        self.nxd = nxd / hits
        self.err = max(hits - ok - nxd, 0) / hits
        self.qdots = row.get("qdots", 0.0)
        self.tlds = row.get("tlds", 0.0)
        self.eslds = row.get("eslds", 0.0)
        self.fqdns = row.get("qnames", 0.0)
        qnamesa = row.get("qnamesa", 0.0)
        # Cardinality estimates are noisy: clamp the ratio to [0, 1].
        self.valid = min(row.get("qnames", 0.0) / qnamesa, 1.0) \
            if qnamesa else 0.0
        self.ttl = int(row.get("ttl_top1", 0))
        self.servers = row.get("srvips", 0.0)
        self.delay = row.get("delay_q50", 0.0)
        self.hops = row.get("hops_q50", 0.0)
        self.size = row.get("size_q50", 0.0)


def table2(store):
    """Compute Table 2 rows (the ten heaviest QTYPEs) from the stored
    qtype series."""
    rows = store.accumulate("qtype")
    total = total_hits(rows)
    ranked = ranked_keys(rows)[:10]
    return [QtypeRow(name, rows[name], total) for name in ranked], total


def render_table2(qtype_rows):
    table_rows = []
    for i, row in enumerate(qtype_rows, start=1):
        table_rows.append([
            i, row.qtype,
            format_percent(row.global_share),
            format_percent(row.data),
            format_percent(row.nodata),
            format_percent(row.nxd),
            format_percent(row.err),
            "%.1f" % row.qdots,
            int(round(row.tlds)),
            int(round(row.eslds)),
            int(round(row.fqdns)),
            format_percent(row.valid, 0),
            row.ttl,
            int(round(row.servers)),
            "%.0f" % row.delay,
            "%.1f" % row.hops,
            "%.0f" % row.size,
        ])
    return format_table(
        ["#", "QTYPE", "global", "data", "nodata", "nxd", "err", "qdots",
         "TLDs", "eSLDs", "FQDNs", "valid", "TTL", "servers", "delay",
         "hops", "size"],
        table_rows, title="Table 2: Top QTYPEs")
