"""Table 1: top AS organizations by DNS transaction volume.

"We associate each IP address in our Top-100K nameserver list with its
corresponding AS number ... lookup its name using the AS Names dataset
... extract the organization name ... The basic observation we make is
that the IP prefixes managed by just 10 organizations receive more
than half of the world's DNS queries."
"""

from repro.analysis.seriesops import total_hits
from repro.analysis.tables import format_count, format_percent, format_table


class OrgRow:
    """One Table 1 row."""

    __slots__ = ("org", "asns", "hits", "servers", "delay_sum", "hops_sum")

    def __init__(self, org):
        self.org = org
        self.asns = set()
        self.hits = 0.0
        self.servers = 0
        self.delay_sum = 0.0
        self.hops_sum = 0.0

    @property
    def mean_delay(self):
        return self.delay_sum / self.hits if self.hits else 0.0

    @property
    def mean_hops(self):
        return self.hops_sum / self.hits if self.hits else 0.0


def table1(store, asdb, asnames, top_orgs):
    """Compute Table 1 from the stored srvip series and the AS
    databases.

    Returns ``(rows, total_traffic, attributed_traffic)`` where rows
    are the *top_orgs* heaviest :class:`OrgRow` (the paper's table has
    10), ranked by transaction volume.
    """
    rows = store.accumulate("srvip")
    total = total_hits(rows)
    orgs = {}
    attributed = 0.0
    for server_ip, row in rows.items():
        asn = asdb.lookup(server_ip)
        org_name = asnames.org(asn)
        org = orgs.get(org_name)
        if org is None:
            org = OrgRow(org_name)
            orgs[org_name] = org
        if asn is not None:
            org.asns.add(asn)
        hits = row.get("hits", 0)
        org.hits += hits
        org.servers += 1
        org.delay_sum += row.get("delay_q50", 0.0) * hits
        org.hops_sum += row.get("hops_q50", 0.0) * hits
        attributed += hits
    ranked = sorted(orgs.values(), key=lambda o: (-o.hits, o.org))
    return ranked[:top_orgs], total, attributed


def top_share(ranked_rows, total):
    """Combined traffic share of the listed organizations."""
    if not total:
        return 0.0
    return sum(row.hits for row in ranked_rows) / total


def render_table1(ranked_rows, total):
    lines = []
    table_rows = []
    for i, org in enumerate(ranked_rows, start=1):
        table_rows.append([
            i, org.org, len(org.asns),
            format_percent(org.hits / total if total else 0.0),
            format_count(org.servers),
            "%.1f" % org.mean_delay,
            "%.1f" % org.mean_hops,
        ])
    lines.append(format_table(
        ["#", "Name", "ASes", "global", "servers", "delay", "hops"],
        table_rows, title="Table 1: Top AS organizations"))
    lines.append("combined share of listed orgs: %s"
                 % format_percent(top_share(ranked_rows, total)))
    return "\n".join(lines)
