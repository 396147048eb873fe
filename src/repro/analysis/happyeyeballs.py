"""Figure 9 and Section 5: Happy Eyeballs vs negative-caching TTLs.

For the top FQDNs by traffic, relate:

* the share of all responses that are *empty AAAA* (AAAA NoData --
  the ok6nil feature), and
* the quotient ``A-record TTL / negative-caching TTL`` -- "the larger
  the quotient the more likely many empty AAAA responses".

Also reproduces Section 5.3: after a domain publishes AAAA records,
its empty-AAAA share collapses while total query volume stays roughly
flat when negTTL ~ TTL.
"""

from repro.analysis.seriesops import epoch_ranges, ranked_keys
from repro.analysis.tables import format_percent, format_table


class FqdnHappyEyeballs:
    """One Figure 9 point."""

    __slots__ = ("fqdn", "rank", "hits", "empty_aaaa_share", "a_ttl",
                 "neg_ttl", "quotient", "aaaa_queries", "aaaa_data")

    def __init__(self, fqdn, rank, row, neg_ttl, horizon=None):
        self.fqdn = fqdn
        self.rank = rank
        self.hits = row.get("hits", 0)
        answered = max(self.hits - row.get("unans", 0), 1)
        self.empty_aaaa_share = row.get("ok6nil", 0) / answered
        self.a_ttl = row.get("ttl_top1", 0) or 0
        self.neg_ttl = neg_ttl
        # Over an analysis horizon H, any TTL >= H produces at most one
        # upstream query per resolver, so the *effective* quotient
        # clamps both TTLs to H (matters only for short runs; the
        # paper's 1-month horizon dwarfs all TTLs).
        eff_a = min(self.a_ttl, horizon) if horizon else self.a_ttl
        eff_neg = min(neg_ttl, horizon) if horizon else neg_ttl
        self.quotient = (eff_a / eff_neg) if eff_neg else 0.0
        #: AAAA NoError responses and those that carried data
        self.aaaa_queries = row.get("ok6", 0)
        self.aaaa_data = max(self.aaaa_queries - row.get("ok6nil", 0), 0)

    @property
    def ipv4_only(self):
        """AAAA queries observed, essentially none answered with data."""
        return (self.aaaa_queries > 0
                and self.aaaa_data <= 0.01 * self.aaaa_queries)


def figure9(store, negttl_lookup, top_n=200, horizon=None):
    """Compute the Figure 9 series for the top-*top_n* FQDNs.

    *negttl_lookup(fqdn)* returns the domain's negative-caching TTL
    (SOA minimum) -- ground truth from the simulation, or a DNSDB /
    active-lookup source in a real deployment.  *horizon* (seconds)
    clamps TTLs to the analyzed duration when computing quotients.
    """
    rows = store.accumulate("qname")
    ranked = ranked_keys(rows)[:top_n]
    points = []
    for rank, fqdn in enumerate(ranked, start=1):
        neg_ttl = negttl_lookup(fqdn)
        if neg_ttl is None:
            continue
        points.append(FqdnHappyEyeballs(fqdn, rank, rows[fqdn], neg_ttl,
                                        horizon=horizon))
    return points


def high_empty_fqdns(points, threshold=0.70):
    """FQDNs whose responses are mostly empty AAAA (the paper finds 5
    above 70 % in the top 200)."""
    return [p for p in points if p.empty_aaaa_share > threshold]


def quotient_correlation(points):
    """The paper's qualitative claim: large TTL/negTTL quotients go
    with large empty-AAAA shares.  Computed among IPv4-only FQDNs
    (domains with AAAA data have near-zero empty shares regardless of
    the quotient).  Returns the mean empty share for high-quotient vs
    low-quotient FQDNs, split at a quotient of 2."""
    v4only = [p for p in points if p.ipv4_only and p.a_ttl > 0]
    high = [p.empty_aaaa_share for p in v4only
            if p.quotient >= 2.0]
    low = [p.empty_aaaa_share for p in v4only
           if p.quotient < 2.0]
    return {
        "high_quotient_mean_share": sum(high) / len(high) if high else 0.0,
        "low_quotient_mean_share": sum(low) / len(low) if low else 0.0,
        "high_quotient_count": len(high),
        "low_quotient_count": len(low),
    }


def ipv6_rollout(store, fqdn, rollout_ts):
    """Section 5.3: empty-AAAA share and query volume before/after a
    domain enables IPv6 (epochs split at *rollout_ts*)."""
    result = {}
    for label, (start, end) in zip(("before", "after"),
                                   epoch_ranges(rollout_ts)):
        row = store.accumulate("qname", start_ts=start,
                               end_ts=end).get(fqdn, {})
        hits = row.get("hits", 0)
        answered = max(hits - row.get("unans", 0), 1)
        windows = len(store.select("qname", start_ts=start,
                                   end_ts=end)) or 1
        result[label] = {
            "hits_per_window": hits / windows,
            "empty_aaaa_share": row.get("ok6nil", 0) / answered,
            # AAAA responses actually carrying addresses:
            "aaaa_data_share": max(
                row.get("ok6", 0) - row.get("ok6nil", 0), 0) / answered,
        }
    return result


def render_figure9(points):
    interesting = sorted(points, key=lambda p: -p.empty_aaaa_share)[:10]
    rows = [(p.rank, p.fqdn, format_percent(p.empty_aaaa_share),
             p.a_ttl, p.neg_ttl, "%.1f" % p.quotient)
            for p in interesting]
    lines = [format_table(
        ["rank", "FQDN", "empty AAAA", "A TTL", "negTTL", "quotient"],
        rows, title="Figure 9: empty AAAA responses vs negative TTL")]
    high = high_empty_fqdns(points)
    lines.append("FQDNs with >%s empty AAAA: %d of %d"
                 % (format_percent(0.70, 0), len(high),
                    len(points)))
    corr = quotient_correlation(points)
    lines.append(
        "mean empty share: quotient>=2 -> %s (n=%d); quotient<2 -> %s (n=%d)"
        % (format_percent(corr["high_quotient_mean_share"]),
           corr["high_quotient_count"],
           format_percent(corr["low_quotient_mean_share"]),
           corr["low_quotient_count"]))
    return "\n".join(lines)


def render_ipv6_rollout(result, fqdn):
    rows = []
    for label in ("before", "after"):
        r = result[label]
        rows.append([label, "%.1f" % r["hits_per_window"],
                     format_percent(r["empty_aaaa_share"]),
                     format_percent(r["aaaa_data_share"])])
    return format_table(
        ["epoch", "queries/win", "empty AAAA", "AAAA with data"],
        rows, title="Section 5.3: IPv6 rollout for %s" % fqdn)
