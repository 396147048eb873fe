"""Figure 3: response delays and network hops.

Four panels:

a) CDF of per-nameserver median delays, split into the paper's four
   regimes (0-5 ms co-located, 5-35 ms regional, 35-350 ms distant,
   >350 ms impaired);
b) nameserver rank vs delay and hop count in groups of neighbouring
   ranks -- the "popular nameservers are faster and closer" result;
c) the 13 root letters: delay quartiles + hops, plus the 96.2 %-NXD
   observation;
d) the 13 gTLD letters, grouped behaviour with B fastest.
"""

from repro.analysis.seriesops import ranked_keys, total_hits
from repro.analysis.tables import format_percent, format_table

#: Figure 3a regime boundaries in milliseconds.
DELAY_SECTIONS = ((0.0, 5.0), (5.0, 35.0), (35.0, 350.0), (350.0, None))


def delay_cdf(store):
    """Panel (a): sorted per-nameserver median delays + section shares.

    Returns ``(sorted_delays, section_shares)``.
    """
    rows = store.accumulate("srvip")
    delays = sorted(
        row.get("delay_q50", 0.0) for row in rows.values()
        if row.get("hits", 0) > 0 and (row.get("hits", 0) - row.get("unans", 0)) > 0
    )
    n = len(delays) or 1
    shares = []
    for low, high in DELAY_SECTIONS:
        count = sum(1 for d in delays
                    if d >= low and (high is None or d < high))
        shares.append(count / n)
    return delays, shares


def rank_vs_delay(store, group_size):
    """Panel (b): mean delay and hops per group of *group_size*
    neighbouring ranks (the paper's figure groups 100).

    Returns a list of ``(rank_start, mean_delay, mean_hops)``.
    """
    rows = store.accumulate("srvip")
    ranked = ranked_keys(rows)
    groups = []
    for start in range(0, len(ranked), group_size):
        chunk = ranked[start:start + group_size]
        if not chunk:
            break
        delay = sum(rows[k].get("delay_q50", 0.0) for k in chunk) / len(chunk)
        hops = sum(rows[k].get("hops_q50", 0.0) for k in chunk) / len(chunk)
        groups.append((start + 1, delay, hops))
    return groups


def popularity_speed_correlation(groups):
    """Spearman-style sign check: do delays grow with rank?

    Returns the fraction of adjacent group pairs where the later
    (less popular) group is slower -- >0.5 means the paper's pattern.
    """
    if len(groups) < 2:
        return 0.5
    worse = sum(1 for a, b in zip(groups, groups[1:]) if b[1] >= a[1])
    return worse / (len(groups) - 1)


class LetterStats:
    """Per root/gTLD letter delay and traffic statistics."""

    __slots__ = ("letter", "ip", "delay_q25", "delay_q50", "delay_q75",
                 "hops", "hits", "nxd_share")

    def __init__(self, letter, ip, row):
        hits = row.get("hits", 0)
        self.letter = letter
        self.ip = ip
        self.delay_q25 = row.get("delay_q25", 0.0)
        self.delay_q50 = row.get("delay_q50", 0.0)
        self.delay_q75 = row.get("delay_q75", 0.0)
        self.hops = row.get("hops_q50", 0.0)
        self.hits = hits
        answered = max(hits - row.get("unans", 0), 1)
        self.nxd_share = row.get("nxd", 0) / answered


def letter_stats(store, letter_ips):
    """Panels (c)/(d): stats for a {letter: ip} map (root or gTLD)."""
    rows = store.accumulate("srvip")
    stats = []
    for letter in sorted(letter_ips):
        ip = letter_ips[letter]
        row = rows.get(ip)
        if row is None:
            continue
        stats.append(LetterStats(letter, ip, row))
    return stats


def hierarchy_shares(store, letter_ips):
    """Traffic share and NXD rate of a server group (root or gTLD)."""
    rows = store.accumulate("srvip")
    total = total_hits(rows)
    ips = set(letter_ips.values())
    hits = sum(rows[ip].get("hits", 0) for ip in ips if ip in rows)
    nxd = sum(rows[ip].get("nxd", 0) for ip in ips if ip in rows)
    answered = sum(
        rows[ip].get("hits", 0) - rows[ip].get("unans", 0)
        for ip in ips if ip in rows)
    return {
        "share": hits / total if total else 0.0,
        "nxd_share": nxd / answered if answered else 0.0,
    }


def render_figure3(delays_shares, groups, root_stats, gtld_stats,
                   root_shares=None, gtld_shares=None):
    delays, shares = delays_shares
    lines = ["Figure 3a: nameserver median delay regimes",
             "=" * 42]
    for (low, high), share in zip(DELAY_SECTIONS, shares):
        label = "%g-%s ms" % (low, "inf" if high is None else "%g" % high)
        lines.append("  %-12s %s" % (label, format_percent(share)))
    lines.append("")
    sample = groups[:: max(1, len(groups) // 12)]
    lines.append(format_table(
        ["rank", "delay[ms]", "hops"],
        [(r, "%.1f" % d, "%.1f" % h) for r, d, h in sample],
        title="Figure 3b: rank vs delay/hops (group means)"))
    corr = popularity_speed_correlation(groups)
    lines.append("monotonicity (later groups slower): %s"
                 % format_percent(corr))
    lines.append("")
    for title, stats, shares_info in (
            ("Figure 3c: root letters", root_stats, root_shares),
            ("Figure 3d: gTLD letters", gtld_stats, gtld_shares)):
        lines.append(format_table(
            ["letter", "q25", "median", "q75", "hops", "NXD"],
            [(s.letter.upper(), "%.1f" % s.delay_q25, "%.1f" % s.delay_q50,
              "%.1f" % s.delay_q75, "%.1f" % s.hops,
              format_percent(s.nxd_share)) for s in stats],
            title=title))
        if shares_info:
            lines.append("traffic share %s, NXDOMAIN %s" % (
                format_percent(shares_info["share"]),
                format_percent(shares_info["nxd_share"])))
        lines.append("")
    return "\n".join(lines)
