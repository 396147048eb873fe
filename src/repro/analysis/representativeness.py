"""Section 3.7 / Figures 4-5: data representativeness experiments.

* Figure 4a: distinct authoritative nameservers seen as a function of
  the fraction of vantage points used (should converge to a limit);
* Figure 4b: coverage of the full-data Top-k nameserver list from VP
  subsets (a 5 % sample already sees ~95 %);
* Figure 4c: distinct TLDs seen vs VP fraction;
* Figure 5: distinct nameservers seen as a function of monitoring
  *time* with all VPs;
* the /24 density observation (48 % of observed prefixes hold exactly
  one nameserver address).
"""

import random

from repro.analysis.tables import format_percent, format_series
from repro.dnswire.psl import default_psl
from repro.netsim.addr import is_ipv6, slash24_of


def _resolvers_of(transactions):
    return sorted({t.resolver_ip for t in transactions})


#: VP fractions the Figure 4 curves sample
FRACTIONS = (0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0)


def vp_sample_curves(transactions, repetitions=20, top_k=100):
    """Figures 4a-c: resample VP subsets and measure coverage.

    Returns a list of dicts per :data:`FRACTIONS` entry with keys
    ``fraction``,
    ``nameservers`` (mean distinct servers), ``top_coverage`` (mean
    share of the full-data top-*top_k* visible), ``tlds``.
    """
    psl = default_psl()
    resolvers = _resolvers_of(transactions)
    by_resolver = {r: [] for r in resolvers}
    for txn in transactions:
        by_resolver[txn.resolver_ip].append(txn)

    # Full-data reference: top-k nameservers by hits, all TLDs.
    full_counts = {}
    for txn in transactions:
        full_counts[txn.server_ip] = full_counts.get(txn.server_ip, 0) + 1
    full_top = set(sorted(full_counts, key=full_counts.get,
                          reverse=True)[:top_k])

    rng = random.Random(7)
    curves = []
    for fraction in FRACTIONS:
        size = max(1, int(round(fraction * len(resolvers))))
        ns_counts = []
        coverages = []
        tld_counts = []
        reps = repetitions if fraction < 1.0 else 1
        for _ in range(reps):
            sample = rng.sample(resolvers, size)
            servers = set()
            tlds = set()
            for r in sample:
                for txn in by_resolver[r]:
                    servers.add(txn.server_ip)
                    if txn.noerror:  # actively used TLDs only (§3.7)
                        etld = psl.effective_tld(txn.qname)
                        if etld:
                            tlds.add(etld)
            ns_counts.append(len(servers))
            coverages.append(len(servers & full_top) / max(len(full_top), 1))
            tld_counts.append(len(tlds))
        curves.append({
            "fraction": fraction,
            "nameservers": sum(ns_counts) / len(ns_counts),
            "top_coverage": sum(coverages) / len(coverages),
            "tlds": sum(tld_counts) / len(tld_counts),
        })
    return curves


def convergence_ratio(curves):
    """How close the half-sample is to the full sample -- near 1.0
    means the VP pool saturates (the paper's convergence argument)."""
    if len(curves) < 2:
        return 1.0
    full = curves[-1]["nameservers"] or 1.0
    half = next((c for c in curves if c["fraction"] >= 0.5), curves[-1])
    return half["nameservers"] / full


def nameservers_over_time(transactions, step_seconds=3600.0):
    """Figure 5: cumulative distinct nameserver IPs per time step.

    Returns a list of ``(elapsed_seconds, cumulative_count)``.
    """
    if not transactions:
        return []
    start = transactions[0].ts
    seen = set()
    series = []
    boundary = start + step_seconds
    for txn in transactions:
        while txn.ts >= boundary:
            series.append((boundary - start, len(seen)))
            boundary += step_seconds
        seen.add(txn.server_ip)
    series.append((boundary - start, len(seen)))
    return series


def slash24_density(transactions):
    """§3.7: how many nameserver addresses share each observed /24.

    Returns ``{addresses_per_prefix: share_of_prefixes}``.
    """
    per_prefix = {}
    for txn in transactions:
        if is_ipv6(txn.server_ip):
            continue
        prefix = slash24_of(txn.server_ip)
        per_prefix.setdefault(prefix, set()).add(txn.server_ip)
    histogram = {}
    for addresses in per_prefix.values():
        histogram[len(addresses)] = histogram.get(len(addresses), 0) + 1
    total = sum(histogram.values()) or 1
    return {count: n / total for count, n in sorted(histogram.items())}


def render_figure4(curves):
    lines = [format_series(
        [("%d%%" % round(c["fraction"] * 100), round(c["nameservers"]))
         for c in curves],
        x_label="VPs", y_label="nameservers (Fig 4a)")]
    lines.append(format_series(
        [("%d%%" % round(c["fraction"] * 100),
          format_percent(c["top_coverage"])) for c in curves],
        x_label="VPs", y_label="top-k coverage (Fig 4b)"))
    lines.append(format_series(
        [("%d%%" % round(c["fraction"] * 100), round(c["tlds"]))
         for c in curves],
        x_label="VPs", y_label="TLDs (Fig 4c)"))
    lines.append("half-sample convergence: %s"
                 % format_percent(convergence_ratio(curves)))
    return "\n".join(lines)


def render_figure5(series, density):
    lines = [format_series(
        [("%.1fh" % (t / 3600.0), n) for t, n in series],
        x_label="time", y_label="nameservers (Fig 5)")]
    top = {k: v for k, v in list(density.items())[:4]}
    lines.append("/24 density: " + ", ".join(
        "%d addr: %s" % (k, format_percent(v)) for k, v in top.items()))
    return "\n".join(lines)
