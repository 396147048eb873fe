"""Figure 6: Hilbert-curve heatmap of observed nameserver IPv4 space.

"Each pixel corresponds to a /24 prefix.  The blue color means 1
address in given prefix used as a nameserver during a 3-day time
window."  The reproduction builds the same map with
:class:`~repro.netsim.hilbert.HilbertHeatmap` and reports the density
histogram plus an ASCII rendering for terminal inspection.
"""

from repro.analysis.tables import format_percent
from repro.netsim.addr import is_ipv6
from repro.netsim.hilbert import HilbertHeatmap


def build_heatmap(transactions, order=6):
    """Accumulate all observed nameserver IPv4 addresses into a map.

    Each distinct nameserver IP is counted once per /24 (the figure
    shows *addresses in use*, not traffic volume).
    """
    heatmap = HilbertHeatmap(order=order)
    seen = set()
    for txn in transactions:
        ip = txn.server_ip
        if ip in seen or is_ipv6(ip):
            continue
        seen.add(ip)
        heatmap.add(ip)
    return heatmap


def render_figure6(heatmap):
    """ASCII rendering (at most 32 rows) + the §3.7 density summary."""
    art = heatmap.to_ascii()
    lines = art.splitlines()
    if len(lines) > 32:
        step = len(lines) / 32
        lines = [lines[int(i * step)] for i in range(32)]
    histogram = heatmap.prefix_density_histogram()
    total = sum(histogram.values()) or 1
    summary = ", ".join(
        "%d addr: %s" % (count, format_percent(histogram[count] / total))
        for count in sorted(histogram)[:4])
    return "\n".join([
        "Figure 6: Hilbert /24 heatmap (%d populated prefixes)"
        % heatmap.populated_prefixes,
        "=" * 48,
        *lines,
        "prefix density: %s" % summary,
    ])
