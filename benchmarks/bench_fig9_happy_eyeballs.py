"""Figure 9: negative-caching TTLs vs empty AAAA responses.

Paper result: in the top-200 FQDNs, 5 have >70 % of all responses
being empty AAAA; the worst are two OS NTP hosts (negTTL 15 s vs A TTL
10-15 min -> 89 % and 94 % empty); an ad network (75 %) and a CDN
update host (88 %) follow; one blog host has 74 % empty despite a
*high* negTTL because some resolvers ignore it.
"""

from benchmarks.conftest import save_result
from repro.analysis.happyeyeballs import (
    figure9,
    high_empty_fqdns,
    quotient_correlation,
    render_figure9,
)


def test_fig9_negative_caching(benchmark, base_run):
    points = benchmark.pedantic(
        figure9, args=(base_run.store, base_run.negttl_lookup),
        kwargs={"top_n": 300, "horizon": base_run.scenario.duration},
        rounds=3, iterations=1)
    save_result("fig9_happy_eyeballs", render_figure9(points))

    by_fqdn = {p.fqdn: p for p in points}
    # The NTP hosts show the extreme empty-AAAA shares.
    ntp = by_fqdn.get("time-a.ntpsync.com") or \
        by_fqdn.get("time-b.ntpsync.com")
    assert ntp is not None
    assert ntp.empty_aaaa_share > 0.5
    assert ntp.quotient > 5
    # Several top FQDNs cross the paper's 70% line at least at 50%.
    assert len(high_empty_fqdns(points, threshold=0.5)) >= 2
    # Quotient correlates with empty share among IPv4-only FQDNs.
    corr = quotient_correlation(points)
    if corr["high_quotient_count"] and corr["low_quotient_count"]:
        assert corr["high_quotient_mean_share"] > \
            corr["low_quotient_mean_share"]
