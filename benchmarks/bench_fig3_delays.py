"""Figure 3: response delays and network hops.

Paper result: delay CDF splits into 0-5 / 5-35 / 35-350 / >350 ms
regimes (3.1 / 22.3 / 71.5 / 2.3 % of nameservers); the top-10K
nameservers respond faster and sit fewer hops away; root letters vary
(E/F/L fastest), roots are 96.2 % NXDOMAIN; gTLD letters cluster, B is
fastest, 26.4 % NXDOMAIN.
"""

from benchmarks.conftest import save_result
from repro.analysis.delays import (
    delay_cdf,
    hierarchy_shares,
    letter_stats,
    popularity_speed_correlation,
    rank_vs_delay,
    render_figure3,
)


def _figure3(store, root_ips, gtld_ips):
    return (
        delay_cdf(store),
        rank_vs_delay(store, group_size=100),
        letter_stats(store, root_ips),
        letter_stats(store, gtld_ips),
        hierarchy_shares(store, root_ips),
        hierarchy_shares(store, gtld_ips),
    )


def test_fig3_response_delays(benchmark, base_run):
    root_ips = base_run.root_letter_ips()
    gtld_ips = base_run.gtld_letter_ips()
    (cdf, groups, root_stats, gtld_stats, root_sh,
     gtld_sh) = benchmark.pedantic(
        _figure3, args=(base_run.store, root_ips, gtld_ips),
        rounds=3, iterations=1)
    save_result("fig3_delays", render_figure3(
        cdf, groups, root_stats, gtld_stats, root_sh, gtld_sh))

    delays, shares = cdf
    assert shares[2] == max(shares)          # distant dominates
    # The paper's Fig 3b pattern: the most popular nameservers are
    # faster and closer than the tail.
    tail = groups[-3:]
    assert groups[0][1] < 0.7 * sum(d for _, d, _ in tail) / len(tail)
    assert groups[0][2] < sum(h for _, _, h in tail) / len(tail)
    assert popularity_speed_correlation(groups) > 0.45
    assert root_sh["nxd_share"] > 0.3         # roots eat junk TLDs
    assert gtld_sh["nxd_share"] > 0.15        # gTLDs eat the botnet
    assert len(root_stats) == 13 and len(gtld_stats) == 13
    by_letter = {s.letter: s for s in gtld_stats}
    others = [s.delay_q50 for s in gtld_stats if s.letter != "b"]
    assert by_letter["b"].delay_q50 <= min(others) * 1.2  # B fastest
