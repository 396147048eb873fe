"""Figure 2: traffic distributions for Top-k DNS objects.

Paper result: 94.9 % of traffic captured in the Top-100K nameserver
list; ~1 k nameservers (a tiny fraction of >1 M seen) handle 50 % of
all transactions; the NXDOMAIN CDF starts high at the top ranks
(botnet); the FQDN list captures only 23.2 %.
"""

from benchmarks.conftest import save_result
from repro.analysis.distributions import figure2, render_figure2


def test_fig2_traffic_distributions(benchmark, base_run):
    results = benchmark.pedantic(
        figure2, args=(base_run.store,),
        kwargs={"datasets": ("srvip", "qname", "esld")},
        rounds=3, iterations=1)
    out = render_figure2(results)
    save_result("fig2_distributions", out)

    srvip = results["srvip"]
    # Shape assertions mirroring the paper.
    assert srvip.objects_for_share(0.5) < 0.25 * len(srvip.keys)
    assert results["qname"].capture_ratio() < srvip.capture_ratio()
    k = max(1, len(srvip.keys) // 20)
    assert srvip.share_of_top(k, "nxdomain") > 0.3
