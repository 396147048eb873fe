"""Table 1: top AS organizations by DNS transaction volume.

Paper result: 10 organizations receive >50 % of observed queries;
AMAZON leads (16 %); CDNs (AKAMAI, CLOUDFLARE) show markedly lower
delays and hop counts than cloud providers; CLOUDFLARE (anycast) uses
far fewer nameserver IPs than AKAMAI.
"""

from benchmarks.conftest import save_result
from repro.analysis.asattribution import render_table1, table1, top_share


def test_table1_as_organizations(benchmark, base_run):
    topo = base_run.dns.topology
    rows, total, attributed = benchmark.pedantic(
        table1, args=(base_run.store, topo.asdb, topo.asnames, 10),
        rounds=3, iterations=1)
    save_result("table1_asorgs", render_table1(rows, total))

    names = [r.org for r in rows]
    by_name = {r.org: r for r in rows}
    assert top_share(rows, total) > 0.4
    assert "VERISIGN" in names
    if "AKAMAI" in by_name and "AMAZON" in by_name:
        assert by_name["AKAMAI"].mean_delay < by_name["AMAZON"].mean_delay
        assert by_name["AKAMAI"].mean_hops < by_name["AMAZON"].mean_hops
    if "CLOUDFLARE" in by_name and "AKAMAI" in by_name:
        assert by_name["CLOUDFLARE"].servers < by_name["AKAMAI"].servers
