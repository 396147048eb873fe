"""Table 2: the top-10 QTYPE profiles.

Paper result: A 64 % vs AAAA 22 % (~3:1); AAAA NoData 25 % vs A 0.6 %
(>40x); NS queries 86 % NXDOMAIN with outsized responses; PTR 6.4 %
with deep labels (qdots 6.8) and TTL 86400; TXT with tiny TTLs (5 s)
from protocol-over-DNS users.
"""

from benchmarks.conftest import save_result
from repro.analysis.qtypes import render_table2, table2


def test_table2_qtype_profiles(benchmark, base_run):
    rows, total = benchmark.pedantic(
        table2, args=(base_run.store,), rounds=3, iterations=1)
    save_result("table2_qtypes", render_table2(rows))

    by_type = {r.qtype: r for r in rows}
    assert rows[0].qtype == "A"
    assert by_type["A"].global_share > 2 * by_type["AAAA"].global_share
    assert by_type["AAAA"].nodata > 3 * max(by_type["A"].nodata, 1e-3)
    if "NS" in by_type:
        assert by_type["NS"].nxd > 0.5
    if "PTR" in by_type:
        assert by_type["PTR"].qdots > 1.5 * by_type["A"].qdots
        assert by_type["PTR"].ttl == 86400
    if "TXT" in by_type:
        assert by_type["TXT"].ttl <= 60
