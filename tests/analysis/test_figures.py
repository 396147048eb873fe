"""End-to-end tests for every table/figure analysis module.

All tests share one session-scoped simulation run (see conftest.py)
and assert the paper's qualitative *shapes*, not absolute numbers.
"""

import pytest

from repro.analysis.asattribution import render_table1, table1, top_share
from repro.analysis.delays import (
    delay_cdf,
    hierarchy_shares,
    letter_stats,
    popularity_speed_correlation,
    rank_vs_delay,
    render_figure3,
)
from repro.analysis.distributions import figure2, render_figure2
from repro.analysis.happyeyeballs import (
    figure9,
    high_empty_fqdns,
    quotient_correlation,
    render_figure9,
)
from repro.analysis.heatmap import build_heatmap, render_figure6
from repro.analysis.qmin import detect_qmin, render_table3
from repro.analysis.qtypes import render_table2, table2
from repro.analysis.representativeness import (
    convergence_ratio,
    nameservers_over_time,
    render_figure4,
    render_figure5,
    slash24_density,
    vp_sample_curves,
)


class TestFigure2:
    def test_concentration(self, run):
        results = figure2(run.store, datasets=("srvip",))
        dist = results["srvip"]
        assert len(dist.keys) > 50
        # Heavy tail: a small fraction of nameservers covers half the
        # traffic (paper: ~1k of >1M).
        half = dist.objects_for_share(0.5)
        assert half < 0.25 * len(dist.keys)
        # CDFs are monotone and end at 1.
        for cat in dist.CATEGORIES:
            cdf = dist.cdf(cat)
            assert all(b >= a - 1e-12 for a, b in zip(cdf, cdf[1:]))
            if dist.category_share(cat) > 0:
                assert cdf[-1] == pytest.approx(1.0)

    def test_nxdomain_concentrated_on_popular_servers(self, run):
        dist = figure2(run.store, datasets=("srvip",))["srvip"]
        # Botnet NXD goes to gTLDs, which are top servers: the NXD CDF
        # at the top ranks exceeds the all-traffic CDF there.
        k = max(1, len(dist.keys) // 20)
        assert dist.share_of_top(k, "nxdomain") >= \
            dist.share_of_top(k, "all") * 0.8

    def test_qname_capture_lower_than_srvip(self, run):
        results = figure2(run.store, datasets=("srvip", "qname"))
        # Many FQDNs are ephemeral: per-FQDN aggregation captures less.
        assert results["qname"].capture_ratio() < \
            results["srvip"].capture_ratio()

    def test_render(self, run):
        out = render_figure2(figure2(run.store, datasets=("srvip",)))
        assert "Figure 2" in out
        assert "50%" in out


class TestTable1:
    def test_major_orgs_dominate(self, run):
        topo = run.dns.topology
        rows, total, attributed = table1(run.store, topo.asdb,
                                         topo.asnames, 10)
        assert rows
        assert attributed / total > 0.95  # synthetic ASdb covers all
        names = [r.org for r in rows]
        # The Table 1 cast appears among the top orgs.
        assert "VERISIGN" in names  # gTLD operator always present
        assert len(set(names) & {"AMAZON", "CLOUDFLARE", "AKAMAI",
                                 "MICROSOFT", "GOOGLE"}) >= 2
        # Top orgs carry the majority of traffic.
        assert top_share(rows, total) > 0.4

    def test_cdn_delays_lower_than_cloud(self, run):
        topo = run.dns.topology
        rows, _, _ = table1(run.store, topo.asdb, topo.asnames, top_orgs=30)
        by_name = {r.org: r for r in rows}
        if "AKAMAI" in by_name and "AMAZON" in by_name:
            assert by_name["AKAMAI"].mean_delay < by_name["AMAZON"].mean_delay
        if "CLOUDFLARE" in by_name and "GOOGLE" in by_name:
            assert by_name["CLOUDFLARE"].mean_delay < \
                by_name["GOOGLE"].mean_delay

    def test_anycast_uses_fewer_ips(self, run):
        topo = run.dns.topology
        rows, _, _ = table1(run.store, topo.asdb, topo.asnames, top_orgs=30)
        by_name = {r.org: r for r in rows}
        if "CLOUDFLARE" in by_name and "AKAMAI" in by_name:
            assert by_name["CLOUDFLARE"].servers < by_name["AKAMAI"].servers

    def test_render(self, run):
        topo = run.dns.topology
        rows, total, _ = table1(run.store, topo.asdb, topo.asnames, 10)
        out = render_table1(rows, total)
        assert "Table 1" in out
        assert "VERISIGN" in out


class TestTable2:
    def test_a_dominates(self, run):
        rows, _ = table2(run.store)
        by_type = {r.qtype: r for r in rows}
        assert rows[0].qtype == "A"
        assert by_type["A"].global_share > 2 * by_type["AAAA"].global_share

    def test_aaaa_nodata_far_higher_than_a(self, run):
        rows, _ = table2(run.store)
        by_type = {r.qtype: r for r in rows}
        assert by_type["AAAA"].nodata > 3 * max(by_type["A"].nodata, 0.001)

    def test_ns_mostly_nxdomain(self, run):
        rows, _ = table2(run.store)
        by_type = {r.qtype: r for r in rows}
        if "NS" in by_type:
            assert by_type["NS"].nxd > 0.5

    def test_ptr_deep_labels(self, run):
        rows, _ = table2(run.store)
        by_type = {r.qtype: r for r in rows}
        if "PTR" in by_type:
            assert by_type["PTR"].qdots > by_type["A"].qdots
            assert by_type["PTR"].ttl == 86400

    def test_txt_tiny_ttl(self, run):
        rows, _ = table2(run.store)
        by_type = {r.qtype: r for r in rows}
        if "TXT" in by_type:
            assert by_type["TXT"].ttl <= 60

    def test_render(self, run):
        rows, _ = table2(run.store)
        out = render_table2(rows)
        assert "Table 2" in out and "AAAA" in out


class TestFigure3:
    def test_delay_cdf_sections(self, run):
        delays, shares = delay_cdf(run.store)
        assert len(delays) > 50
        assert sum(shares) == pytest.approx(1.0)
        # Distant is the biggest regime (paper: 71.5%).
        assert shares[2] == max(shares)

    def test_popular_servers_faster(self, run):
        groups = rank_vs_delay(run.store, group_size=50)
        assert len(groups) >= 4
        # At unit-test scale individual groups are noisy; the paper's
        # head-vs-tail contrast must still hold on average.
        head = sum(d for _, d, _ in groups[:2]) / 2
        tail = sum(d for _, d, _ in groups[-2:]) / 2
        assert head < tail * 1.1
        head_hops = sum(h for _, _, h in groups[:2]) / 2
        tail_hops = sum(h for _, _, h in groups[-2:]) / 2
        assert head_hops < tail_hops * 1.2

    def test_root_letters(self, run):
        stats = letter_stats(run.store, run.root_letter_ips())
        assert len(stats) >= 10
        by_letter = {s.letter: s for s in stats}
        # Heavily mirrored letters are fastest (E/F/L colocated).
        fast = [by_letter[l].delay_q50 for l in "efl" if l in by_letter]
        slow = [by_letter[l].delay_q50 for l in "bgh" if l in by_letter]
        if fast and slow:
            assert min(fast) < min(slow)
        for s in stats:
            assert s.delay_q25 <= s.delay_q50 <= s.delay_q75

    def test_root_mostly_nxdomain(self, run):
        shares = hierarchy_shares(run.store, run.root_letter_ips())
        assert 0.0 < shares["share"] < 0.2
        assert shares["nxd_share"] > 0.3

    def test_gtld_shares(self, run):
        shares = hierarchy_shares(run.store, run.gtld_letter_ips())
        assert shares["share"] > 0.03
        assert shares["nxd_share"] > 0.15

    def test_gtld_b_fastest(self, run):
        stats = letter_stats(run.store, run.gtld_letter_ips())
        by_letter = {s.letter: s for s in stats}
        if "b" in by_letter:
            others = [s.delay_q50 for s in stats if s.letter != "b"]
            assert by_letter["b"].delay_q50 <= min(others) * 1.2

    def test_render(self, run):
        out = render_figure3(
            delay_cdf(run.store), rank_vs_delay(run.store, group_size=50),
            letter_stats(run.store, run.root_letter_ips()),
            letter_stats(run.store, run.gtld_letter_ips()),
            hierarchy_shares(run.store, run.root_letter_ips()),
            hierarchy_shares(run.store, run.gtld_letter_ips()))
        assert "Figure 3a" in out and "Figure 3d" in out


class TestTable3Qmin:
    def test_detects_ground_truth_qmin_resolvers(self, run):
        root_ips = set(run.root_letter_ips().values())
        tld_ips = {ns.ip for tld in run.dns.root.tlds.values()
                   for ns in tld.nameservers}
        detector = detect_qmin(run.transactions, root_ips, tld_ips)
        truth_qmin = {r.ip for r in run.channel.resolvers if r.qmin}
        candidates = set(detector.cross_check(
            detector.possible_qmin_resolvers_root()))
        # Every true qmin resolver that talked to the root must be a
        # candidate, and no non-qmin resolver may be one.
        active = set(detector.root_max_labels)
        assert truth_qmin & active <= candidates
        non_qmin_truth = active - truth_qmin
        assert not (candidates & non_qmin_truth)

    def test_qmin_share_is_small(self, run):
        root_ips = set(run.root_letter_ips().values())
        tld_ips = {ns.ip for tld in run.dns.root.tlds.values()
                   for ns in tld.nameservers}
        detector = detect_qmin(run.transactions, root_ips, tld_ips)
        shares = detector.qmin_traffic_shares()
        assert shares["root"] < 0.5
        assert shares["tld"] < 0.5

    def test_render(self, run):
        root_ips = set(run.root_letter_ips().values())
        detector = detect_qmin(run.transactions, root_ips, set())
        out = render_table3(detector)
        assert "Table 3" in out and "qmin" in out


class TestFigure45Representativeness:
    def test_vp_curves_converge(self, run):
        curves = vp_sample_curves(run.transactions, repetitions=5)
        assert curves[-1]["fraction"] == 1.0
        counts = [c["nameservers"] for c in curves]
        assert counts[0] < counts[-1]
        assert convergence_ratio(curves) > 0.5

    def test_small_sample_sees_top_servers(self, run):
        curves = vp_sample_curves(run.transactions, repetitions=5,
                                  top_k=20)
        # Paper: a 5% sample sees ~95% of the top list; we assert the
        # small-sample coverage is already high.
        assert curves[0]["top_coverage"] > 0.5
        assert curves[-1]["top_coverage"] == pytest.approx(1.0)

    def test_tld_curve_bounded(self, run):
        curves = vp_sample_curves(run.transactions, repetitions=5)
        assert curves[-1]["tlds"] <= run.scenario.n_tlds + 50

    def test_nameservers_over_time_monotone(self, run):
        series = nameservers_over_time(run.transactions, step_seconds=60.0)
        values = [v for _, v in series]
        assert values == sorted(values)
        assert values[-1] > 0

    def test_slash24_density_mostly_single(self, run):
        density = slash24_density(run.transactions)
        assert density
        # Paper: 48% of prefixes hold a single address; ours must at
        # least show 1-address prefixes as the biggest bucket.
        assert density.get(1, 0) == max(density.values())

    def test_render(self, run):
        curves = vp_sample_curves(run.transactions, repetitions=3)
        assert "Fig 4a" in render_figure4(curves)
        series = nameservers_over_time(run.transactions, step_seconds=60.0)
        density = slash24_density(run.transactions)
        assert "Fig 5" in render_figure5(series, density)


class TestFigure6Heatmap:
    def test_heatmap_counts_each_server_once(self, run):
        heatmap = build_heatmap(run.transactions)
        v4_servers = {t.server_ip for t in run.transactions
                      if ":" not in t.server_ip}
        total = sum(heatmap.prefix_density_histogram()[k] * k
                    for k in heatmap.prefix_density_histogram())
        assert total == len(v4_servers)

    def test_render(self, run):
        out = render_figure6(build_heatmap(run.transactions))
        assert "Figure 6" in out
        assert "prefix density" in out


class TestFigure9:
    def test_specials_have_high_empty_shares(self, run):
        points = figure9(run.store, run.negttl_lookup, top_n=300)
        assert points
        by_fqdn = {p.fqdn: p for p in points}
        ntp = by_fqdn.get("time-a.ntpsync.com")
        if ntp is not None:
            # negTTL 15 vs A TTL 900: quotient 60, mostly empty AAAA.
            assert ntp.quotient > 10
            assert ntp.empty_aaaa_share > 0.5

    def test_quotient_correlates_with_empty_share(self, run):
        points = figure9(run.store, run.negttl_lookup, top_n=300,
                         horizon=run.scenario.duration)
        corr = quotient_correlation(points)
        if corr["high_quotient_count"] and corr["low_quotient_count"]:
            assert corr["high_quotient_mean_share"] > \
                corr["low_quotient_mean_share"]

    def test_some_high_empty_fqdns_found(self, run):
        points = figure9(run.store, run.negttl_lookup, top_n=300)
        assert len(high_empty_fqdns(points, threshold=0.5)) >= 1

    def test_render(self, run):
        points = figure9(run.store, run.negttl_lookup, top_n=300)
        out = render_figure9(points)
        assert "Figure 9" in out
