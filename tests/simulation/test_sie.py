"""End-to-end tests for the SIE channel and workload mix."""

import collections

import pytest

from repro.dnswire.constants import QTYPE, RCODE
from repro.simulation.scenario import Scenario, TtlChange
from repro.simulation.workload import WorkloadMix
from tests.util import run_scenario, tuned


@pytest.fixture(scope="module")
def run():
    channel, txns = run_scenario(Scenario.tiny(seed=21))
    return channel, txns


class TestStream:
    def test_stream_is_time_ordered(self, run):
        _, txns = run
        assert all(b.ts >= a.ts for a, b in zip(txns, txns[1:]))

    def test_stream_is_nonempty_and_counted(self, run):
        channel, txns = run
        assert len(txns) == channel.transactions
        assert len(txns) > 1000

    def test_deterministic(self):
        _, a = run_scenario(Scenario.tiny(seed=77))
        _, b = run_scenario(Scenario.tiny(seed=77))
        assert len(a) == len(b)
        assert [t.qname for t in a[:200]] == [t.qname for t in b[:200]]
        assert [t.ts for t in a[:200]] == [t.ts for t in b[:200]]

    def test_caching_suppresses_traffic(self, run):
        channel, txns = run
        # Without caches every client query would cost >=1 upstream
        # transaction; with caches we must see meaningfully fewer.
        assert channel.cache_hit_ratio() > 0.3
        assert channel.transactions < channel.client_queries

    def test_qtype_mix_shape(self, run):
        """Table 2 shape: A dominates, AAAA second among address
        types, PTR a solid share."""
        _, txns = run
        counts = collections.Counter(t.qtype_name() for t in txns)
        assert counts["A"] > counts["AAAA"] > 0
        assert counts["A"] > 0.4 * len(txns)
        assert counts["PTR"] > 0

    def test_rcode_mix_shape(self, run):
        """NXDOMAIN is a large minority (botnet), NoError majority."""
        _, txns = run
        noerror = sum(1 for t in txns if t.noerror)
        nxd = sum(1 for t in txns if t.rcode == RCODE.NXDOMAIN)
        assert noerror > nxd > 0
        assert 0.1 < nxd / len(txns) < 0.45

    def test_unanswered_present(self, run):
        _, txns = run
        unans = sum(1 for t in txns if not t.answered)
        assert 0 < unans / len(txns) < 0.1

    def test_aa_flag_only_from_authoritative(self, run):
        channel, txns = run
        com_ips = {ns.ip for ns in channel.dns.root.tlds["com"].nameservers}
        for txn in txns[:2000]:
            if txn.answered and txn.server_ip in com_ips and txn.noerror \
                    and txn.authority_ns_count > 0 and txn.answer_count == 0:
                assert not txn.aa  # referrals are never AA

    def test_sources_match_contributors(self, run):
        channel, txns = run
        sources = {t.source for t in txns}
        assert len(sources) <= Scenario.tiny().n_contributors
        assert all(s.startswith("contrib") for s in sources)

    def test_sensor_accounting(self, run):
        channel, txns = run
        assert sum(s.captured for s in channel.sensors) == len(txns)

    @staticmethod
    def _all_ips(nameservers):
        ips = set()
        for ns in nameservers:
            ips.add(ns.ip)
            if ns.ipv6:
                ips.add(ns.ipv6)
        return ips

    def test_botnet_hits_gtlds_with_nxdomain(self, run):
        channel, txns = run
        gtld_ips = self._all_ips(channel.dns.root.tlds["com"].nameservers)
        root_ips = self._all_ips(channel.dns.root.nameservers)
        botnet = [t for t in txns
                  if len(t.qname.split(".")) >= 2
                  and t.qname.split(".")[-2].startswith("mylo")
                  and t.server_ip not in root_ips]  # skip delegation lookups
        assert botnet
        assert all(t.server_ip in gtld_ips for t in botnet if t.answered)
        assert all(t.rcode == RCODE.NXDOMAIN for t in botnet if t.answered)

    def test_delays_positive_and_plausible(self, run):
        _, txns = run
        delays = [t.delay_ms for t in txns if t.answered]
        assert all(d > 0 for d in delays)
        assert min(delays) < 20
        assert max(delays) < 3000

    def test_hops_recoverable_from_ttl(self, run):
        from repro.netsim.hops import infer_hops

        _, txns = run
        hops = [infer_hops(t.observed_ttl) for t in txns if t.answered]
        assert all(1 <= h <= 40 for h in hops)


class TestScriptedRun:
    def test_ttl_change_mid_run_increases_traffic(self):
        from repro.simulation.buildout import XMSECU_FQDN

        # The change bites only once entries cached under the old TTL
        # (600 s) expire, so the epochs must be longer than that TTL.
        duration, change_at = 1800.0, 600.0
        events = [TtlChange(at=change_at, name=XMSECU_FQDN, new_ttl=5)]
        channel, txns = run_scenario(
            Scenario.tiny(seed=9, duration=duration, client_qps=30.0,
                          scripted_events=events))
        first = sum(1 for t in txns
                    if t.qname == XMSECU_FQDN and t.ts < change_at)
        rate_first = first / change_at
        second = sum(1 for t in txns
                     if t.qname == XMSECU_FQDN and t.ts >= change_at + 600)
        rate_second = second / (duration - change_at - 600)
        # TTL 600 -> 5 s: resolvers re-query far more often (Figure 7).
        assert rate_second > 2 * rate_first


class TestWireCheck:
    def test_wire_path_agrees_with_fast_path(self):
        scenario = tuned(Scenario.tiny(seed=4, duration=60.0),
                         wire_check_fraction=1.0)
        channel, txns = run_scenario(scenario)
        assert channel.service.wire_checks > 100
        # Wire-parsed transactions carry real response sizes.
        answered = [t for t in txns if t.answered]
        assert all(t.response_size > 12 for t in answered)


class TestWorkloadMix:
    def test_rates_cover_all_generators(self):
        from repro.simulation.buildout import build_global_dns

        scenario = Scenario.tiny()
        dns = build_global_dns(scenario)
        mix = WorkloadMix(scenario, dns)
        assert "web" in mix.rates and "botnet" in mix.rates
        total = sum(mix.rates.values())
        assert total == pytest.approx(scenario.client_qps, rel=0.01)

    def test_events_sorted_and_bounded(self):
        from repro.simulation.buildout import build_global_dns

        scenario = Scenario.tiny(duration=30.0)
        dns = build_global_dns(scenario)
        mix = WorkloadMix(scenario, dns)
        events = list(mix.events())
        assert all(b.ts >= a.ts for a, b in zip(events, events[1:]))
        assert all(0 <= e.ts < 30.0 for e in events)
        assert all(0 <= e.resolver_index < scenario.n_resolvers
                   for e in events)

    def test_dualstack_pairs_a_with_aaaa(self):
        from repro.simulation.buildout import build_global_dns

        scenario = Scenario.tiny(duration=60.0, dualstack_fraction=1.0)
        dns = build_global_dns(scenario)
        mix = WorkloadMix(scenario, dns)
        web = [e for e in mix.events() if e.tag in ("web", "web6")]
        a_count = sum(1 for e in web if e.qtype == QTYPE.A)
        aaaa = sum(1 for e in web if e.qtype == QTYPE.AAAA)
        assert aaaa == a_count  # every A paired with an AAAA
