"""Tests for the scenario buildout and scripted events."""

import pytest

from repro.dnswire.constants import QTYPE
from repro.simulation.buildout import (
    SPECIAL_V4ONLY,
    XMSECU_FQDN,
    build_global_dns,
)
from repro.simulation.scenario import (
    EnableIpv6,
    NsChange,
    Renumber,
    Scenario,
    TtlChange,
)


@pytest.fixture(scope="module")
def dns():
    return build_global_dns(Scenario.tiny(seed=5))


class TestBuildout:
    def test_thirteen_root_letters(self, dns):
        assert len(dns.root.nameservers) == 13
        hostnames = {ns.hostname for ns in dns.root.nameservers}
        assert "a.root-servers.net" in hostnames
        assert "m.root-servers.net" in hostnames

    def test_thirteen_gtld_letters_shared_by_com_net(self, dns):
        com = dns.root.tlds["com"]
        net = dns.root.tlds["net"]
        assert len(com.nameservers) == 13
        assert com.nameservers == net.nameservers
        assert all(ns.org == "VERISIGN" for ns in com.nameservers)

    def test_tld_count(self, dns):
        assert len(dns.root.tlds) == Scenario.tiny().n_tlds

    def test_registry_suffixes_installed(self, dns):
        assert "co.uk" in dns.root.tlds["uk"].registry_suffixes
        assert "org.il" in dns.root.tlds["il"].registry_suffixes

    def test_slds_registered_and_resolvable(self, dns):
        assert len(dns.slds) > 100
        zone = dns.slds[0]
        assert dns.find_sld_zone("www." + zone.name) is zone

    def test_sld_records_complete(self, dns):
        zone = dns.slds[10]
        assert zone.get_record(zone.name, QTYPE.A) is not None
        assert zone.get_record(zone.name, QTYPE.MX) is not None
        assert zone.get_record(zone.name, QTYPE.SOA) is not None
        assert zone.get_record("www." + zone.name, QTYPE.A) is not None

    def test_signed_zones_have_ds(self, dns):
        signed = [z for z in dns.slds if z.signed]
        assert signed
        for zone in signed[:10]:
            assert zone.get_record(zone.name, QTYPE.DS) is not None

    def test_some_zones_have_ipv6(self, dns):
        with_v6 = sum(
            1 for z in dns.slds
            if z.get_record("www." + z.name, QTYPE.AAAA) is not None)
        assert 0 < with_v6 < len(dns.slds)

    def test_specials_exist_and_are_v4only(self, dns):
        for fqdn, _rank, ttl, negttl in SPECIAL_V4ONLY:
            zone = dns.find_sld_zone(fqdn)
            assert zone is not None, fqdn
            assert zone.get_record(fqdn, QTYPE.A) is not None
            assert zone.get_record(fqdn, QTYPE.AAAA) is None
            assert zone.soa_negttl == negttl

    def test_specials_in_catalog_at_planned_ranks(self, dns):
        catalog_names = [fqdn for fqdn, _ in dns.catalog]
        for fqdn, rank, _, _ in SPECIAL_V4ONLY:
            assert catalog_names[rank] == fqdn
        assert catalog_names[50] == XMSECU_FQDN

    def test_reverse_zones(self, dns):
        assert dns.reverse_zones
        zone = dns.reverse_zones[0]
        ans = zone.answer("1.2.3.%s" % zone.name, QTYPE.PTR)
        assert ans.aa

    def test_wildcard_txt_zone_exists(self, dns):
        av = [z for z in dns.wildcard_slds
              if z.wildcard and "TXT" in z.wildcard]
        assert av
        ans = av[0].answer("deadbeef.sig.%s" % av[0].name, QTYPE.TXT)
        assert ans.records[0][1] == 5  # the TTL-5 TXT answers

    def test_catalog_size(self, dns):
        assert len(dns.catalog) == Scenario.tiny().popular_fqdns

    def test_deterministic_given_seed(self):
        a = build_global_dns(Scenario.tiny(seed=33))
        b = build_global_dns(Scenario.tiny(seed=33))
        assert [z.name for z in a.slds] == [z.name for z in b.slds]
        assert list(a.topology.nameservers_by_ip) == \
            list(b.topology.nameservers_by_ip)
        assert [f for f, _ in a.catalog] == [f for f, _ in b.catalog]

    def test_different_seeds_differ(self):
        a = build_global_dns(Scenario.tiny(seed=1))
        b = build_global_dns(Scenario.tiny(seed=2))
        assert list(a.topology.nameservers_by_ip) != \
            list(b.topology.nameservers_by_ip)


class TestScriptedEvents:
    def test_ttl_change_applied(self):
        events = [TtlChange(at=100.0, name=XMSECU_FQDN, new_ttl=10)]
        dns = build_global_dns(Scenario.tiny(scripted_events=events))
        zone = dns.find_sld_zone(XMSECU_FQDN)
        assert zone.get_record(XMSECU_FQDN, QTYPE.A).ttl == 600
        dns.apply_events_until(50.0)
        assert zone.get_record(XMSECU_FQDN, QTYPE.A).ttl == 600
        dns.apply_events_until(100.0)
        assert zone.get_record(XMSECU_FQDN, QTYPE.A).ttl == 10
        assert len(dns.applied_events) == 1

    def test_ttl_change_whole_zone(self):
        dns = build_global_dns(Scenario.tiny())
        zone = dns.slds[5]
        dns._apply(TtlChange(at=0, name=zone.name, new_ttl=7))
        for fqdn in zone.fqdns():
            rec = zone.get_record(fqdn, QTYPE.A)
            if rec is not None:
                assert rec.ttl == 7

    def test_ns_ttl_change(self):
        dns = build_global_dns(Scenario.tiny())
        zone = dns.slds[3]
        dns._apply(TtlChange(at=0, name=zone.name, new_ttl=30, rtype="NS"))
        assert zone.ns_ttl == 30

    def test_soa_negttl_change(self):
        dns = build_global_dns(Scenario.tiny())
        zone = dns.slds[3]
        dns._apply(TtlChange(at=0, name=zone.name, new_ttl=15, rtype="SOA"))
        assert zone.soa_negttl == 15

    def test_renumber(self):
        dns = build_global_dns(Scenario.tiny())
        zone = dns.slds[4]
        fqdn = "www." + zone.name
        dns._apply(Renumber(at=0, fqdn=fqdn, new_ips=("203.0.113.9",),
                            new_ttl=38400))
        rec = zone.get_record(fqdn, QTYPE.A)
        assert rec.values == ("203.0.113.9",)
        assert rec.ttl == 38400

    def test_ns_change(self):
        dns = build_global_dns(Scenario.tiny())
        zone = dns.slds[6]
        old_ips = {ns.ip for ns in zone.nameservers}
        dns._apply(NsChange(at=0, sld=zone.name, new_ns_org="MICROSOFT",
                            new_ttl=10))
        new_ips = {ns.ip for ns in zone.nameservers}
        assert new_ips.isdisjoint(old_ips)
        assert all(ns.org == "MICROSOFT" for ns in zone.nameservers)
        assert zone.ns_ttl == 10

    def test_enable_ipv6(self):
        dns = build_global_dns(Scenario.tiny())
        fqdn = "time-a.ntpsync.com"
        zone = dns.find_sld_zone(fqdn)
        assert zone.get_record(fqdn, QTYPE.AAAA) is None
        dns._apply(EnableIpv6(at=0, fqdn=fqdn))
        aaaa = zone.get_record(fqdn, QTYPE.AAAA)
        assert aaaa is not None
        assert aaaa.ttl == zone.get_record(fqdn, QTYPE.A).ttl

    def test_unknown_target_raises(self):
        dns = build_global_dns(Scenario.tiny())
        with pytest.raises(KeyError):
            dns._apply(TtlChange(at=0, name="nope.nowhere.zz", new_ttl=1))

    def test_events_applied_in_order(self):
        events = [
            TtlChange(at=200.0, name=XMSECU_FQDN, new_ttl=10),
            TtlChange(at=100.0, name=XMSECU_FQDN, new_ttl=60),
        ]
        dns = build_global_dns(Scenario.tiny(scripted_events=events))
        dns.apply_events_until(150.0)
        zone = dns.find_sld_zone(XMSECU_FQDN)
        assert zone.get_record(XMSECU_FQDN, QTYPE.A).ttl == 60
        dns.apply_events_until(250.0)
        assert zone.get_record(XMSECU_FQDN, QTYPE.A).ttl == 10
