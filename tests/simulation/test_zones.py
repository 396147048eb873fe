"""Tests for zone answering logic."""

import pytest

from repro.dnswire.constants import QTYPE, RCODE
from repro.simulation.rng import RngHub
from repro.simulation.topology import Topology
from repro.simulation.zones import RootZone, SldZone, TldZone


@pytest.fixture(scope="module")
def topo():
    return Topology(RngHub(3), n_tail_orgs=4)


@pytest.fixture()
def sld(topo):
    zone = SldZone("example.com",
                   [topo.allocate_nameserver("AMAZON") for _ in range(2)],
                   soa_negttl=300)
    zone.add_record("example.com", QTYPE.A, 600, ("198.51.100.1",))
    zone.add_record("www.example.com", QTYPE.A, 300,
                    ("198.51.100.2", "198.51.100.3"))
    zone.add_record("cdn.example.com", QTYPE.CNAME, 120,
                    ("www.example.com",))
    return zone


class TestSldZone:
    def test_data_answer(self, sld):
        ans = sld.answer("www.example.com", QTYPE.A)
        assert ans.rcode == RCODE.NOERROR and ans.aa
        assert len(ans.records) == 2
        assert ans.answer_ips == ("198.51.100.2", "198.51.100.3")
        assert all(ttl == 300 for _, ttl, _ in ans.records)

    def test_nxdomain(self, sld):
        ans = sld.answer("missing.example.com", QTYPE.A)
        assert ans.rcode == RCODE.NXDOMAIN
        assert ans.aa
        assert ans.soa_negttl == 300

    def test_nodata(self, sld):
        ans = sld.answer("www.example.com", QTYPE.AAAA)
        assert ans.rcode == RCODE.NOERROR
        assert not ans.records
        assert ans.soa_negttl == 300

    def test_cname_chain(self, sld):
        ans = sld.answer("cdn.example.com", QTYPE.A)
        types = [qtype for qtype, _, _ in ans.records]
        assert types[0] == QTYPE.CNAME
        assert QTYPE.A in types
        assert ans.cname_targets == ("www.example.com",)

    def test_cname_query_direct(self, sld):
        ans = sld.answer("cdn.example.com", QTYPE.CNAME)
        assert [q for q, _, _ in ans.records] == [QTYPE.CNAME]

    def test_any_query(self, sld):
        sld.add_record("example.com", QTYPE.MX, 3600, ("mail.example.com",))
        ans = sld.answer("example.com", QTYPE.ANY)
        types = {qtype for qtype, _, _ in ans.records}
        assert QTYPE.A in types and QTYPE.MX in types

    def test_set_ttl(self, sld):
        sld.set_ttl("www.example.com", QTYPE.A, 10)
        ans = sld.answer("www.example.com", QTYPE.A)
        assert all(ttl == 10 for _, ttl, _ in ans.records)
        with pytest.raises(KeyError):
            sld.set_ttl("nope.example.com", QTYPE.A, 1)

    def test_dynamic_ttl_varies(self, topo):
        zone = SldZone("vicovoip.it",
                       [topo.allocate_nameserver("GODADDY")],
                       dynamic_ttl=True)
        zone.add_record("dns2.vicovoip.it", QTYPE.A, 1000, ("203.0.113.1",))
        ttls = {zone.answer("dns2.vicovoip.it", QTYPE.A).records[0][1]
                for _ in range(20)}
        assert len(ttls) > 5  # non-conforming: TTL changes per response

    def test_wildcard_data(self, sld):
        sld.wildcard = {"TXT": (5, ("scan=clean",))}
        ans = sld.answer("abc123.sig.example.com", QTYPE.TXT)
        assert ans.rcode == RCODE.NOERROR
        assert ans.records[0][1] == 5

    def test_wildcard_nodata_for_other_types(self, sld):
        sld.wildcard = {"TXT": (5, ("x",))}
        ans = sld.answer("abc.example.com", QTYPE.A)
        assert ans.rcode == RCODE.NOERROR
        assert not ans.records
        assert ans.soa_negttl == 300

    def test_wildcard_exists_probability_deterministic(self, sld):
        sld.wildcard = {"PTR": (86400, ("h.example.net",)),
                        "_exists_prob": 0.5}
        outcomes = {name: sld.answer(name + ".example.com", QTYPE.PTR).rcode
                    for name in ("a", "b", "c", "d", "e", "f", "g", "h")}
        # Deterministic per name.
        for name, rcode in outcomes.items():
            again = sld.answer(name + ".example.com", QTYPE.PTR).rcode
            assert again == rcode
        assert RCODE.NXDOMAIN in outcomes.values()
        assert RCODE.NOERROR in outcomes.values()

    def test_wildcard_not_applied_outside_zone(self, sld):
        sld.wildcard = {"A": (60, ("198.51.100.9",))}
        ans = sld.answer("other.org", QTYPE.A)
        assert ans.rcode == RCODE.NXDOMAIN

    def test_estimated_size_positive(self, sld):
        ans = sld.answer("www.example.com", QTYPE.A)
        assert ans.estimated_size("www.example.com") > 40


class TestTldZone:
    def make_tld(self, topo):
        tld = TldZone("com", [topo.allocate_nameserver("VERISIGN")],
                      registry_suffixes=())
        sld = SldZone("example.com",
                      [topo.allocate_nameserver("AMAZON")])
        tld.register(sld)
        return tld, sld

    def test_referral(self, topo):
        tld, sld = self.make_tld(topo)
        ans = tld.answer("www.example.com", QTYPE.A)
        assert ans.is_referral
        assert not ans.aa
        assert ans.ns_ttl == 86400
        assert len(ans.referral_ns) == len(sld.nameservers)

    def test_nxdomain_for_unregistered(self, topo):
        tld, _ = self.make_tld(topo)
        ans = tld.answer("nope12345.com", QTYPE.A)
        assert ans.rcode == RCODE.NXDOMAIN
        assert ans.aa

    def test_apex_answer(self, topo):
        tld, _ = self.make_tld(topo)
        ans = tld.answer("com", QTYPE.NS)
        assert ans.rcode == RCODE.NOERROR
        assert ans.aa

    def test_multi_label_delegation(self, topo):
        uk = TldZone("uk", [topo.allocate_nameserver("PCH")],
                     registry_suffixes=("co.uk",))
        bbc = SldZone("bbc.co.uk", [topo.allocate_nameserver("AKAMAI")])
        uk.register(bbc)
        ans = uk.answer("www.bbc.co.uk", QTYPE.A)
        assert ans.is_referral
        assert uk.delegation_for("news.bbc.co.uk") is bbc


class TestRootZone:
    def test_referral_and_nxdomain(self, topo):
        root = RootZone([topo.allocate_nameserver("VERISIGN")])
        com = TldZone("com", [topo.allocate_nameserver("VERISIGN")])
        root.register(com)
        assert root.answer("www.example.com", QTYPE.A).is_referral
        bad = root.answer("www.example.nosuchtld", QTYPE.A)
        assert bad.rcode == RCODE.NXDOMAIN
        assert bad.soa_negttl == RootZone.SOA_NEGTTL
