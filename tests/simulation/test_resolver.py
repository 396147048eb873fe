"""Tests for the caching recursive resolver."""

import pytest

from repro.dnswire.constants import QTYPE
from repro.simulation.authoritative import AuthoritativeService
from repro.simulation.buildout import build_global_dns
from repro.simulation.resolver import RecursiveResolver
from repro.simulation.resolvercache import NegativeCache, TtlCache
from repro.simulation.scenario import Scenario


@pytest.fixture(scope="module")
def world():
    dns = build_global_dns(Scenario.tiny(seed=11))
    service = AuthoritativeService(dns.topology, dns.hub,
                                   unanswered_rate=0.0)
    return dns, service


def make_resolver(world, qmin=False, ip="10.0.0.53"):
    dns, service = world
    return RecursiveResolver(ip, dns, service, dns.hub, qmin=qmin)


def popular_fqdn(world):
    dns, _ = world
    return dns.catalog[0]


class TestTtlCache:
    def test_put_get_expire(self):
        cache = TtlCache(10)
        cache.put("k", "v", ttl=5, now=0.0)
        assert cache.get("k", now=3.0) == "v"
        assert cache.get("k", now=6.0) is None
        assert cache.expirations == 1

    def test_zero_ttl_not_cached(self):
        cache = TtlCache(10)
        cache.put("k", "v", ttl=0, now=0.0)
        assert cache.get("k", now=0.0) is None

    def test_lru_eviction(self):
        cache = TtlCache(2)
        cache.put("a", 1, 100, 0.0)
        cache.put("b", 2, 100, 0.0)
        cache.get("a", 1.0)  # refresh a
        cache.put("c", 3, 100, 1.0)  # evicts b
        assert list(cache._entries) == ["a", "c"]
        assert cache.evictions == 1

    def test_remaining_ttl(self):
        cache = TtlCache(4)
        cache.put("k", "v", ttl=10, now=0.0)
        assert cache.remaining_ttl("k", 4.0) == pytest.approx(6.0)
        assert cache.remaining_ttl("missing", 0.0) == 0.0

    def test_hit_ratio(self):
        cache = TtlCache(4)
        cache.put("k", "v", 10, 0.0)
        cache.get("k", 1.0)
        cache.get("x", 1.0)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            TtlCache(0)


class TestNegativeCache:
    def test_nxdomain_covers_all_types(self):
        neg = NegativeCache()
        neg.put_nxdomain("gone.example.com", 60, now=0.0)
        assert neg.get("gone.example.com", QTYPE.A, 10.0) == "NXDOMAIN"
        assert neg.get("gone.example.com", QTYPE.AAAA, 10.0) == "NXDOMAIN"

    def test_nodata_is_per_type(self):
        neg = NegativeCache()
        neg.put_nodata("v4.example.com", QTYPE.AAAA, 60, now=0.0)
        assert neg.get("v4.example.com", QTYPE.AAAA, 10.0) == "NODATA"
        assert neg.get("v4.example.com", QTYPE.A, 10.0) is None

    def test_expiry(self):
        neg = NegativeCache()
        neg.put_nodata("x.example.com", QTYPE.AAAA, 15, now=0.0)
        assert neg.get("x.example.com", QTYPE.AAAA, 20.0) is None


class TestResolution:
    def test_full_walk_then_cache(self, world):
        resolver = make_resolver(world)
        fqdn, _zone = popular_fqdn(world)
        emitted = []
        result = resolver.resolve(fqdn, QTYPE.A, 0.0, emitted.append)
        assert result.status == "data"
        assert not result.from_cache
        # Cold cache: root + TLD + SLD = 3 upstream transactions.
        assert len(emitted) == 3
        # Warm: answered from cache, no upstream traffic.
        again = []
        result2 = resolver.resolve(fqdn, QTYPE.A, 1.0, again.append)
        assert result2.from_cache
        assert again == []

    def test_delegation_cache_shortcuts_walk(self, world):
        resolver = make_resolver(world)
        fqdn, zone = popular_fqdn(world)
        resolver.resolve(fqdn, QTYPE.A, 0.0, lambda t: None)
        # Different name in the same zone: only the SLD query remains.
        other = [f for f in zone.fqdns() if f != fqdn]
        if not other:
            pytest.skip("zone has a single fqdn")
        emitted = []
        resolver.resolve(other[0], QTYPE.A, 1.0, emitted.append)
        assert len(emitted) == 1
        assert emitted[0].server_ip in {ns.ip for ns in zone.nameservers}

    def test_expired_record_requeried(self, world):
        resolver = make_resolver(world)
        fqdn, zone = popular_fqdn(world)
        from repro.dnswire.constants import QTYPE as QT

        ttl = zone.get_record(fqdn, QT.A).ttl
        resolver.resolve(fqdn, QTYPE.A, 0.0, lambda t: None)
        emitted = []
        resolver.resolve(fqdn, QTYPE.A, ttl + 1.0, emitted.append)
        assert len(emitted) >= 1  # cache expired, upstream traffic again

    def test_nxdomain_cached(self, world):
        resolver = make_resolver(world)
        dns, _ = world
        zone = dns.slds[0]
        qname = "definitely-missing.%s" % zone.name
        emitted = []
        result = resolver.resolve(qname, QTYPE.A, 0.0, emitted.append)
        assert result.status == "nxdomain"
        assert emitted
        result2 = resolver.resolve(qname, QTYPE.A, 1.0, lambda t: None)
        assert result2.from_cache
        # ...for any qtype (RFC 2308).
        result3 = resolver.resolve(qname, QTYPE.AAAA, 1.0, lambda t: None)
        assert result3.from_cache

    def test_nodata_negative_cached_per_type(self, world):
        dns, _ = world
        resolver = make_resolver(world)
        # Find an IPv4-only FQDN (the Figure 9 NTP host exists in all
        # scenarios with specials enabled).
        fqdn = "time-a.ntpsync.com"
        zone = dns.find_sld_zone(fqdn)
        assert zone is not None
        result = resolver.resolve(fqdn, QTYPE.AAAA, 0.0, lambda t: None)
        assert result.status == "nodata"
        # Within the 15 s negative TTL: cached.
        r2 = resolver.resolve(fqdn, QTYPE.AAAA, 10.0, lambda t: None)
        assert r2.from_cache
        # After it expires: upstream again (the Figure 9 mechanism).
        emitted = []
        r3 = resolver.resolve(fqdn, QTYPE.AAAA, 20.0, emitted.append)
        assert not r3.from_cache
        assert emitted

    def test_unknown_tld_nxdomain_from_root(self, world):
        resolver = make_resolver(world)
        emitted = []
        result = resolver.resolve("www.example.qqzz", QTYPE.A, 0.0,
                                  emitted.append)
        assert result.status == "nxdomain"
        dns, _ = world
        root_ips = {ns.ip for ns in dns.root.nameservers}
        assert emitted[-1].server_ip in root_ips

    def test_nonexistent_sld_nxdomain_from_tld(self, world):
        resolver = make_resolver(world)
        emitted = []
        result = resolver.resolve("host.nosuchdomain99.com", QTYPE.A, 0.0,
                                  emitted.append)
        assert result.status == "nxdomain"
        dns, _ = world
        gtld_ips = {ns.ip for ns in dns.root.tlds["com"].nameservers}
        assert emitted[-1].server_ip in gtld_ips

    def test_qmin_sends_minimized_names(self, world):
        dns, _ = world
        resolver = make_resolver(world, qmin=True, ip="10.0.9.53")
        fqdn, _zone = popular_fqdn(world)
        emitted = []
        resolver.resolve(fqdn, QTYPE.A, 0.0, emitted.append)
        root_ips = {ns.ip for ns in dns.root.nameservers}
        for txn in emitted:
            if txn.server_ip in root_ips:
                assert txn.qdots == 1  # only the TLD label
        # The full name went only to the SLD auth.
        assert emitted[-1].qname == fqdn

    def test_non_qmin_leaks_full_qname(self, world):
        dns, _ = world
        resolver = make_resolver(world, qmin=False, ip="10.0.8.53")
        fqdn, _zone = popular_fqdn(world)
        emitted = []
        resolver.resolve(fqdn, QTYPE.A, 0.0, emitted.append)
        assert all(txn.qname == fqdn for txn in emitted)

    def test_neg_ttl_cap(self, world):
        resolver = make_resolver(world, ip="10.0.7.53")
        resolver.neg_ttl_cap = 30.0
        fqdn = "blogs.webjournal.net"  # negTTL 3600 in the zone
        dns, _ = world
        if dns.find_sld_zone(fqdn) is None:
            pytest.skip("specials disabled")
        resolver.resolve(fqdn, QTYPE.AAAA, 0.0, lambda t: None)
        # After the clamp (30 s) the negative entry is gone, despite
        # the zone's 3600 s negative TTL.
        emitted = []
        r = resolver.resolve(fqdn, QTYPE.AAAA, 60.0, emitted.append)
        assert not r.from_cache

    def test_cache_hit_ratio_accounting(self, world):
        resolver = make_resolver(world, ip="10.0.6.53")
        fqdn, _zone = popular_fqdn(world)
        resolver.resolve(fqdn, QTYPE.A, 0.0, lambda t: None)
        resolver.resolve(fqdn, QTYPE.A, 1.0, lambda t: None)
        assert (resolver.cache_answers, resolver.client_queries) == (1, 2)


class TestUnansweredQueries:
    def test_retries_and_servfail(self):
        dns = build_global_dns(Scenario.tiny(seed=12))
        service = AuthoritativeService(dns.topology, dns.hub,
                                       unanswered_rate=1.0)  # total loss
        resolver = RecursiveResolver("10.0.0.53", dns, service, dns.hub)
        emitted = []
        result = resolver.resolve("www.example99.com", QTYPE.A, 0.0,
                                  emitted.append)
        assert result.status == "servfail"
        assert all(not t.answered for t in emitted)
        assert len(emitted) >= 2  # retried at least once
