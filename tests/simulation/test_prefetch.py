"""Tests for resolver query prefetching (§5.1 traffic factor)."""

import pytest

from repro.dnswire.constants import QTYPE
from repro.simulation.authoritative import AuthoritativeService
from repro.simulation.buildout import build_global_dns
from repro.simulation.resolver import RecursiveResolver
from repro.simulation.scenario import Scenario
from tests.util import tuned


@pytest.fixture(scope="module")
def world():
    dns = build_global_dns(Scenario.tiny(seed=71))
    service = AuthoritativeService(dns.topology, dns.hub,
                                   unanswered_rate=0.0,
                                   wire_check_fraction=0.0)
    return dns, service


def make_resolver(world, prefetch, ip="10.0.5.53"):
    dns, service = world
    return RecursiveResolver(ip, dns, service, dns.hub, prefetch=prefetch)


def target(world):
    dns, _ = world
    fqdn, zone = dns.catalog[0]
    ttl = zone.get_record(fqdn, QTYPE.A).ttl
    return fqdn, ttl


def test_prefetch_refreshes_before_expiry(world):
    resolver = make_resolver(world, prefetch=True)
    fqdn, ttl = target(world)
    resolver.resolve(fqdn, QTYPE.A, 0.0, lambda t: None)
    # A query inside the prefetch window: served from cache *and*
    # refreshed upstream.
    emitted = []
    result = resolver.resolve(fqdn, QTYPE.A, ttl - 5.0, emitted.append)
    assert result.status == "data"
    assert emitted  # upstream refresh happened
    assert resolver.prefetches == 1
    # The refresh re-armed the cache: a query just after the original
    # expiry is still a pure cache hit.
    emitted2 = []
    r3 = resolver.resolve(fqdn, QTYPE.A, ttl + 5.0, emitted2.append)
    assert r3.from_cache
    assert emitted2 == []


def test_no_prefetch_outside_window(world):
    resolver = make_resolver(world, prefetch=True, ip="10.0.5.54")
    fqdn, ttl = target(world)
    resolver.resolve(fqdn, QTYPE.A, 0.0, lambda t: None)
    emitted = []
    result = resolver.resolve(fqdn, QTYPE.A, ttl / 2.0, emitted.append)
    assert result.from_cache
    assert emitted == []
    assert resolver.prefetches == 0


def test_disabled_by_default(world):
    resolver = make_resolver(world, prefetch=False, ip="10.0.5.55")
    fqdn, ttl = target(world)
    resolver.resolve(fqdn, QTYPE.A, 0.0, lambda t: None)
    emitted = []
    result = resolver.resolve(fqdn, QTYPE.A, ttl - 5.0, emitted.append)
    assert result.from_cache
    assert emitted == []


def test_scenario_fraction_enables_prefetch():
    from repro.simulation.sie import SieChannel

    channel = SieChannel(tuned(Scenario.tiny(seed=72, duration=30.0),
                               prefetch_resolver_fraction=1.0))
    assert all(r.prefetch for r in channel.resolvers)
    channel_off = SieChannel(Scenario.tiny(seed=72, duration=30.0))
    assert not any(r.prefetch for r in channel_off.resolvers)
