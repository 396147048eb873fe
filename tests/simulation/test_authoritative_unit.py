"""Direct unit tests for the authoritative service."""

import pytest

from repro.dnswire.constants import QTYPE, RCODE
from repro.simulation.authoritative import AuthoritativeService
from repro.simulation.buildout import build_global_dns
from repro.simulation.resolver import RecursiveResolver
from repro.simulation.scenario import Scenario


@pytest.fixture(scope="module")
def world():
    dns = build_global_dns(Scenario.tiny(seed=401))
    return dns


def make_service(dns, **kw):
    kw.setdefault("unanswered_rate", 0.0)
    kw.setdefault("wire_check_fraction", 0.0)
    return AuthoritativeService(dns.topology, dns.hub, **kw)


def make_resolver(dns, service, **kw):
    return RecursiveResolver("10.9.9.53", dns, service, dns.hub, **kw)


def test_serve_data_answer_fields(world):
    service = make_service(world)
    resolver = make_resolver(world, service, dnssec_ok=True)
    zone = world.slds[0]
    fqdn = "www." + zone.name
    ns = zone.nameservers[0]
    txn, answer = service.serve(resolver, ns, zone, fqdn, QTYPE.A, 5.0)
    assert answer is not None
    assert txn.ts == 5.0
    assert txn.qname == fqdn
    assert txn.aa
    assert txn.noerror
    assert txn.answer_count == len(answer.records)
    assert txn.answer_ips == answer.answer_ips
    assert txn.delay_ms > 0
    assert txn.response_size > 20
    assert txn.edns_do  # resolver requested DNSSEC


def test_serve_referral_fields(world):
    service = make_service(world)
    resolver = make_resolver(world, service)
    com = world.root.tlds["com"]
    zone = next(z for z in world.slds if z.name.endswith(".com"))
    ns = com.nameservers[0]
    txn, answer = service.serve(resolver, ns, com,
                                "www." + zone.name, QTYPE.A, 0.0)
    assert answer.is_referral
    assert not txn.aa
    assert txn.authority_ns_count == len(zone.nameservers)
    assert txn.ns_names == tuple(n.hostname for n in zone.nameservers)
    assert txn.additional_count == txn.authority_ns_count  # glue


def test_serve_nxdomain_fields(world):
    service = make_service(world)
    resolver = make_resolver(world, service)
    zone = world.slds[0]
    txn, answer = service.serve(resolver, zone.nameservers[0], zone,
                                "missing123." + zone.name, QTYPE.A, 0.0)
    assert txn.rcode == RCODE.NXDOMAIN
    assert txn.answer_count == 0
    assert txn.answer_ips == ()


def test_total_loss_yields_unanswered(world):
    service = make_service(world, unanswered_rate=1.0)
    resolver = make_resolver(world, service)
    zone = world.slds[0]
    txn, answer = service.serve(resolver, zone.nameservers[0], zone,
                                zone.name, QTYPE.A, 0.0)
    assert answer is None
    assert not txn.answered
    assert txn.rcode is None


def test_loss_rate_statistical(world):
    service = make_service(world, unanswered_rate=0.3)
    resolver = make_resolver(world, service)
    zone = world.slds[0]
    lost = sum(
        1 for i in range(500)
        if service.serve(resolver, zone.nameservers[0], zone,
                         zone.name, QTYPE.A, float(i))[1] is None)
    assert 0.2 < lost / 500 < 0.4


def test_signed_zone_sets_rrsig_when_do(world):
    service = make_service(world)
    signed_zone = next(z for z in world.slds if z.signed)
    fqdn = "www." + signed_zone.name
    if signed_zone.get_record(fqdn, QTYPE.A) is None:
        fqdn = signed_zone.name
    do_resolver = make_resolver(world, service, dnssec_ok=True)
    txn, _ = service.serve(do_resolver, signed_zone.nameservers[0],
                           signed_zone, fqdn, QTYPE.A, 0.0)
    assert txn.has_rrsig
    plain = RecursiveResolver("10.9.8.53", world, service, world.hub,
                              dnssec_ok=False)
    txn2, _ = service.serve(plain, signed_zone.nameservers[0],
                            signed_zone, fqdn, QTYPE.A, 0.0)
    assert not txn2.has_rrsig  # no DO bit -> no RRSIGs returned


def test_observed_ttl_consistent_with_path(world):
    from repro.netsim.hops import infer_hops

    service = make_service(world)
    resolver = make_resolver(world, service)
    zone = world.slds[0]
    ns = zone.nameservers[0]
    txn, _ = service.serve(resolver, ns, zone, zone.name, QTYPE.A, 0.0)
    profile = world.topology.path_profile(resolver.ip, ns)
    assert infer_hops(txn.observed_ttl) == profile.hops
