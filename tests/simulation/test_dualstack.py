"""Tests for dual-stack (IPv6) nameserver transport."""

import ipaddress

import pytest

from repro.netsim.addr import is_ipv6
from repro.simulation.rng import RngHub
from repro.simulation.scenario import Scenario
from repro.simulation.topology import Topology
from tests.util import run_scenario, tuned


class TestTopologyV6:
    def test_v6_prefixes_allocated_and_routed(self):
        topo = Topology(RngHub(5), n_tail_orgs=4)
        org = topo.orgs["CLOUDFLARE"]
        assert len(org.v6_prefixes) == len(org.asns)
        for prefix in org.v6_prefixes:
            network = ipaddress.IPv6Network(prefix)
            sample = str(network.network_address + 1)
            assert topo.asdb.lookup(sample) in org.asns

    def test_dual_stack_addresses_are_valid(self):
        topo = Topology(RngHub(6), n_tail_orgs=4)
        v6_count = 0
        for _ in range(40):
            ns = topo.allocate_nameserver("AKAMAI")
            if ns.ipv6 is not None:
                v6_count += 1
                ipaddress.IPv6Address(ns.ipv6)  # must parse
                assert topo.nameservers_by_ip[ns.ipv6] is ns
        # CDNs are 90% dual-stack.
        assert v6_count > 25

    def test_v6_attribution_matches_org(self):
        topo = Topology(RngHub(7), n_tail_orgs=4)
        for _ in range(20):
            ns = topo.allocate_nameserver("GOOGLE")
            if ns.ipv6:
                assert topo.org_of_ip(ns.ipv6) == "GOOGLE"

    def test_tail_orgs_less_dual_stack(self):
        topo = Topology(RngHub(8), n_tail_orgs=6)
        tail = next(n for n in topo.orgs if n.startswith("HOSTER"))
        counts = {"cdn": 0, "tail": 0}
        for _ in range(60):
            if topo.allocate_nameserver("CLOUDFLARE").ipv6:
                counts["cdn"] += 1
            if topo.allocate_nameserver(tail).ipv6:
                counts["tail"] += 1
        assert counts["cdn"] > counts["tail"]


class TestV6Transport:
    @pytest.fixture(scope="class")
    def run(self):
        return run_scenario(tuned(Scenario.tiny(
            seed=91, duration=120.0, client_qps=40.0),
            resolver_ipv6_fraction=0.5))

    def test_stream_contains_both_families(self, run):
        _, txns = run
        families = {is_ipv6(t.server_ip) for t in txns}
        assert families == {True, False}

    def test_v6_pairs_use_v6_both_sides(self, run):
        _, txns = run
        for txn in txns:
            if is_ipv6(txn.server_ip):
                assert is_ipv6(txn.resolver_ip)

    def test_v6_servers_resolve_to_known_nameservers(self, run):
        channel, txns = run
        registry = channel.dns.topology.nameservers_by_ip
        v6_servers = {t.server_ip for t in txns if is_ipv6(t.server_ip)}
        assert v6_servers
        assert v6_servers <= set(registry)

    def test_disabled_when_fraction_zero(self):
        _, txns = run_scenario(tuned(Scenario.tiny(
            seed=91, duration=60.0, client_qps=20.0),
            resolver_ipv6_fraction=0.0))
        assert not any(is_ipv6(t.server_ip) for t in txns)

    def test_v6_share_tracks_fraction(self, run):
        _, txns = run
        share = sum(1 for t in txns if is_ipv6(t.server_ip)) / len(txns)
        # 50% of resolvers, ~50% of their queries to ~dual-stack-heavy
        # servers: a visible minority share.
        assert 0.03 < share < 0.5
