"""Tests for the organization/AS/nameserver topology."""

import pytest

from repro.simulation.rng import RngHub
from repro.simulation.topology import MAJOR_ORGS, Topology


@pytest.fixture(scope="module")
def topo():
    return Topology(RngHub(42), n_tail_orgs=10)


def test_major_orgs_present(topo):
    for name in ("AMAZON", "VERISIGN", "CLOUDFLARE", "AKAMAI",
                 "MICROSOFT", "PCH", "ULTRADNS", "GOOGLE", "DYNDNS",
                 "GODADDY"):
        assert name in topo.orgs


def test_as_counts_match_table1_cast(topo):
    expected = {name: n_ases for name, _, n_ases, _, _, _, _ in MAJOR_ORGS}
    for name, n_ases in expected.items():
        assert len(topo.orgs[name].asns) == n_ases


def test_tail_orgs_created(topo):
    assert sum(name.startswith("HOSTER") for name in topo.orgs) == 10


def test_prefixes_registered_in_asdb(topo):
    org = topo.orgs["AMAZON"]
    prefix = org.prefixes[0]
    sample_ip = prefix.split("/")[0].rsplit(".", 2)[0] + ".1.1"
    asn = topo.asdb.lookup(sample_ip)
    assert asn in org.asns


def test_asname_org_roundtrip(topo):
    """The analysis-side attribution recovers the ground-truth org."""
    for name in ("AMAZON", "CLOUDFLARE", "MICROSOFT", "PCH", "GODADDY"):
        org = topo.orgs[name]
        for asn in org.asns:
            assert topo.asnames.org(asn) == name


def test_allocate_nameserver(topo):
    ns = topo.allocate_nameserver("GOOGLE")
    assert ns.org == "GOOGLE"
    assert ns.ip in topo.nameservers_by_ip
    assert topo.org_of_ip(ns.ip) == "GOOGLE"


def test_nameserver_ips_unique(topo):
    ips = [topo.allocate_nameserver("AKAMAI").ip for _ in range(300)]
    assert len(set(ips)) == 300


def test_anycast_redraws_distance_class():
    topo = Topology(RngHub(1), n_tail_orgs=2)
    ns = topo.allocate_nameserver("CLOUDFLARE")  # anycast org
    classes = set()
    for i in range(40):
        profile = topo.path_profile("10.0.%d.53" % i, ns)
        # base delay implies a class; collect rough buckets
        if profile.base_delay_ms < 5:
            classes.add("colocated")
        elif profile.base_delay_ms < 35:
            classes.add("regional")
        else:
            classes.add("distant")
    assert len(classes) >= 2  # different mirrors for different resolvers


def test_unicast_keeps_class():
    topo = Topology(RngHub(1), n_tail_orgs=2)
    ns = topo.allocate_nameserver("AMAZON")  # unicast org
    ns.distance_class = "colocated"
    for i in range(20):
        profile = topo.path_profile("10.0.%d.53" % i, ns)
        assert profile.base_delay_ms < 5.0


def test_path_profile_cached_and_deterministic():
    topo = Topology(RngHub(9), n_tail_orgs=2)
    ns = topo.allocate_nameserver("AMAZON")
    p1 = topo.path_profile("10.0.0.53", ns)
    p2 = topo.path_profile("10.0.0.53", ns)
    assert p1 is p2
    # Same seed, fresh topology: same profile values.
    topo2 = Topology(RngHub(9), n_tail_orgs=2)
    ns2 = topo2.allocate_nameserver("AMAZON")
    p3 = topo2.path_profile("10.0.0.53", ns2)
    assert p3.hops == p1.hops
    assert p3.base_delay_ms == pytest.approx(p1.base_delay_ms)


def test_cdn_paths_shorter_than_cloud():
    """Table 1 shape: AKAMAI/CLOUDFLARE beat AMAZON/GOOGLE on delay."""
    topo = Topology(RngHub(5), n_tail_orgs=2)
    def mean_delay(org, n=30):
        total = 0.0
        for i in range(n):
            ns = topo.allocate_nameserver(org)
            profile = topo.path_profile("10.9.%d.53" % i, ns)
            total += profile.base_delay_ms
        return total / n
    assert mean_delay("AKAMAI") < mean_delay("AMAZON")
    assert mean_delay("CLOUDFLARE") < mean_delay("GOOGLE")
