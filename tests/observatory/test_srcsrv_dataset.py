"""Tests for the srcsrv (resolver, nameserver)-pair dataset.

§3.1: "Top-30K pairs of resolvers and nameservers ... transactions
aggregated using the combined IP addresses as key" -- the dataset the
qmin study (§3.6) draws its per-pair query behaviour from.
"""

from repro.observatory.pipeline import Observatory
from tests.util import cut_windows, make_txn


def test_pairs_tracked_independently():
    obs = Observatory(datasets=[("srcsrv", 64)], use_bloom_gate=False,
                      skip_recent_inserts=False)
    for i in range(10):
        obs.ingest(make_txn(ts=float(i), resolver_ip="10.0.0.1",
                            server_ip="192.0.2.1"))
    for i in range(5):
        obs.ingest(make_txn(ts=10.0 + i, resolver_ip="10.0.0.2",
                            server_ip="192.0.2.1"))
    obs.finish()
    top = obs.tracker("srcsrv").top()
    assert top[0].key == "10.0.0.1|192.0.2.1"
    assert top[0].hits == 10
    assert top[1].key == "10.0.0.2|192.0.2.1"


def test_pair_features_are_per_pair():
    obs = Observatory(datasets=[("srcsrv", 64)], use_bloom_gate=False,
                      skip_recent_inserts=False)
    dump = cut_windows(obs, [
        make_txn(ts=0.0, resolver_ip="10.0.0.1", server_ip="192.0.2.1",
                 qname="a.example.com"),
        make_txn(ts=1.0, resolver_ip="10.0.0.2", server_ip="192.0.2.1",
                 qname="b.example.com")])["srcsrv"][-1]
    rows = dump.row_map()
    assert round(rows["10.0.0.1|192.0.2.1"]["qnamesa"]) == 1
    assert round(rows["10.0.0.2|192.0.2.1"]["qnamesa"]) == 1


def test_srcsrv_in_simulation():
    from repro.simulation import Scenario, SieChannel

    channel = SieChannel(Scenario.tiny(seed=55, duration=120.0,
                                       client_qps=30.0))
    obs = Observatory(datasets=[("srcsrv", 500)], use_bloom_gate=False)
    obs.consume(channel.run())
    obs.finish()
    top = obs.tracker("srcsrv").top(20)
    assert top
    resolver_addrs = {r.ip for r in channel.resolvers} | {
        r.ipv6_addr for r in channel.resolvers if r.ipv6_addr}
    for entry in top:
        resolver_ip, server_ip = entry.key.split("|")
        assert resolver_ip in resolver_addrs
        assert server_ip in channel.dns.topology.nameservers_by_ip
