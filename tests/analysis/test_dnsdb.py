"""Tests for the DNSDB-like history store."""

from repro.analysis.dnsdb import DnsdbStore
from repro.dnswire.constants import QTYPE
from tests.util import make_txn


def test_record_and_states():
    db = DnsdbStore()
    db.record("www.example.com", QTYPE.A, ("1.2.3.4",), 300, ts=10.0)
    db.record("www.example.com", QTYPE.A, ("1.2.3.4",), 300, ts=50.0)
    states = db.states("www.example.com", QTYPE.A)
    assert len(states) == 1
    assert states[0].count == 2
    assert states[0].first_seen == 10.0
    assert states[0].last_seen == 50.0


def test_value_change_detected():
    db = DnsdbStore()
    db.record("ns2.oh-isp.com", QTYPE.A, ("31.222.208.197",), 600, 0.0)
    db.record("ns2.oh-isp.com", QTYPE.A, ("52.166.106.97",), 38400, 100.0)
    change = db.value_change("ns2.oh-isp.com", QTYPE.A)
    assert change == (("31.222.208.197",), ("52.166.106.97",))
    assert db.ttl_transition("ns2.oh-isp.com", QTYPE.A) == (600, 38400)


def test_no_change_returns_none():
    db = DnsdbStore()
    db.record("x.com", QTYPE.A, ("1.1.1.1",), 60, 0.0)
    assert db.value_change("x.com", QTYPE.A) is None
    assert db.ttl_transition("x.com", QTYPE.A) is None


def test_value_order_does_not_matter():
    db = DnsdbStore()
    db.record("x.com", QTYPE.A, ("2.2.2.2", "1.1.1.1"), 60, 0.0)
    db.record("x.com", QTYPE.A, ("1.1.1.1", "2.2.2.2"), 60, 1.0)
    assert len(db.states("x.com", QTYPE.A)) == 1


def test_distinct_counts():
    db = DnsdbStore()
    for i, ttl in enumerate((100, 90, 80, 70)):
        db.record("dyn.example", QTYPE.A, ("9.9.9.9",), ttl, float(i))
    assert db.distinct_ttls("dyn.example", QTYPE.A) == 4
    assert len(db.states("dyn.example", QTYPE.A)) == 4


def test_observe_transaction_a_and_ns():
    db = DnsdbStore()
    txn = make_txn(qname="www.example.com", aa=True,
                   answer_ips=("5.6.7.8",),
                   answer_ttls=(120,), authority_ns_count=2,
                   ns_ttls=(3600, 3600))
    txn.ns_names = ("ns1.example.com", "ns2.example.com")
    db.observe_transaction(txn)
    assert db.states("www.example.com", QTYPE.A)
    assert db.states("www.example.com", QTYPE.NS)


def test_observe_skips_failures():
    db = DnsdbStore()
    db.observe_transaction(make_txn(answered=False))
    from tests.util import make_nxdomain

    db.observe_transaction(make_nxdomain())
    assert db._history == {}
