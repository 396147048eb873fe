"""Tests for the longest-prefix-match ASN database."""

import pytest

from repro.netsim.asdb import AsDatabase


@pytest.fixture()
def db():
    d = AsDatabase()
    d.add_prefix("10.0.0.0/8", 100)
    d.add_prefix("10.1.0.0/16", 200)
    d.add_prefix("10.1.2.0/24", 300)
    d.add_prefix("192.0.2.0/24", 400)
    d.add_prefix("2001:db8::/32", 500)
    return d


def test_longest_prefix_wins(db):
    assert db.lookup("10.1.2.3") == 300
    assert db.lookup("10.1.9.9") == 200
    assert db.lookup("10.9.9.9") == 100


def test_exact_slash24(db):
    assert db.lookup("192.0.2.200") == 400


def test_unrouted_returns_none(db):
    assert db.lookup("172.16.0.1") is None


def test_ipv6_lookup(db):
    assert db.lookup("2001:db8::53") == 500
    assert db.lookup("2001:dead::1") is None


def test_default_route():
    d = AsDatabase()
    d.add_prefix("0.0.0.0/0", 1)
    assert d.lookup("8.8.8.8") == 1


def test_host_route_beats_net_route():
    d = AsDatabase()
    d.add_prefix("198.51.100.0/24", 10)
    d.add_prefix("198.51.100.53/32", 20)
    assert d.lookup("198.51.100.53") == 20
    assert d.lookup("198.51.100.54") == 10


def test_overwrite_same_prefix():
    d = AsDatabase()
    d.add_prefix("203.0.113.0/24", 1)
    d.add_prefix("203.0.113.0/24", 2)
    assert d.lookup("203.0.113.1") == 2
    assert sum(len(table) for table in d._v4.values()) == 1


def test_len(db):
    assert sum(len(table) for table in db._v4.values()) + \
        sum(len(table) for table in db._v6.values()) == 5


def test_rejects_malformed_prefix():
    d = AsDatabase()
    with pytest.raises(ValueError):
        d.add_prefix("10.0.0.0", 1)  # missing length
    with pytest.raises(ValueError):
        d.add_prefix("10.0.0.0/33", 1)
    with pytest.raises(ValueError):
        d.add_prefix("2001:db8::/200", 1)


def test_from_tsv_skips_comments():
    d = AsDatabase.from_tsv(["# comment", "", "10.0.0.0/8\t7"])
    assert d.lookup("10.1.1.1") == 7
