"""Tests for the §2.3 feature set."""

import pytest

from repro.dnswire.constants import QTYPE, RCODE
from repro.observatory.features import ALL_COLUMNS, FeatureSet
from tests.util import make_nodata, make_nxdomain, make_txn


@pytest.fixture()
def fs():
    return FeatureSet(hll_precision=10)


class TestCounters:
    def test_hits_and_ok(self, fs):
        fs.update(make_txn())
        fs.update(make_txn())
        assert fs.hits == 2
        assert fs.ok == 2
        assert fs.ok_ans == 2

    def test_unanswered(self, fs):
        fs.update(make_txn(answered=False))
        assert fs.unans == 1
        assert fs.ok == 0

    def test_rcode_counters(self, fs):
        fs.update(make_nxdomain())
        fs.update(make_txn(rcode=RCODE.REFUSED, answer_count=0))
        fs.update(make_txn(rcode=RCODE.SERVFAIL, answer_count=0))
        assert (fs.nxd, fs.rfs, fs.fail) == (1, 1, 1)

    def test_nodata_vs_delegation(self, fs):
        fs.update(make_nodata())
        fs.update(make_txn(answer_count=0, authority_ns_count=2,
                           answer_ttls=(), answer_ips=(),
                           ns_ttls=(3600, 3600)))
        assert fs.ok_nil == 1
        assert fs.ok_ns == 1

    def test_aaaa_counters(self, fs):
        fs.update(make_txn(qtype=QTYPE.AAAA, answer_ips=("2001:db8::1",)))
        fs.update(make_nodata(qtype=QTYPE.AAAA))
        assert fs.ok6 == 2
        assert fs.ok6nil == 1

    def test_ok_sec_requires_do_rrsig_and_data(self, fs):
        fs.update(make_txn(edns_do=True, has_rrsig=True))
        fs.update(make_txn(edns_do=True, has_rrsig=False))
        fs.update(make_txn(edns_do=False, has_rrsig=True))
        fs.update(make_nodata(edns_do=True, has_rrsig=True))
        assert fs.ok_sec == 1

    def test_ok_add(self, fs):
        fs.update(make_txn(additional_count=2))
        fs.update(make_txn(additional_count=0))
        assert fs.ok_add == 1


class TestCardinalities:
    def test_qnames_existing_vs_all(self, fs):
        fs.update(make_txn(qname="a.example.com"))
        fs.update(make_nxdomain(qname="b.example.com"))
        # qnamesa counts all, qnames only NoError names.
        assert round(fs.qnamesa.cardinality()) == 2
        assert round(fs.qnames.cardinality()) == 1

    def test_tlds_eslds_from_noerror(self, fs):
        fs.update(make_txn(qname="www.example.com"))
        fs.update(make_txn(qname="www.bbc.co.uk"))
        fs.update(make_nxdomain(qname="x.invalid-tld.zz"))
        assert round(fs.tlds.cardinality()) == 2  # com, co.uk
        assert round(fs.eslds.cardinality()) == 2  # example.com, bbc.co.uk

    def test_ip4s_ip6s_split(self, fs):
        fs.update(make_txn(answer_ips=("198.51.100.1", "198.51.100.2")))
        fs.update(make_txn(qtype=QTYPE.AAAA, answer_ips=("2001:db8::1",)))
        assert round(fs.ip4s.cardinality()) == 2
        assert round(fs.ip6s.cardinality()) == 1

    def test_ips_only_for_address_queries(self, fs):
        fs.update(make_txn(qtype=QTYPE.TXT, answer_ips=("198.51.100.1",)))
        assert round(fs.ip4s.cardinality()) == 0

    def test_sources_and_resolvers(self, fs):
        fs.update(make_txn(resolver_ip="10.0.0.1", source="s1"))
        fs.update(make_txn(resolver_ip="10.0.0.2", source="s2"))
        fs.update(make_txn(resolver_ip="10.0.0.2", source="s2"))
        assert fs.sources == 2
        assert round(fs.srcips.cardinality()) == 2

    def test_qtypes_exact(self, fs):
        for qtype in (QTYPE.A, QTYPE.AAAA, QTYPE.MX, QTYPE.A):
            fs.update(make_txn(qtype=qtype))
        assert fs.qtypes == 3


class TestAveragesAndDistributions:
    def test_qdots_mean(self, fs):
        fs.update(make_txn(qname="a.b.c"))       # 3 labels
        fs.update(make_txn(qname="example.com"))  # 2 labels
        assert fs.qdots.mean == pytest.approx(2.5)

    def test_ttl_top(self, fs):
        for _ in range(5):
            fs.update(make_txn(answer_ttls=(300,)))
        fs.update(make_txn(answer_ttls=(60,)))
        assert fs.ttl.top(1)[0][0] == 300

    def test_nsttl(self, fs):
        fs.update(make_txn(authority_ns_count=2, ns_ttls=(86400, 86400)))
        assert fs.nsttl.top(1)[0][0] == 86400

    def test_delay_quartiles(self, fs):
        for delay in (10.0, 20.0, 30.0, 40.0, 50.0):
            fs.update(make_txn(delay_ms=delay))
        q25, q50, q75 = fs.resp_delays.quartiles()
        assert q25 <= q50 <= q75
        assert 15 < q50 < 45

    def test_hops_from_observed_ttl(self, fs):
        fs.update(make_txn(observed_ttl=57))  # 64 - 57 = 7 hops
        assert fs.network_hops.mean == pytest.approx(7.0)


class TestRowAndClear:
    def test_row_covers_all_columns(self, fs):
        fs.update(make_txn())
        row = fs.as_row()
        assert set(row) == set(ALL_COLUMNS)

    def test_row_values_sane(self, fs):
        for i in range(10):
            fs.update(make_txn(ts=i, delay_ms=10 + i))
        row = fs.as_row()
        assert row["hits"] == 10
        assert row["ok"] == 10
        assert row["ttl_top1"] == 300
        assert row["ttl_top1_share"] == pytest.approx(1.0)
        assert row["delay_q25"] <= row["delay_q50"] <= row["delay_q75"]

    def test_empty_row(self, fs):
        row = fs.as_row()
        assert row["hits"] == 0
        assert row["delay_q50"] == 0
