"""Tests for the transaction summary record."""

import pytest

from repro.dnswire.constants import QTYPE, RCODE
from repro.observatory.transaction import Transaction
from tests.util import make_nodata, make_nxdomain, make_txn


class TestDerivedViews:
    def test_noerror_with_data(self):
        txn = make_txn()
        assert txn.noerror
        assert txn.answer_count > 0

    def test_nodata(self):
        txn = make_nodata()
        assert txn.noerror
        assert (txn.answer_count, txn.authority_ns_count) == (0, 0)

    def test_nxdomain(self):
        txn = make_nxdomain()
        assert txn.rcode == RCODE.NXDOMAIN
        assert not txn.noerror

    def test_unanswered(self):
        txn = make_txn(answered=False)
        assert not txn.answered
        assert txn.rcode is None
        assert not txn.noerror

    def test_qdots(self):
        assert make_txn(qname="www.example.com").qdots == 3
        assert make_txn(qname="com").qdots == 1

    def test_qtype_name(self):
        assert make_txn(qtype=QTYPE.AAAA).qtype_name() == "AAAA"
        assert make_txn(qtype=65280).qtype_name() == "TYPE65280"

    def test_qname_normalized(self):
        assert make_txn(qname="WWW.Example.COM.").qname == "www.example.com"


class TestLineSerialization:
    def test_roundtrip_full(self):
        txn = make_txn(
            ts=1234.5, qname="cdn.example.org", qtype=QTYPE.AAAA,
            aa=True, edns_do=True, has_rrsig=True, delay_ms=12.345,
            answer_ttls=(300, 60), ns_ttls=(86400,),
            answer_ips=("2001:db8::1",), cname_targets=("edge.example.net",),
            authority_ns_count=2, additional_count=1,
        )
        back = Transaction.from_line(txn.to_line())
        for attr in Transaction.__slots__:
            assert getattr(back, attr) == getattr(txn, attr), attr

    def test_roundtrip_unanswered(self):
        txn = make_txn(answered=False)
        back = Transaction.from_line(txn.to_line())
        assert not back.answered
        assert back.rcode is None

    def test_roundtrip_root_qname(self):
        txn = make_txn(qname=".", answer_count=0, answer_ttls=(),
                       answer_ips=())
        back = Transaction.from_line(txn.to_line())
        assert back.qname == ""

    def test_rejects_malformed_line(self):
        with pytest.raises(ValueError):
            Transaction.from_line("only\ttwo")

    def test_line_is_single_line(self):
        assert "\n" not in make_txn().to_line()

    def test_repr_mentions_status(self):
        assert "NXDOMAIN" in repr(make_nxdomain())
        assert "UNANSWERED" in repr(make_txn(answered=False))
