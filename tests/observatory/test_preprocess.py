"""Tests for raw-packet preprocessing (the §2.1 parser)."""

import pytest

from repro.dnswire.constants import FLAGS, QTYPE, RCODE
from repro.dnswire.edns import make_opt
from repro.dnswire.message import Message, ResourceRecord
from repro.dnswire.rdata import AAAA, CNAME, NS, RRSIG, SOA, A
from repro.netsim.packet import build_udp_ipv4
from repro.observatory.preprocess import PreprocessError, summarize_transaction
from repro.observatory.transaction import Transaction


def wrap(msg, src, dst, sport=34567, dport=53, ttl=60):
    return build_udp_ipv4(src, dst, sport, dport, msg.to_wire(), ttl=ttl)


def query_response_pair(qname="www.example.com", qtype=QTYPE.A,
                        rcode=RCODE.NOERROR, answers=(), authority=(),
                        additional=(), aa=True, do=False, msg_id=77):
    query = Message.make_query(qname, qtype, msg_id=msg_id)
    if do:
        query.additional.append(make_opt(dnssec_ok=True))
    response = Message.make_response(query, rcode=rcode, authoritative=aa)
    response.answer.extend(answers)
    response.authority.extend(authority)
    response.additional.extend(additional)
    qpkt = wrap(query, "10.0.0.1", "192.0.2.53")
    rpkt = wrap(response, "192.0.2.53", "10.0.0.1", sport=53, dport=34567,
                ttl=57)
    return qpkt, rpkt


def test_basic_answer():
    qpkt, rpkt = query_response_pair(answers=[
        ResourceRecord("www.example.com", QTYPE.A, 300, A("198.51.100.1")),
    ])
    txn = summarize_transaction(qpkt, rpkt, 100.0, 100.020)
    assert txn.resolver_ip == "10.0.0.1"
    assert txn.server_ip == "192.0.2.53"
    assert txn.qname == "www.example.com"
    assert txn.qtype == QTYPE.A
    assert txn.noerror and txn.aa
    assert txn.answer_count == 1
    assert txn.answer_ttls == (300,)
    assert txn.answer_ips == ("198.51.100.1",)
    assert txn.delay_ms == pytest.approx(20.0, abs=0.5)
    assert txn.observed_ttl == 57
    assert txn.response_size > 0


def test_unanswered_query():
    qpkt, _ = query_response_pair()
    txn = summarize_transaction(qpkt, None, 50.0)
    assert not txn.answered
    assert txn.rcode is None
    assert txn.server_ip == "192.0.2.53"


def test_nxdomain_with_soa():
    qpkt, rpkt = query_response_pair(
        rcode=RCODE.NXDOMAIN,
        authority=[ResourceRecord(
            "example.com", QTYPE.SOA, 300,
            SOA("ns1.example.com", "hostmaster.example.com", minimum=60))],
    )
    txn = summarize_transaction(qpkt, rpkt, 0.0, 0.01)
    assert txn.rcode == RCODE.NXDOMAIN
    # SOA is not an NS record: no delegation counted.
    assert txn.authority_ns_count == 0


def test_delegation_counts_ns():
    qpkt, rpkt = query_response_pair(
        authority=[
            ResourceRecord("example.com", QTYPE.NS, 86400, NS("ns1.example.com")),
            ResourceRecord("example.com", QTYPE.NS, 86400, NS("ns2.example.com")),
        ],
        additional=[
            ResourceRecord("ns1.example.com", QTYPE.A, 86400, A("192.0.2.10")),
        ],
    )
    txn = summarize_transaction(qpkt, rpkt, 0.0, 0.01)
    assert txn.authority_ns_count == 2
    assert txn.ns_ttls == (86400, 86400)
    assert txn.additional_count == 1
    assert txn.noerror and txn.authority_ns_count > 0


def test_cname_chain_extracted():
    qpkt, rpkt = query_response_pair(answers=[
        ResourceRecord("www.example.com", QTYPE.CNAME, 300,
                       CNAME("edge.cdn.example")),
        ResourceRecord("edge.cdn.example", QTYPE.A, 60, A("203.0.113.5")),
    ])
    txn = summarize_transaction(qpkt, rpkt, 0.0, 0.001)
    assert txn.cname_targets == ("edge.cdn.example",)
    assert txn.answer_ips == ("203.0.113.5",)
    assert txn.answer_ttls == (300, 60)


def test_aaaa_answer():
    qpkt, rpkt = query_response_pair(
        qtype=QTYPE.AAAA,
        answers=[ResourceRecord("www.example.com", QTYPE.AAAA, 300,
                                AAAA("2001:db8::5"))],
    )
    txn = summarize_transaction(qpkt, rpkt, 0.0, 0.001)
    assert txn.answer_ips == ("2001:db8::5",)


def test_dnssec_signals():
    qpkt, rpkt = query_response_pair(
        do=True,
        answers=[
            ResourceRecord("www.example.com", QTYPE.A, 300, A("198.51.100.1")),
            ResourceRecord("www.example.com", QTYPE.RRSIG, 300,
                           RRSIG(type_covered=int(QTYPE.A),
                                 signer="example.com")),
        ],
    )
    txn = summarize_transaction(qpkt, rpkt, 0.0, 0.001)
    assert txn.edns_do
    assert txn.has_rrsig
    # RRSIG does not inflate the data counts or TTL list.
    assert txn.answer_count == 1
    assert txn.answer_ttls == (300,)


def test_opt_not_counted_in_additional():
    qpkt, rpkt = query_response_pair(additional=[make_opt()])
    txn = summarize_transaction(qpkt, rpkt, 0.0, 0.001)
    assert txn.additional_count == 0


def test_mismatched_ids_rejected():
    qpkt, _ = query_response_pair(msg_id=1)
    _, rpkt = query_response_pair(msg_id=2)
    with pytest.raises(PreprocessError):
        summarize_transaction(qpkt, rpkt, 0.0, 0.001)


def test_garbage_payload_rejected():
    bad = build_udp_ipv4("10.0.0.1", "192.0.2.53", 1000, 53, b"\x01\x02")
    with pytest.raises(PreprocessError):
        summarize_transaction(bad, None, 0.0)


def test_query_without_question_rejected():
    empty = Message()
    pkt = wrap(empty, "10.0.0.1", "192.0.2.53")
    with pytest.raises(PreprocessError):
        summarize_transaction(pkt, None, 0.0)


def test_negative_delay_clamped():
    qpkt, rpkt = query_response_pair()
    txn = summarize_transaction(qpkt, rpkt, 100.0, 99.0)
    assert txn.delay_ms == 0.0


def test_source_label_propagates():
    qpkt, _ = query_response_pair()
    txn = summarize_transaction(qpkt, None, 0.0, source="sensor-17")
    assert txn.source == "sensor-17"


class TestSummarizeBatch:
    def test_batch_matches_per_record_parsing(self):
        from repro.observatory.preprocess import summarize_batch

        records = []
        for i in range(5):
            qpkt, rpkt = query_response_pair(
                qname="h%d.example.com" % i,
                answers=[ResourceRecord("h%d.example.com" % i, QTYPE.A,
                                        300, A("198.51.100.%d" % (i + 1)))])
            records.append((qpkt, rpkt, 100.0 + i, 100.02 + i))
        txns = summarize_batch(records, source="srcX")
        assert len(txns) == 5
        for i, txn in enumerate(txns):
            expected = summarize_transaction(*records[i], source="srcX")
            assert [getattr(txn, name) for name in Transaction.__slots__] \
                == [getattr(expected, name) for name in Transaction.__slots__]

    def test_batch_skips_malformed_and_reports(self):
        from repro.observatory.preprocess import summarize_batch

        good_q, good_r = query_response_pair()
        bad_q = build_udp_ipv4("10.0.0.1", "192.0.2.53", 1234, 53,
                               b"\x00\x01")  # truncated DNS header
        errors = []
        txns = summarize_batch(
            [(good_q, good_r, 1.0, 1.01), (bad_q, None, 2.0)],
            on_error=lambda record, exc: errors.append(exc))
        assert len(txns) == 1 and txns[0].ts == 1.0
        assert len(errors) == 1
        assert isinstance(errors[0], PreprocessError)

    def test_batch_skips_bad_ip_framing(self):
        """Framing errors are PreprocessErrors: the batch skips them and
        reports each, instead of raising out of the loop."""
        import struct

        from repro.observatory.preprocess import summarize_batch

        good_q, good_r = query_response_pair()
        short_capture = bytearray(good_q)
        struct.pack_into(">H", short_capture, 2, len(good_q) + 40)
        version_7 = bytes([0x75]) + good_q[1:]
        bad = [b"", good_q[:10], bytes(short_capture), version_7]
        records = [(good_q, good_r, 1.0, 1.01)]
        records += [(packet, None, 2.0) for packet in bad]
        records += [(good_q, good_r, 3.0, 3.01)]
        errors = []
        txns = summarize_batch(
            records, on_error=lambda record, exc: errors.append(exc))
        assert [txn.ts for txn in txns] == [1.0, 3.0]
        assert len(errors) == 4
        assert all(isinstance(exc, PreprocessError) for exc in errors)

    @pytest.mark.parametrize("ts", [float("nan"), float("inf"),
                                    float("-inf")])
    def test_batch_skips_non_finite_timestamp(self, ts):
        """A capture timestamp outside Transaction.check_domains() is
        rejected here, as a line carrying it is rejected by from_line:
        the window grid is undefined there (a nan timestamp used to
        hang the window manager)."""
        from repro.observatory.preprocess import summarize_batch

        good_q, good_r = query_response_pair()
        records = [(good_q, good_r, 1.0, 1.01), (good_q, good_r, ts, 1.01),
                   (good_q, None, ts), (good_q, good_r, 2.0, 2.01)]
        errors = []
        txns = summarize_batch(
            records, on_error=lambda record, exc: errors.append(exc))
        assert [txn.ts for txn in txns] == [1.0, 2.0]
        assert len(errors) == 2
        assert all(isinstance(exc, PreprocessError) for exc in errors)


def test_infinite_delay_rejected():
    qpkt, rpkt = query_response_pair()
    with pytest.raises(PreprocessError):
        summarize_transaction(qpkt, rpkt, 1.0, float("inf"))
