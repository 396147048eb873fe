"""Tests for the DNS message model and wire codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnswire.constants import FLAGS, QTYPE, RCODE
from repro.dnswire.edns import make_opt
from repro.dnswire.message import Message, Question, ResourceRecord
from repro.dnswire.rdata import AAAA, CNAME, NS, RRSIG, SOA, A


def make_answer_message():
    query = Message.make_query("www.example.com", QTYPE.A, msg_id=4242)
    resp = Message.make_response(query, authoritative=True)
    resp.answer.append(
        ResourceRecord("www.example.com", QTYPE.A, 300, A("192.0.2.10"))
    )
    resp.authority.append(
        ResourceRecord("example.com", QTYPE.NS, 86400, NS("ns1.example.com"))
    )
    resp.additional.append(
        ResourceRecord("ns1.example.com", QTYPE.A, 86400, A("192.0.2.53"))
    )
    return resp


class TestFlags:
    def test_query_defaults(self):
        q = Message.make_query("example.com", QTYPE.A)
        assert not q.flags & FLAGS.QR
        assert not q.authoritative
        assert q.rcode == RCODE.NOERROR

    def test_recursion_desired(self):
        q = Message.make_query("example.com", QTYPE.A, recursion_desired=True)
        assert q.flags & FLAGS.RD

    def test_response_echoes_query(self):
        q = Message.make_query("example.com", QTYPE.A, msg_id=7)
        r = Message.make_response(q, rcode=RCODE.NXDOMAIN)
        assert r.msg_id == 7
        assert r.flags & FLAGS.QR
        assert r.rcode == RCODE.NXDOMAIN
        assert r.question == q.question

    def test_aa_flag(self):
        q = Message.make_query("example.com", QTYPE.A)
        r = Message.make_response(q, authoritative=True)
        assert r.authoritative

    def test_set_flag(self):
        m = Message()
        m.set_flag(FLAGS.TC)
        assert m.truncated
        m.set_flag(FLAGS.TC, on=False)
        assert not m.truncated


class TestWireRoundtrip:
    def test_query_roundtrip(self):
        q = Message.make_query("www.example.com", QTYPE.AAAA, msg_id=99,
                               recursion_desired=True)
        back = Message.from_wire(q.to_wire())
        assert back.msg_id == 99
        assert back.question == [Question("www.example.com", QTYPE.AAAA)]
        assert back.flags == q.flags

    def test_full_response_roundtrip(self):
        resp = make_answer_message()
        back = Message.from_wire(resp.to_wire())
        assert back.msg_id == resp.msg_id
        assert back.answer == resp.answer
        assert back.authority == resp.authority
        assert back.additional == resp.additional

    def test_compression_shrinks_message(self):
        resp = make_answer_message()
        wire = resp.to_wire()
        # Uncompressed encoding of the repeated names would be much
        # larger; check the pointer opcodes are present.
        assert any(b & 0xC0 == 0xC0 for b in wire)
        assert len(wire) < 120

    def test_soa_negative_response_roundtrip(self):
        q = Message.make_query("nonexistent.example.com", QTYPE.A)
        r = Message.make_response(q, rcode=RCODE.NXDOMAIN, authoritative=True)
        r.authority.append(ResourceRecord(
            "example.com", QTYPE.SOA, 300,
            SOA("ns1.example.com", "hostmaster.example.com", minimum=60),
        ))
        back = Message.from_wire(r.to_wire())
        assert back.rcode == RCODE.NXDOMAIN
        soa = back.authority[0]
        assert soa.rtype == QTYPE.SOA
        assert soa.rdata.minimum == 60

    def test_cname_chain_roundtrip(self):
        q = Message.make_query("www.alias.example", QTYPE.A)
        r = Message.make_response(q)
        r.answer.append(ResourceRecord(
            "www.alias.example", QTYPE.CNAME, 300, CNAME("real.example")))
        r.answer.append(ResourceRecord(
            "real.example", QTYPE.A, 60, A("198.51.100.7")))
        back = Message.from_wire(r.to_wire())
        assert len(back.answer) == 2
        assert back.answer[0].rdata.target == "real.example"

    def test_rejects_truncated_header(self):
        with pytest.raises(ValueError):
            Message.from_wire(b"\x00\x01\x02")

    def test_rejects_truncated_rdata(self):
        resp = make_answer_message()
        wire = resp.to_wire()
        with pytest.raises(ValueError):
            Message.from_wire(wire[:-2])


class TestSectionHelpers:
    def test_opt_record_detection(self):
        resp = make_answer_message()
        assert resp.opt_record() is None
        resp.additional.append(make_opt(dnssec_ok=True))
        assert resp.opt_record() is not None

    def test_has_rrsig(self):
        resp = make_answer_message()
        assert not resp.has_rrsig()
        resp.answer.append(ResourceRecord(
            "www.example.com", QTYPE.RRSIG, 300,
            RRSIG(type_covered=int(QTYPE.A), signer="example.com")))
        assert resp.has_rrsig()

    def test_opt_survives_wire_roundtrip(self):
        resp = make_answer_message()
        resp.additional.append(make_opt(payload_size=4096, dnssec_ok=True))
        back = Message.from_wire(resp.to_wire())
        opt = back.opt_record()
        assert opt is not None
        assert opt.rclass == 4096


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 0xFFFF),
    st.sampled_from([QTYPE.A, QTYPE.AAAA, QTYPE.NS, QTYPE.TXT, QTYPE.MX]),
    st.sampled_from(["example.com", "www.example.com", "a.b.c.example.org"]),
    st.sampled_from(list(RCODE)),
)
def test_header_roundtrip_property(msg_id, qtype, qname, rcode):
    q = Message.make_query(qname, qtype, msg_id=msg_id)
    r = Message.make_response(q, rcode=rcode)
    back = Message.from_wire(r.to_wire())
    assert back.msg_id == msg_id
    assert back.rcode == rcode
    assert back.question[0].qname == qname
    assert back.question[0].qtype == qtype


class TestMemoryviewDecode:
    """from_wire decodes through a memoryview (zero-slice parsing);
    the materialized message must be indistinguishable from a bytes
    decode, and must not retain views into the packet buffer."""

    def test_memoryview_input_equals_bytes_input(self):
        resp = make_answer_message()
        wire = resp.to_wire()
        from_bytes = Message.from_wire(wire)
        from_view = Message.from_wire(memoryview(wire))
        assert from_view.msg_id == from_bytes.msg_id
        assert from_view.question == from_bytes.question
        assert from_view.answer == from_bytes.answer
        assert from_view.authority == from_bytes.authority
        assert from_view.additional == from_bytes.additional

    def test_decoded_message_outlives_the_buffer(self):
        resp = make_answer_message()
        wire = bytearray(resp.to_wire())
        back = Message.from_wire(wire)
        wire[:] = b"\x00" * len(wire)  # scribble over the packet buffer
        assert back.question[0].qname == "www.example.com"
        for rr in back.answer:
            assert rr.rdata is not None
        assert back == back  # no lazy views left to blow up on access

    def test_address_rdata_from_view(self):
        q = Message.make_query("v6.example", QTYPE.AAAA)
        r = Message.make_response(q)
        r.answer.append(ResourceRecord(
            "v6.example", QTYPE.AAAA, 60, AAAA("2001:db8::7")))
        r.answer.append(ResourceRecord(
            "v6.example", QTYPE.A, 60, A("198.51.100.7")))
        back = Message.from_wire(memoryview(r.to_wire()))
        assert back.answer[0].rdata.address == "2001:db8::7"
        assert back.answer[1].rdata.address == "198.51.100.7"
