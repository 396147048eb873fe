"""Differential tests: the one-pass summarizer against the full codec.

:func:`reference_summary` derives a transaction the long way -- frame
with ``parse_ip_packet``, decode both messages with
``Message.from_wire``, then read the sections -- as the preprocessor did
before it learned to skip what the summary never reads.  The contract
is that ``summarize_transaction`` accepts exactly the records the
reference accepts and returns the same ``Transaction`` field for
field.  Inputs: a simulated corpus (every record type the zones serve),
generated messages built byte by byte (every ``RDATA_CLASSES`` type in
every section, compression pointers in owner names and rdata, names at
the 253-character limit, several OPT records, IPv4/IPv6/TCP framing),
and byte-flip, overwrite and truncation mutants of those.
"""

import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dnswire.constants import EDNS_DO, QTYPE
from repro.dnswire.message import Message
from repro.dnswire.rdata import RDATA_CLASSES
from repro.netsim.packet import (
    build_dns_tcp_ipv4,
    build_udp_ipv4,
    build_udp_ipv6,
    parse_ip_packet,
)
from repro.observatory.preprocess import PreprocessError, summarize_transaction
from repro.observatory.transaction import Transaction
from repro.simulation.scenario import Scenario
from tests.util import run_scenario, tuned


def _dnssec_ok(message):
    opt = message.opt_record()
    return bool(opt is not None and opt.ttl & EDNS_DO)


def _reference(query_packet, response_packet, query_ts, response_ts,
               source):
    query_dg = parse_ip_packet(query_packet)
    query_msg = Message.from_wire(query_dg.payload)
    if not query_msg.question:
        raise PreprocessError("query without question section")
    question = query_msg.question[0]
    if response_packet is None:
        return Transaction(
            ts=query_ts, resolver_ip=query_dg.src_ip,
            server_ip=query_dg.dst_ip, source=source, qname=question.qname,
            qtype=question.qtype, rcode=None, answered=False,
            edns_do=_dnssec_ok(query_msg))

    response_dg = parse_ip_packet(response_packet)
    response_msg = Message.from_wire(response_dg.payload)
    if response_msg.msg_id != query_msg.msg_id:
        raise PreprocessError("response id does not match query id")
    delay_ms = 0.0
    if response_ts is not None:
        delay_ms = max(0.0, (response_ts - query_ts) * 1000.0)

    answer_ttls, answer_ips, cname_targets, ns_names = [], [], [], []
    for rr in response_msg.answer:
        if rr.rtype == QTYPE.RRSIG:
            continue
        answer_ttls.append(rr.ttl)
        if rr.rtype in (QTYPE.A, QTYPE.AAAA):
            answer_ips.append(rr.rdata.address)
        elif rr.rtype == QTYPE.CNAME:
            cname_targets.append(rr.rdata.target)
        elif rr.rtype == QTYPE.NS:
            ns_names.append(rr.rdata.target)
    ns_ttls = []
    for rr in response_msg.authority:
        if rr.rtype == QTYPE.NS:
            ns_ttls.append(rr.ttl)
            ns_names.append(rr.rdata.target)
    return Transaction(
        ts=query_ts, resolver_ip=query_dg.src_ip, server_ip=query_dg.dst_ip,
        source=source, qname=question.qname, qtype=question.qtype,
        rcode=response_msg.rcode, answered=True,
        aa=response_msg.authoritative, tc=response_msg.truncated,
        edns_do=_dnssec_ok(query_msg) or _dnssec_ok(response_msg),
        has_rrsig=response_msg.has_rrsig(), delay_ms=delay_ms,
        observed_ttl=response_dg.ttl,
        response_size=len(response_dg.payload),
        answer_count=len(answer_ttls), authority_ns_count=len(ns_ttls),
        additional_count=sum(
            1 for rr in response_msg.additional
            if rr.rtype not in (QTYPE.OPT, QTYPE.RRSIG)),
        answer_ttls=answer_ttls, ns_ttls=ns_ttls, answer_ips=answer_ips,
        cname_targets=cname_targets, ns_names=ns_names)


def reference_summary(query_packet, response_packet, query_ts,
                      response_ts=None, source="src0"):
    """The summary derived from the decoded messages.  Like the
    summarizer, it rejects bad framing and out-of-domain timestamps as
    :class:`PreprocessError`."""
    try:
        txn = _reference(query_packet, response_packet, query_ts,
                         response_ts, source)
        txn.check_domains()
    except PreprocessError:
        raise
    except ValueError as exc:
        raise PreprocessError(str(exc)) from exc
    return txn


def outcome(summarize, record):
    """``("ok", every field)`` or ``("rejected", None)``; any exception
    other than :class:`PreprocessError` propagates and fails the test."""
    try:
        txn = summarize(*record)
    except PreprocessError:
        return "rejected", None
    return "ok", tuple(getattr(txn, field) for field in Transaction.__slots__)


def assert_same(record):
    expected = outcome(reference_summary, record)
    assert outcome(summarize_transaction, record) == expected
    return expected[0]


# -- a simulated corpus -------------------------------------------------


def test_simulated_corpus_matches_reference(monkeypatch):
    """Every packet pair the simulator's wire path renders (A, AAAA,
    CNAME chains, NS referrals, SOA, MX, SRV, DS, PTR, TXT, RRSIG;
    OPT in the queries; IPv4 and IPv6) summarizes as the reference
    summarizes it."""
    from repro.simulation import authoritative

    records = []

    def recording(*args, **kwargs):
        records.append(args + (kwargs.get("source", "src0"),))
        return summarize_transaction(*args, **kwargs)

    monkeypatch.setattr(authoritative, "summarize_transaction", recording)
    run_scenario(tuned(Scenario.tiny(seed=11, duration=40.0),
                       wire_check_fraction=1.0))
    assert len(records) > 300
    rtypes, versions = set(), set()
    for record in records:
        assert assert_same(record) == "ok"
        response = parse_ip_packet(record[1])
        versions.add(response.ip_version)
        message = Message.from_wire(response.payload)
        rtypes.update(rr.rtype for section in (
            message.answer, message.authority, message.additional)
            for rr in section)
    assert set(RDATA_CLASSES) - {QTYPE.OPT} <= rtypes
    assert versions == {4, 6}


# -- messages built byte by byte -----------------------------------------

#: labels: letters, digits, a dot inside a label, a non-ASCII byte,
#: upper case (the summary lower-cases), and the 63-byte maximum
LABELS = st.sampled_from([
    b"a", b"www", b"example", b"com", b"Ns1", b"cdn", b"x.y", b"z.",
    b"\xc3\xa9t\xc3\xa9", b"-", b"b" * 63,
])

RTYPES = sorted(int(rtype) for rtype in RDATA_CLASSES) + [99, 257]


def _long_labels(total, trailing_dots):
    """Labels of at most 63 bytes joining to exactly *total* (> 63)
    characters, the last one ending in *trailing_dots* dots
    (``normalize_name`` strips those before it measures)."""
    sizes = []
    while total > 63:
        sizes.append(50)
        total -= 51
    sizes.append(total)
    labels = [b"q" * size for size in sizes]
    labels[-1] = labels[-1][:sizes[-1] - trailing_dots] + b"." * trailing_dots
    return labels


@st.composite
def names(draw, builder):
    """A name spec: plain labels, labels ending in a compression
    pointer to a name written earlier, or a near-limit name."""
    kind = draw(st.sampled_from(["labels", "labels", "pointer", "pointer",
                                 "pointer", "long", "root"]))
    if kind == "root":
        return ([], None)
    if kind == "long":
        total = draw(st.sampled_from([252, 253, 254, 255]))
        return (_long_labels(total, draw(st.sampled_from([0, 0, 1, 3]))),
                None)
    labels = draw(st.lists(LABELS, max_size=3))
    if kind == "pointer" and builder.targets:
        return (labels, draw(st.sampled_from(builder.targets)))
    return (labels or [b"example", b"com"], None)


class WireBuilder:
    """Writes a DNS message from specs, recording where each label
    starts so later names can point at it (also from inside rdata)."""

    def __init__(self):
        self.out = bytearray()
        self.targets = []

    def name(self, spec):
        labels, pointer = spec
        for label in labels:
            if len(self.out) < 0x3FFF:
                self.targets.append(len(self.out))
            self.out.append(len(label))
            self.out += label
        if pointer is not None:
            self.out += struct.pack(">H", 0xC000 | pointer)
        else:
            self.out.append(0)


@st.composite
def rdata(draw, builder, rtype):
    """Writes the rdata of *rtype*; returns nothing (the bytes go
    straight into *builder*).  Lengths are mostly right; A/AAAA
    sometimes get the wrong size."""
    out = builder.out
    if rtype == QTYPE.A:
        out += draw(st.binary(min_size=4, max_size=4)) \
            if draw(st.integers(0, 9)) else draw(st.binary(max_size=6))
    elif rtype == QTYPE.AAAA:
        out += draw(st.binary(min_size=16, max_size=16)) \
            if draw(st.integers(0, 9)) else draw(st.binary(max_size=18))
    elif rtype in (QTYPE.NS, QTYPE.CNAME, QTYPE.PTR):
        builder.name(draw(names(builder)))
    elif rtype == QTYPE.SOA:
        builder.name(draw(names(builder)))
        builder.name(draw(names(builder)))
        out += draw(st.binary(min_size=20, max_size=20))
    elif rtype == QTYPE.MX:
        out += b"\x00\x0a"
        builder.name(draw(names(builder)))
    elif rtype == QTYPE.SRV:
        out += b"\x00\x00\x00\x05\x13\xc4"
        builder.name(draw(names(builder)))
    elif rtype == QTYPE.DS:
        out += b"\x30\x39\x08\x02" + draw(st.binary(max_size=8))
    elif rtype == QTYPE.RRSIG:
        out += draw(st.binary(min_size=18, max_size=18))
        builder.name(draw(names(builder)))
        out += draw(st.binary(max_size=8))
    elif rtype == QTYPE.TXT:
        for text in draw(st.lists(st.binary(max_size=6), max_size=2)):
            out.append(len(text))
            out += text
    else:  # OPT and types the codec keeps opaque
        out += draw(st.binary(max_size=6))


@st.composite
def messages(draw, msg_id, response):
    """A DNS message's wire bytes: 0-2 questions, then records of any
    type in any section (OPT and RRSIG included, possibly twice)."""
    builder = WireBuilder()
    counts = [draw(st.integers(0, 2)) if response else 1,
              draw(st.integers(0, 4 if response else 1)),
              draw(st.integers(0, 3 if response else 1)),
              draw(st.integers(0, 3))]
    flags = draw(st.integers(0, 0xFFFF))
    builder.out += struct.pack(">HHHHHH", msg_id, flags, *counts)
    if not response and draw(st.integers(0, 19)) == 0:
        counts[0] = 0
        builder.out[4:6] = b"\x00\x00"
    for _ in range(counts[0]):
        builder.name(draw(names(builder)))
        builder.out += struct.pack(">HH", draw(st.sampled_from(RTYPES)), 1)
    for count in counts[1:]:
        for _ in range(count):
            builder.name(draw(names(builder)))
            rtype = draw(st.sampled_from(RTYPES))
            ttl = draw(st.sampled_from([0, 300, 0x8000, 0xFFFFFFFF]))
            header_at = len(builder.out)
            builder.out += struct.pack(">HHIH", rtype, 1, ttl, 0)
            draw(rdata(builder, rtype))
            rdlength = len(builder.out) - header_at - 10
            if rtype in (QTYPE.NS, QTYPE.CNAME, QTYPE.SOA, QTYPE.MX) \
                    and draw(st.integers(0, 4)) == 0:
                rdlength = 1  # the codec reads rdata names past rdlength
            struct.pack_into(">H", builder.out, header_at + 8, rdlength)
            if rdlength < len(builder.out) - header_at - 10:
                del builder.out[header_at + 10 + rdlength:]
                builder.targets = [target for target in builder.targets
                                   if target < len(builder.out)]
    return bytes(builder.out)


FRAMINGS = ("udp4", "udp6", "tcp4")


def frame(framing, src, dst, payload, ttl):
    if framing == "udp6":
        return build_udp_ipv6("2001:db8::%x" % src, "2001:db8::%x" % dst,
                              53, 30000, payload, ttl)
    build = build_udp_ipv4 if framing == "udp4" else build_dns_tcp_ipv4
    return build("10.0.0.%d" % src, "192.0.2.%d" % dst, 53, 30000,
                 payload, ttl)


@st.composite
def records(draw):
    """``(query_packet, response_packet|None, query_ts, response_ts,
    source)``."""
    msg_id = draw(st.integers(0, 0xFFFF))
    framing = draw(st.sampled_from(FRAMINGS))
    query = frame(framing, 1, 53, draw(messages(msg_id, False)), 64)
    if draw(st.integers(0, 9)) == 0:
        return (query, None, 10.0, None, "src1")
    if draw(st.integers(0, 19)) == 0:
        msg_id ^= 1
    response = frame(framing, 53, 1, draw(messages(msg_id, True)),
                     draw(st.integers(0, 255)))
    return (query, response, 10.0, draw(st.sampled_from([None, 10.02, 9.0])),
            "src1")


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(records())
def test_generated_messages_match_reference(record):
    assert_same(record)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(records(), st.data())
def test_mutants_match_reference(record, data):
    """Byte flips, overwrites and truncation at any offset, in either
    packet, past the IP framing or into it."""
    which = 1 if record[1] is not None and data.draw(st.booleans()) else 0
    packet = bytearray(record[which])
    kind = data.draw(st.sampled_from(["flip", "overwrite", "truncate"]))
    at = data.draw(st.integers(0, len(packet) - 1))
    if kind == "flip":
        packet[at] ^= 1 << data.draw(st.integers(0, 7))
    elif kind == "overwrite":
        size = data.draw(st.integers(1, 4))
        packet[at:at + size] = data.draw(
            st.binary(min_size=size, max_size=size))
    else:
        del packet[at:]
    mutant = list(record)
    mutant[which] = bytes(packet)
    assert_same(tuple(mutant))


# -- pinned cases ----------------------------------------------------------


def _pair(answers=b"", ancount=0, additional=b"", arcount=0,
          qname=b"\x03www\x07example\x03com\x00"):
    question = qname + b"\x00\x01\x00\x01"
    query = struct.pack(">HHHHHH", 7, 0, 1, 0, 0, 0) + question
    response = struct.pack(">HHHHHH", 7, 0x8400, 1, ancount, 0, arcount) \
        + question + answers + additional
    return (build_udp_ipv4("10.0.0.1", "192.0.2.53", 30000, 53, query),
            build_udp_ipv4("192.0.2.53", "10.0.0.1", 53, 30000, response),
            1.0, 1.01, "src0")


def _rr(rtype, rdata, owner=b"\xc0\x0c", ttl=300):
    return owner + struct.pack(">HHIH", rtype, 1, ttl, len(rdata)) + rdata


@pytest.mark.parametrize("total,dots,accepted", [
    (253, 0, True), (254, 0, False), (254, 1, True), (256, 3, True),
    (257, 3, False),
])
def test_name_length_limit(total, dots, accepted):
    """253 characters is the limit after trailing dots are stripped,
    for the question, an owner name and an rdata name alike."""
    wire = b"".join(bytes([len(label)]) + label
                    for label in _long_labels(total, dots)) + b"\x00"
    expected = "ok" if accepted else "rejected"
    assert assert_same(_pair(qname=wire)) == expected
    assert assert_same(_pair(_rr(QTYPE.TXT, b"", owner=wire), 1)) == expected
    assert assert_same(_pair(_rr(QTYPE.CNAME, wire), 1)) == expected
    assert assert_same(_pair(_rr(QTYPE.MX, b"\x00\x01" + wire), 1)) \
        == expected


def test_rdata_name_read_past_rdlength():
    """A CNAME whose rdlength stops short of its name still decodes:
    the codec reads rdata names over the whole message."""
    rr = b"\xc0\x0c" + struct.pack(">HHIH", QTYPE.CNAME, 1, 60, 1) \
        + b"\x04edge\xc0\x10"
    record = _pair(rr, 1)
    assert assert_same(record) == "ok"
    assert summarize_transaction(*record).cname_targets \
        == ("edge.example.com",)


def test_pointer_inside_rdata():
    record = _pair(_rr(QTYPE.NS, b"\x03ns1\xc0\x10"), 1)
    assert assert_same(record) == "ok"
    assert summarize_transaction(*record).ns_names == ("ns1.example.com",)


def test_only_the_first_opt_carries_do():
    opt_off = _rr(QTYPE.OPT, b"", owner=b"\x00", ttl=0)
    opt_on = _rr(QTYPE.OPT, b"", owner=b"\x00", ttl=EDNS_DO)
    off_first = _pair(additional=opt_off + opt_on, arcount=2)
    on_first = _pair(additional=opt_on + opt_off, arcount=2)
    assert assert_same(off_first) == assert_same(on_first) == "ok"
    assert not summarize_transaction(*off_first).edns_do
    assert summarize_transaction(*on_first).edns_do


@pytest.mark.parametrize("rtype,rdata", [
    (QTYPE.SOA, b"\x00\x00" + bytes(20)), (QTYPE.MX, b"\x00\x0a\x00"),
    (QTYPE.SRV, bytes(7)), (QTYPE.DS, bytes(4)), (QTYPE.RRSIG, bytes(19)),
])
def test_fixed_fields_bounds_checked_against_message_end(rtype, rdata):
    """The fixed fields of SOA/MX/SRV/DS/RRSIG must fit in the message,
    not in the rdata: as the last record, one byte short is rejected;
    an empty rdata followed by another record is not (its fields and
    names are read from the next record's bytes)."""
    assert assert_same(_pair(_rr(rtype, rdata), 1)) == "ok"
    short = _rr(rtype, rdata)[:-1]
    short = short[:10] + struct.pack(">H", len(rdata) - 1) + short[12:]
    assert assert_same(_pair(short, 1)) == "rejected"
    empty = _rr(rtype, b"")
    assert assert_same(_pair(empty, 1)) == "rejected"
    assert assert_same(_pair(empty, 1, _rr(QTYPE.TXT, bytes(32)), 1)) \
        == "ok"


@pytest.mark.parametrize("rtype", [QTYPE.TXT, QTYPE.OPT, 99])
def test_rdata_past_the_end_rejected(rtype):
    """rdlength one byte past the message end is truncated rdata, even
    for a type whose rdata the summary never reads."""
    last = _rr(rtype, b"\x01x")
    assert assert_same(_pair(last, 1)) == "ok"
    assert assert_same(_pair(last[:-1], 1)) == "rejected"


@pytest.mark.parametrize("tail,expected", [(4, "ok"), (3, "rejected")])
def test_every_question_is_bounds_checked(tail, expected):
    """Only the first question is summarized, but a later one that does
    not fit in the message is rejected."""
    record = list(_pair())
    response = parse_ip_packet(record[1]).payload
    response = response[:4] + b"\x00\x02" + response[6:]
    response += b"\xc0\x0c" + b"\x00\x01\x00\x01"[:tail]
    record[1] = build_udp_ipv4("192.0.2.53", "10.0.0.1", 53, 30000, response)
    assert assert_same(tuple(record)) == expected


@pytest.mark.parametrize("chain,expected", [(64, "ok"), (65, "rejected")])
def test_compression_pointer_chain_limit(chain, expected):
    """Each owner name points at the previous one, so the last of
    *chain* records follows *chain* pointers; the codec allows 64."""
    answers = bytearray()
    target = 12  # the question name
    for _ in range(chain):
        at = 12 + 17 + 4 + len(answers)  # header, question
        answers += struct.pack(">H", 0xC000 | target)
        answers += struct.pack(">HHIH", QTYPE.TXT, 1, 60, 0)
        target = at
    assert assert_same(_pair(bytes(answers), chain)) == expected
