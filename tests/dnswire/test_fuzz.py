"""Fuzz tests: decoders must fail cleanly on adversarial input.

A passive sensor parses whatever bytes appear on port 53; the wire
decoders must raise controlled ``ValueError`` subclasses -- never
IndexError/KeyError/infinite loops -- on arbitrary garbage.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnswire.message import Message
from repro.dnswire.name import decode_name
from repro.netsim.packet import PacketError, build_udp_ipv4, parse_ip_packet
from repro.observatory.preprocess import PreprocessError, summarize_transaction
from repro.observatory.transaction import Transaction


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=512))
def test_message_decoder_never_crashes(data):
    try:
        Message.from_wire(data)
    except ValueError:
        pass  # controlled rejection


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=128), st.integers(0, 64))
def test_name_decoder_never_crashes(data, offset):
    try:
        decode_name(data, offset)
    except ValueError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=256))
def test_packet_parser_never_crashes(data):
    try:
        parse_ip_packet(data)
    except PacketError:
        pass


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=28, max_size=256))
def test_packet_parser_with_valid_ipv4_prefix(data):
    """Force version/IHL plausibility, fuzz the rest."""
    packet = bytes([0x45]) + data[1:]
    try:
        parse_ip_packet(packet)
    except PacketError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=256), st.one_of(st.none(), st.binary(max_size=256)))
def test_summarizer_never_crashes(query, response):
    """Arbitrary bytes in either packet: a summary or a PreprocessError,
    never a framing PacketError, IndexError or struct.error."""
    try:
        summarize_transaction(query, response, 0.0, 0.01)
    except PreprocessError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=256), st.binary(max_size=256))
def test_summarizer_never_crashes_past_the_framing(query, response):
    """As above with valid IPv4/UDP framing, so the garbage reaches the
    DNS walk: the query is a valid header and part of a question
    followed by the garbage, the response a matching id and garbage."""
    question = Message.make_query("example.com", 1, msg_id=7).to_wire()
    qpkt = build_udp_ipv4("10.0.0.1", "192.0.2.53", 30000, 53,
                          question[:12 + len(query) % 18] + query)
    rpkt = build_udp_ipv4("192.0.2.53", "10.0.0.1", 53, 30000,
                          b"\x00\x07" + response)
    try:
        summarize_transaction(qpkt, rpkt, 0.0, 0.01)
    except PreprocessError:
        pass


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=200))
def test_transaction_line_parser_never_crashes(line):
    try:
        Transaction.from_line(line)
    except ValueError:
        pass  # corrupt lines are rejected, not mis-parsed


def test_valid_message_with_trailing_garbage():
    from repro.dnswire.constants import QTYPE

    wire = Message.make_query("example.com", QTYPE.A).to_wire()
    # Trailing bytes after the declared sections are tolerated
    # (sensors see padded captures).
    parsed = Message.from_wire(wire + b"\x00" * 16)
    assert parsed.question[0].qname == "example.com"


def test_deeply_nested_compression_rejected():
    # A chain of backwards pointers below the loop limit must resolve
    # or reject -- never hang.
    wire = bytearray()
    wire += b"\x01a\x00"  # name "a" at offset 0
    offset = len(wire)
    for i in range(100):
        prev = offset - 3 if i else 0
        wire += bytes([0xC0 | (prev >> 8), prev & 0xFF, 0x00])
        offset = len(wire)
    try:
        decode_name(bytes(wire), len(wire) - 3)
    except ValueError:
        pass
