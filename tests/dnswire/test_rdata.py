"""Tests for typed RDATA wire codecs."""

import ipaddress
import random

import pytest

from repro.dnswire.constants import QTYPE
from repro.dnswire.rdata import (
    AAAA,
    CNAME,
    DS,
    MX,
    NS,
    OPT,
    PTR,
    RRSIG,
    SOA,
    SRV,
    TXT,
    A,
    Rdata,
    rdata_class,
)


def roundtrip(rd):
    wire = rd.to_wire()
    return type(rd).from_wire(wire, 0, len(wire))


class TestAddressRecords:
    def test_a_roundtrip(self):
        assert roundtrip(A("192.0.2.1")) == A("192.0.2.1")

    def test_a_wire_is_4_bytes(self):
        assert A("192.0.2.1").to_wire() == bytes([192, 0, 2, 1])

    def test_a_rejects_bad_length(self):
        with pytest.raises(ValueError):
            A.from_wire(b"\x01\x02\x03", 0, 3)

    def test_a_rejects_bad_address(self):
        with pytest.raises(ValueError):
            A("not-an-ip")

    def test_aaaa_roundtrip(self):
        rd = AAAA("2001:db8::1")
        assert roundtrip(rd) == rd
        assert len(rd.to_wire()) == 16

    def test_aaaa_canonical_form(self):
        assert AAAA("2001:0db8:0000:0000:0000:0000:0000:0001").address == "2001:db8::1"

    def test_aaaa_rejects_bad_length(self):
        with pytest.raises(ValueError):
            AAAA.from_wire(b"\x00" * 8, 0, 8)

    def test_from_wire_rejects_rdata_past_the_buffer(self):
        with pytest.raises(ValueError):
            A.from_wire(b"\x01\x02\x03", 0, 4)
        with pytest.raises(ValueError):
            AAAA.from_wire(b"\x00" * 15, 0, 16)

    def test_from_wire_text_equals_ipaddress(self):
        """from_wire decodes the view directly; the text must be what
        ``ipaddress`` (the constructor's canonical form) produces."""
        rng = random.Random(2019)
        v4 = ["0.0.0.0", "255.255.255.255", "192.0.2.1"] + [
            str(ipaddress.IPv4Address(rng.getrandbits(32)))
            for _ in range(200)]
        v6 = ["::", "::1", "::ffff:1.2.3.4", "2001:db8::", "fe80::1:0:0:1",
              "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"] + [
            str(ipaddress.IPv6Address(rng.getrandbits(128)))
            for _ in range(200)]
        for text in v4:
            packed = ipaddress.IPv4Address(text).packed
            wire = memoryview(b"\xaa\xbb" + packed + b"\xcc")
            decoded = A.from_wire(wire, 2, 4)
            assert decoded.address == str(ipaddress.IPv4Address(text))
            assert decoded == A(text)
        for text in v6:
            packed = ipaddress.IPv6Address(text).packed
            wire = memoryview(b"\xaa\xbb" + packed + b"\xcc")
            decoded = AAAA.from_wire(wire, 2, 16)
            assert decoded.address == str(ipaddress.IPv6Address(text))
            assert decoded == AAAA(text)


class TestNameRecords:
    def test_ns_roundtrip(self):
        assert roundtrip(NS("ns1.example.com")) == NS("ns1.example.com")

    def test_cname_roundtrip(self):
        assert roundtrip(CNAME("target.example.net")) == CNAME("target.example.net")

    def test_ptr_roundtrip(self):
        rd = PTR("host.example.com")
        assert roundtrip(rd) == rd

    def test_name_records_normalize(self):
        assert NS("NS1.Example.COM.").target == "ns1.example.com"


class TestSOA:
    def test_roundtrip(self):
        rd = SOA("ns1.example.com", "hostmaster.example.com",
                 serial=2019040101, refresh=7200, retry=3600,
                 expire=1209600, minimum=300)
        back = roundtrip(rd)
        assert back == rd
        assert back.minimum == 300  # the negative-caching TTL of §5

    def test_defaults(self):
        rd = SOA("ns.example.com", "admin.example.com")
        assert rd.minimum == 3600


class TestMX:
    def test_roundtrip(self):
        rd = MX(10, "mail.example.com")
        back = roundtrip(rd)
        assert back.preference == 10
        assert back.exchange == "mail.example.com"


class TestTXT:
    def test_single_string(self):
        rd = TXT("v=spf1 -all")
        back = roundtrip(rd)
        assert back.strings == [b"v=spf1 -all"]

    def test_multiple_strings(self):
        rd = TXT([b"chunk1", b"chunk2"])
        assert roundtrip(rd).strings == [b"chunk1", b"chunk2"]

    def test_rejects_oversized_string(self):
        with pytest.raises(ValueError):
            TXT(b"x" * 256)

    def test_empty_string_allowed(self):
        rd = TXT([b""])
        assert roundtrip(rd).strings == [b""]


class TestSRV:
    def test_roundtrip(self):
        rd = SRV(0, 5, 5060, "sip.example.com")
        back = roundtrip(rd)
        assert (back.priority, back.weight, back.port) == (0, 5, 5060)
        assert back.target == "sip.example.com"


class TestDS:
    def test_roundtrip(self):
        rd = DS(12345, 8, 2, b"\xab" * 32)
        back = roundtrip(rd)
        assert back == rd


class TestRRSIG:
    def test_roundtrip(self):
        rd = RRSIG(type_covered=int(QTYPE.A), algorithm=13, labels=2,
                   original_ttl=300, expiration=1700000000,
                   inception=1690000000, key_tag=4711,
                   signer="example.com", signature=b"\x01" * 64)
        back = roundtrip(rd)
        assert back == rd
        assert back.signer == "example.com"


class TestOPT:
    def test_roundtrip(self):
        rd = OPT(b"\x00\x0a\x00\x08cookie!!")
        assert roundtrip(rd) == rd


class TestGeneric:
    def test_unknown_type_is_opaque(self):
        cls = rdata_class(65280)
        assert cls is Rdata
        rd = Rdata(b"\xde\xad")
        assert roundtrip(rd).data == b"\xde\xad"

    def test_registry_maps_known_types(self):
        assert rdata_class(QTYPE.A) is A
        assert rdata_class(QTYPE.SOA) is SOA
        assert rdata_class(QTYPE.RRSIG) is RRSIG

    def test_equality_and_repr(self):
        assert A("192.0.2.1") == A("192.0.2.1")
        assert A("192.0.2.1") != A("192.0.2.2")
        assert A("192.0.2.1") != NS("example.com")
        assert "192.0.2.1" in repr(A("192.0.2.1"))
