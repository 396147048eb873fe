"""Typed RDATA implementations for the record types the paper handles.

Each class provides ``to_wire(compression, offset)`` and a
``from_wire(wire, offset, rdlength)`` classmethod.  Name compression is
applied only inside the RDATA of the legacy types where RFC 3597
permits it (NS, CNAME, SOA, MX, PTR, SRV targets are written
uncompressed per RFC 2782, RRSIG never compresses).
"""

import ipaddress
import struct

from repro.dnswire.constants import QTYPE
from repro.dnswire.name import decode_name, encode_name, normalize_name


class Rdata:
    """Base class: opaque RDATA (used for unknown types)."""

    rtype = None

    def __init__(self, data=b""):
        self.data = bytes(data)

    def to_wire(self, compression=None, offset=0):
        return self.data

    @classmethod
    def from_wire(cls, wire, offset, rdlength):
        return cls(wire[offset:offset + rdlength])

    def __eq__(self, other):
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __repr__(self):
        fields = ", ".join("%s=%r" % kv for kv in sorted(self.__dict__.items()))
        return "%s(%s)" % (type(self).__name__, fields)


class A(Rdata):
    """IPv4 address record."""

    rtype = QTYPE.A

    def __init__(self, address):
        self.address = str(ipaddress.IPv4Address(address))

    def to_wire(self, compression=None, offset=0):
        return ipaddress.IPv4Address(self.address).packed

    @classmethod
    def from_wire(cls, wire, offset, rdlength):
        if rdlength != 4 or offset + 4 > len(wire):
            raise ValueError("A rdata must be 4 bytes")
        # Decoded straight from the view: going through __init__ would
        # build an ipaddress object and re-parse its text form.
        rdata = cls.__new__(cls)
        rdata.address = "%d.%d.%d.%d" % tuple(wire[offset:offset + 4])
        return rdata


class AAAA(Rdata):
    """IPv6 address record."""

    rtype = QTYPE.AAAA

    def __init__(self, address):
        self.address = str(ipaddress.IPv6Address(address))

    def to_wire(self, compression=None, offset=0):
        return ipaddress.IPv6Address(self.address).packed

    @classmethod
    def from_wire(cls, wire, offset, rdlength):
        if rdlength != 16 or offset + 16 > len(wire):
            raise ValueError("AAAA rdata must be 16 bytes")
        # One ipaddress object for the compressed text form (it only
        # accepts real bytes as packed input, not views); __init__
        # would parse that text a second time.
        rdata = cls.__new__(cls)
        rdata.address = str(
            ipaddress.IPv6Address(bytes(wire[offset:offset + 16])))
        return rdata


class _SingleName(Rdata):
    """Common base for record types whose RDATA is one domain name."""

    compressible = True

    def __init__(self, target):
        self.target = normalize_name(target)

    def to_wire(self, compression=None, offset=0):
        comp = compression if self.compressible else None
        return encode_name(self.target, comp, offset)

    @classmethod
    def from_wire(cls, wire, offset, rdlength):
        target, _ = decode_name(wire, offset)
        return cls(target)


class NS(_SingleName):
    rtype = QTYPE.NS


class CNAME(_SingleName):
    rtype = QTYPE.CNAME


class PTR(_SingleName):
    rtype = QTYPE.PTR


class SOA(Rdata):
    """Start of authority; its ``minimum`` field is the negative-caching
    TTL central to Section 5 of the paper (RFC 2308 semantics)."""

    rtype = QTYPE.SOA

    def __init__(self, mname, rname, serial=1, refresh=7200, retry=900,
                 expire=1209600, minimum=3600):
        self.mname = normalize_name(mname)
        self.rname = normalize_name(rname)
        self.serial = int(serial)
        self.refresh = int(refresh)
        self.retry = int(retry)
        self.expire = int(expire)
        self.minimum = int(minimum)

    def to_wire(self, compression=None, offset=0):
        out = bytearray(encode_name(self.mname, compression, offset))
        out += encode_name(self.rname, compression, offset + len(out))
        out += struct.pack(
            ">IIIII", self.serial, self.refresh, self.retry, self.expire,
            self.minimum,
        )
        return bytes(out)

    @classmethod
    def from_wire(cls, wire, offset, rdlength):
        mname, offset = decode_name(wire, offset)
        rname, offset = decode_name(wire, offset)
        serial, refresh, retry, expire, minimum = struct.unpack_from(
            ">IIIII", wire, offset
        )
        return cls(mname, rname, serial, refresh, retry, expire, minimum)


class MX(Rdata):
    rtype = QTYPE.MX

    def __init__(self, preference, exchange):
        self.preference = int(preference)
        self.exchange = normalize_name(exchange)

    def to_wire(self, compression=None, offset=0):
        return struct.pack(">H", self.preference) + encode_name(
            self.exchange, compression, offset + 2
        )

    @classmethod
    def from_wire(cls, wire, offset, rdlength):
        (preference,) = struct.unpack_from(">H", wire, offset)
        exchange, _ = decode_name(wire, offset + 2)
        return cls(preference, exchange)


class TXT(Rdata):
    """Text record; Section 3.4 finds these carrying proprietary
    protocols of anti-virus/anti-spam systems."""

    rtype = QTYPE.TXT

    def __init__(self, strings):
        if isinstance(strings, (str, bytes)):
            strings = [strings]
        self.strings = [
            s.encode("utf-8") if isinstance(s, str) else bytes(s)
            for s in strings
        ]
        for s in self.strings:
            if len(s) > 255:
                raise ValueError("TXT string longer than 255 bytes")

    def to_wire(self, compression=None, offset=0):
        out = bytearray()
        for s in self.strings:
            out.append(len(s))
            out += s
        return bytes(out)

    @classmethod
    def from_wire(cls, wire, offset, rdlength):
        end = offset + rdlength
        strings = []
        while offset < end:
            length = wire[offset]
            offset += 1
            strings.append(wire[offset:offset + length])
            offset += length
        return cls(strings)


class SRV(Rdata):
    rtype = QTYPE.SRV

    def __init__(self, priority, weight, port, target):
        self.priority = int(priority)
        self.weight = int(weight)
        self.port = int(port)
        self.target = normalize_name(target)

    def to_wire(self, compression=None, offset=0):
        return struct.pack(">HHH", self.priority, self.weight, self.port) + \
            encode_name(self.target)  # RFC 2782: target not compressed

    @classmethod
    def from_wire(cls, wire, offset, rdlength):
        priority, weight, port = struct.unpack_from(">HHH", wire, offset)
        target, _ = decode_name(wire, offset + 6)
        return cls(priority, weight, port, target)


class DS(Rdata):
    """Delegation signer (DNSSEC chain of trust)."""

    rtype = QTYPE.DS

    def __init__(self, key_tag, algorithm, digest_type, digest):
        self.key_tag = int(key_tag)
        self.algorithm = int(algorithm)
        self.digest_type = int(digest_type)
        self.digest = bytes(digest)

    def to_wire(self, compression=None, offset=0):
        return struct.pack(
            ">HBB", self.key_tag, self.algorithm, self.digest_type
        ) + self.digest

    @classmethod
    def from_wire(cls, wire, offset, rdlength):
        key_tag, algorithm, digest_type = struct.unpack_from(">HBB", wire, offset)
        digest = wire[offset + 4:offset + rdlength]
        return cls(key_tag, algorithm, digest_type, digest)


class RRSIG(Rdata):
    """DNSSEC signature.  The Observatory only checks *presence* of
    RRSIGs (the ok_sec feature), so the signature bytes are opaque."""

    rtype = QTYPE.RRSIG

    def __init__(self, type_covered, algorithm=8, labels=2,
                 original_ttl=300, expiration=0, inception=0, key_tag=0,
                 signer="", signature=b"\x00" * 64):
        self.type_covered = int(type_covered)
        self.algorithm = int(algorithm)
        self.labels = int(labels)
        self.original_ttl = int(original_ttl)
        self.expiration = int(expiration)
        self.inception = int(inception)
        self.key_tag = int(key_tag)
        self.signer = normalize_name(signer)
        self.signature = bytes(signature)

    def to_wire(self, compression=None, offset=0):
        return struct.pack(
            ">HBBIIIH", self.type_covered, self.algorithm, self.labels,
            self.original_ttl, self.expiration, self.inception, self.key_tag,
        ) + encode_name(self.signer) + self.signature

    @classmethod
    def from_wire(cls, wire, offset, rdlength):
        end = offset + rdlength
        (type_covered, algorithm, labels, original_ttl, expiration,
         inception, key_tag) = struct.unpack_from(">HBBIIIH", wire, offset)
        signer, pos = decode_name(wire, offset + 18)
        signature = wire[pos:end]
        return cls(type_covered, algorithm, labels, original_ttl,
                   expiration, inception, key_tag, signer, signature)


class OPT(Rdata):
    """EDNS0 OPT pseudo-record RDATA (options blob, usually empty).

    The interesting EDNS fields (payload size, DO flag) live in the RR
    header's class/TTL fields; see :mod:`repro.dnswire.edns`.
    """

    rtype = QTYPE.OPT

    def __init__(self, options=b""):
        self.options = bytes(options)

    def to_wire(self, compression=None, offset=0):
        return self.options

    @classmethod
    def from_wire(cls, wire, offset, rdlength):
        return cls(wire[offset:offset + rdlength])


#: QTYPE -> rdata class registry used by the message decoder.
RDATA_CLASSES = {
    QTYPE.A: A,
    QTYPE.AAAA: AAAA,
    QTYPE.NS: NS,
    QTYPE.CNAME: CNAME,
    QTYPE.PTR: PTR,
    QTYPE.SOA: SOA,
    QTYPE.MX: MX,
    QTYPE.TXT: TXT,
    QTYPE.SRV: SRV,
    QTYPE.DS: DS,
    QTYPE.RRSIG: RRSIG,
    QTYPE.OPT: OPT,
}


def rdata_class(rtype):
    """Return the rdata class for *rtype*, falling back to opaque Rdata."""
    return RDATA_CLASSES.get(rtype, Rdata)
