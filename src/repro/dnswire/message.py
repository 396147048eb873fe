"""DNS message model with full wire encode/decode (RFC 1035 §4).

A :class:`Message` mirrors the four sections of a DNS packet.  The
encoder applies name compression across the whole message; the decoder
tolerates the things passive sensors see in the wild (unknown types
become opaque :class:`~repro.dnswire.rdata.Rdata`).
"""

import struct

from repro.dnswire.constants import CLASS_IN, FLAGS, QTYPE, RCODE
from repro.dnswire.name import decode_name, encode_name, normalize_name
from repro.dnswire.rdata import OPT, rdata_class

_HEADER = struct.Struct(">HHHHHH")
_RR_FIXED = struct.Struct(">HHIH")
_QFIXED = struct.Struct(">HH")


class Question:
    """One entry of the question section."""

    __slots__ = ("qname", "qtype", "qclass")

    def __init__(self, qname, qtype, qclass=CLASS_IN):
        self.qname = normalize_name(qname)
        self.qtype = int(qtype)
        self.qclass = int(qclass)

    def __eq__(self, other):
        return (
            isinstance(other, Question)
            and (self.qname, self.qtype, self.qclass)
            == (other.qname, other.qtype, other.qclass)
        )

    def __repr__(self):
        return "Question(%r, %s)" % (self.qname, QTYPE.name_of(self.qtype))


class ResourceRecord:
    """A resource record in the answer/authority/additional sections."""

    __slots__ = ("name", "rtype", "rclass", "ttl", "rdata")

    def __init__(self, name, rtype, ttl, rdata, rclass=CLASS_IN):
        self.name = normalize_name(name)
        self.rtype = int(rtype)
        self.rclass = int(rclass)
        self.ttl = int(ttl)
        self.rdata = rdata

    def __eq__(self, other):
        return (
            isinstance(other, ResourceRecord)
            and (self.name, self.rtype, self.rclass, self.ttl, self.rdata)
            == (other.name, other.rtype, other.rclass, other.ttl, other.rdata)
        )

    def __repr__(self):
        return "RR(%r, %s, ttl=%d, %r)" % (
            self.name, QTYPE.name_of(self.rtype), self.ttl, self.rdata
        )


class Message:
    """A DNS message: header + question/answer/authority/additional."""

    def __init__(self, msg_id=0, flags=0, question=None, answer=None,
                 authority=None, additional=None):
        self.msg_id = int(msg_id) & 0xFFFF
        self.flags = int(flags) & 0xFFFF
        self.question = list(question or [])
        self.answer = list(answer or [])
        self.authority = list(authority or [])
        self.additional = list(additional or [])

    # -- header flag helpers ------------------------------------------

    @property
    def authoritative(self):
        return bool(self.flags & FLAGS.AA)

    @property
    def truncated(self):
        return bool(self.flags & FLAGS.TC)

    @property
    def rcode(self):
        return self.flags & FLAGS.RCODE_MASK

    def set_flag(self, mask, on=True):
        """Set or clear a header flag bit (e.g. ``FLAGS.AA``)."""
        if on:
            self.flags |= mask
        else:
            self.flags &= ~mask

    # -- convenience constructors -------------------------------------

    @classmethod
    def make_query(cls, qname, qtype, msg_id=0, recursion_desired=False):
        """Build a standard query for *qname*/*qtype*."""
        flags = FLAGS.RD if recursion_desired else 0
        return cls(msg_id=msg_id, flags=flags,
                   question=[Question(qname, qtype)])

    @classmethod
    def make_response(cls, query, rcode=RCODE.NOERROR, authoritative=False):
        """Build an empty response echoing *query*'s id and question."""
        flags = FLAGS.QR | (int(rcode) & 0xF)
        if authoritative:
            flags |= FLAGS.AA
        if query.flags & FLAGS.RD:
            flags |= FLAGS.RD
        return cls(msg_id=query.msg_id, flags=flags,
                   question=list(query.question))

    # -- section inspection helpers (used by feature extraction) ------

    def records(self, section, rtype=None):
        """Iterate records of *section* ('answer'/'authority'/'additional'),
        optionally filtered by *rtype*."""
        for rr in getattr(self, section):
            if rtype is None or rr.rtype == rtype:
                yield rr

    def opt_record(self):
        """Return the EDNS0 OPT pseudo-record, or None."""
        for rr in self.additional:
            if rr.rtype == QTYPE.OPT:
                return rr
        return None

    def has_rrsig(self):
        """True if any section carries an RRSIG (the ok_sec signal)."""
        return any(
            rr.rtype == QTYPE.RRSIG
            for section in (self.answer, self.authority, self.additional)
            for rr in section
        )

    # -- wire codec ----------------------------------------------------

    def to_wire(self):
        """Encode the message with RFC 1035 name compression."""
        compression = {}
        out = bytearray(
            _HEADER.pack(
                self.msg_id, self.flags, len(self.question),
                len(self.answer), len(self.authority), len(self.additional),
            )
        )
        for q in self.question:
            out += encode_name(q.qname, compression, len(out))
            out += _QFIXED.pack(q.qtype, q.qclass)
        for section in (self.answer, self.authority, self.additional):
            for rr in section:
                out += encode_name(rr.name, compression, len(out))
                rdata = rr.rdata.to_wire(compression, len(out) + _RR_FIXED.size)
                out += _RR_FIXED.pack(rr.rtype, rr.rclass, rr.ttl, len(rdata))
                out += rdata
        return bytes(out)

    @classmethod
    def from_wire(cls, wire):
        """Decode a DNS message from *wire* bytes.

        Malformed input of any shape raises ``ValueError`` (passive
        sensors must reject garbage cleanly, never crash).
        """
        import struct as _struct

        if len(wire) < _HEADER.size:
            raise ValueError("truncated DNS header")
        # decode through a view: name labels and rdata fields slice the
        # packet buffer without copying; only the final strings and the
        # stored rdata payloads materialize
        wire = memoryview(wire)
        try:
            msg_id, flags, qd, an, ns, ar = _HEADER.unpack_from(wire, 0)
            msg = cls(msg_id=msg_id, flags=flags)
            offset = _HEADER.size
            for _ in range(qd):
                qname, offset = decode_name(wire, offset)
                qtype, qclass = _QFIXED.unpack_from(wire, offset)
                offset += _QFIXED.size
                msg.question.append(Question(qname, qtype, qclass))
            for count, section in ((an, msg.answer), (ns, msg.authority),
                                   (ar, msg.additional)):
                for _ in range(count):
                    name, offset = decode_name(wire, offset)
                    rtype, rclass, ttl, rdlength = \
                        _RR_FIXED.unpack_from(wire, offset)
                    offset += _RR_FIXED.size
                    if offset + rdlength > len(wire):
                        raise ValueError("truncated RDATA")
                    rdata = rdata_class(rtype).from_wire(
                        wire, offset, rdlength)
                    offset += rdlength
                    section.append(
                        ResourceRecord(name, rtype, ttl, rdata, rclass)
                    )
        except _struct.error as exc:
            raise ValueError("truncated DNS message: %s" % exc) from exc
        except IndexError as exc:
            raise ValueError("malformed DNS message") from exc
        return msg

    def __repr__(self):
        return (
            "Message(id=%d, %s, rcode=%s, q=%r, an=%d, ns=%d, ar=%d)" % (
                self.msg_id,
                "response" if self.flags & FLAGS.QR else "query",
                RCODE.name_of(self.rcode),
                self.question[0] if self.question else None,
                len(self.answer), len(self.authority), len(self.additional),
            )
        )
