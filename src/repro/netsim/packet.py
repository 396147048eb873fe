"""IPv4/IPv6 + UDP header codecs.

The SIE sensors submit "raw packets, starting at the IP header"
(Section 2.1); the Observatory's preprocessor parses the IP and UDP
headers to recover addresses, ports, payload, and the IP TTL used for
hop-count inference.  These codecs implement exactly that: enough of
RFC 791 / RFC 8200 / RFC 768 to build and parse DNS-over-UDP packets,
including a correct IPv4 header checksum.
"""

import ipaddress
import struct
from collections import namedtuple
from socket import inet_ntoa

from repro.netsim.addr import ipv4_to_int, ipv6_from_bytes

PROTO_UDP = 17
PROTO_TCP = 6
IPV4_HEADER_LEN = 20
IPV6_HEADER_LEN = 40
UDP_HEADER_LEN = 8
TCP_HEADER_LEN = 20


class PacketError(ValueError):
    """Raised for malformed or unsupported packets."""


class UdpDatagram(namedtuple("UdpDatagram", (
        "src_ip", "dst_ip", "src_port", "dst_port", "ttl", "payload",
        "ip_version", "transport"))):
    """Parsed view of an IP packet carrying DNS (UDP/53 or TCP/53).

    ``ttl`` is the IPv4 TTL or IPv6 hop limit as observed on the wire;
    ``transport`` is "udp" or "tcp".  For TCP segments the ``payload``
    already has the RFC 1035 §4.2.2 two-byte length prefix stripped,
    so it is a bare DNS message in both cases.  (The name is
    historical.)  A tuple, so a caller on the ingest path can unpack
    it without attribute lookups.
    """

    __slots__ = ()

    def __repr__(self):
        return "UdpDatagram(%s:%d -> %s:%d, %s, ttl=%d, %d bytes)" % (
            self.src_ip, self.src_port, self.dst_ip, self.dst_port,
            self.transport, self.ttl, len(self.payload),
        )


def ipv4_checksum(header):
    """RFC 791 ones'-complement header checksum."""
    if len(header) % 2:
        header += b"\x00"
    total = sum(struct.unpack(">%dH" % (len(header) // 2), header))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def build_udp_ipv4(src_ip, dst_ip, src_port, dst_port, payload, ttl=64):
    """Build a complete IPv4/UDP packet carrying *payload*."""
    udp_length = UDP_HEADER_LEN + len(payload)
    total_length = IPV4_HEADER_LEN + udp_length
    if total_length > 0xFFFF:
        raise PacketError("payload too large for IPv4")
    header = struct.pack(
        ">BBHHHBBHII",
        (4 << 4) | 5,          # version 4, IHL 5 words
        0,                      # DSCP/ECN
        total_length,
        0,                      # identification
        0,                      # flags/fragment offset
        ttl,
        PROTO_UDP,
        0,                      # checksum placeholder
        ipv4_to_int(src_ip),
        ipv4_to_int(dst_ip),
    )
    checksum = ipv4_checksum(header)
    header = header[:10] + struct.pack(">H", checksum) + header[12:]
    # UDP checksum 0 is legal over IPv4 ("no checksum computed").
    udp = struct.pack(">HHHH", src_port, dst_port, udp_length, 0)
    return header + udp + payload


def build_udp_ipv6(src_ip, dst_ip, src_port, dst_port, payload, hop_limit=64):
    """Build a complete IPv6/UDP packet carrying *payload*.

    The mandatory IPv6 UDP checksum is computed over the standard
    pseudo-header.
    """
    udp_length = UDP_HEADER_LEN + len(payload)
    src = ipaddress.IPv6Address(src_ip).packed
    dst = ipaddress.IPv6Address(dst_ip).packed
    header = struct.pack(
        ">IHBB", 6 << 28, udp_length, PROTO_UDP, hop_limit
    ) + src + dst
    pseudo = src + dst + struct.pack(">IHBB", udp_length, 0, 0, PROTO_UDP)
    udp_zero = struct.pack(">HHHH", src_port, dst_port, udp_length, 0)
    checksum = ipv4_checksum(pseudo + udp_zero + payload)
    if checksum == 0:
        checksum = 0xFFFF
    udp = struct.pack(">HHHH", src_port, dst_port, udp_length, checksum)
    return header + udp + payload


def build_dns_tcp_ipv4(src_ip, dst_ip, src_port, dst_port, dns_payload,
                       ttl=64, seq=1):
    """Build an IPv4/TCP segment carrying one DNS message.

    DNS-over-TCP prefixes the message with a two-byte length
    (RFC 1035 §4.2.2).  This builder emits a single PSH+ACK segment --
    the common case for DNS responses that fit one MSS -- which is
    what a passive sensor reassembling simple TCP/53 flows sees.

    The paper treats TCP/53 as future work (<3 % of traffic); this
    implements that extension.
    """
    if len(dns_payload) > 0xFFFF:
        raise PacketError("DNS message too large for TCP framing")
    framed = struct.pack(">H", len(dns_payload)) + dns_payload
    total_length = IPV4_HEADER_LEN + TCP_HEADER_LEN + len(framed)
    if total_length > 0xFFFF:
        raise PacketError("segment too large for IPv4")
    header = struct.pack(
        ">BBHHHBBHII",
        (4 << 4) | 5, 0, total_length, 0, 0, ttl, PROTO_TCP, 0,
        ipv4_to_int(src_ip), ipv4_to_int(dst_ip),
    )
    checksum = ipv4_checksum(header)
    header = header[:10] + struct.pack(">H", checksum) + header[12:]
    tcp = struct.pack(
        ">HHIIBBHHH",
        src_port, dst_port, seq, 0,
        (TCP_HEADER_LEN // 4) << 4,  # data offset, no options
        0x18,                         # PSH | ACK
        0xFFFF, 0, 0,                 # window, checksum (0), urgent
    )
    return header + tcp + framed


def parse_ip_packet(packet):
    """Parse an IPv4 or IPv6 packet into a :class:`UdpDatagram`.

    UDP/53 and single-segment TCP/53 (with the RFC 1035 length
    prefix) are supported.  The headers are read in place: the DNS
    payload is the only slice copied out of *packet*.
    """
    if not packet:
        raise PacketError("empty packet")
    version = packet[0] >> 4
    if version == 4:
        return _parse_ipv4(packet)
    if version == 6:
        return _parse_ipv6(packet)
    raise PacketError("unknown IP version %d" % version)


def _parse_ipv4(packet):
    if len(packet) < IPV4_HEADER_LEN:
        raise PacketError("truncated IPv4 header")
    ihl = (packet[0] & 0x0F) * 4
    if ihl < IPV4_HEADER_LEN or len(packet) < ihl:
        raise PacketError("bad IPv4 IHL")
    total_length, = struct.unpack_from(">H", packet, 2)
    if total_length > len(packet):
        raise PacketError("IPv4 total length exceeds capture")
    proto = packet[9]
    # inet_ntoa writes the same dotted quad as addr.ipv4_from_int
    src = inet_ntoa(packet[12:16])
    dst = inet_ntoa(packet[16:20])
    if proto == PROTO_UDP:
        return _parse_udp(packet, ihl, total_length, src, dst, packet[8], 4)
    if proto == PROTO_TCP:
        return _parse_tcp(packet, ihl, total_length, src, dst, packet[8], 4)
    raise PacketError("unsupported protocol %d" % proto)


def _parse_ipv6(packet):
    if len(packet) < IPV6_HEADER_LEN:
        raise PacketError("truncated IPv6 header")
    payload_length, next_header, hop_limit = struct.unpack_from(">HBB", packet, 4)
    src = ipv6_from_bytes(packet[8:24])
    dst = ipv6_from_bytes(packet[24:40])
    stop = min(IPV6_HEADER_LEN + payload_length, len(packet))
    if next_header == PROTO_UDP:
        return _parse_udp(packet, IPV6_HEADER_LEN, stop, src, dst,
                          hop_limit, 6)
    if next_header == PROTO_TCP:
        return _parse_tcp(packet, IPV6_HEADER_LEN, stop, src, dst,
                          hop_limit, 6)
    raise PacketError("unsupported next header %d" % next_header)


# The transport parsers read the segment packet[start:stop] in place.


def _parse_tcp(packet, start, stop, src, dst, ttl, version):
    if stop - start < TCP_HEADER_LEN:
        raise PacketError("truncated TCP header")
    src_port, dst_port = struct.unpack_from(">HH", packet, start)
    data_offset = (packet[start + 12] >> 4) * 4
    if data_offset < TCP_HEADER_LEN or data_offset > stop - start:
        raise PacketError("bad TCP data offset")
    segment = start + data_offset
    if stop - segment < 2:
        raise PacketError("TCP segment without DNS length prefix")
    (dns_length,) = struct.unpack_from(">H", packet, segment)
    if 2 + dns_length > stop - segment:
        raise PacketError("truncated DNS-over-TCP message")
    payload = packet[segment + 2:segment + 2 + dns_length]
    return UdpDatagram(src, dst, src_port, dst_port, ttl, payload, version,
                       "tcp")


def _parse_udp(packet, start, stop, src, dst, ttl, version):
    if stop - start < UDP_HEADER_LEN:
        raise PacketError("truncated UDP header")
    src_port, dst_port, udp_length = struct.unpack_from(">HHH", packet, start)
    if udp_length < UDP_HEADER_LEN or udp_length > stop - start:
        raise PacketError("bad UDP length")
    payload = packet[start + UDP_HEADER_LEN:start + udp_length]
    return UdpDatagram(src, dst, src_port, dst_port, ttl, payload, version,
                       "udp")
