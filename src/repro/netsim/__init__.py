"""IP-layer substrate: packets, hop inference, AS attribution, Hilbert maps.

The Observatory parses "raw packets, starting at the IP header"
(Section 2.1), infers router hop counts from the IP TTL (Section 3.5,
[39]), attributes nameserver IPs to Autonomous Systems via Route Views
data (Section 3.3), and renders the nameserver address space on a
Hilbert space-filling curve (Figure 6).  This subpackage provides all
of those building blocks:

* :mod:`~repro.netsim.addr` -- address/prefix arithmetic;
* :mod:`~repro.netsim.packet` -- IPv4/IPv6 + UDP header codecs;
* :mod:`~repro.netsim.hops` -- initial-TTL hop-count inference;
* :mod:`~repro.netsim.asdb` -- longest-prefix-match ASN table;
* :mod:`~repro.netsim.asnames` -- AS-name registry and organization
  name extraction;
* :mod:`~repro.netsim.hilbert` -- Hilbert curve /24 heatmaps;
* :mod:`~repro.netsim.latency` -- resolver-to-nameserver delay model.
"""

from repro.netsim.addr import (
    ipv4_from_int,
    ipv4_prefix_of,
    ipv4_to_int,
    slash24_of,
)
from repro.netsim.asdb import AsDatabase
from repro.netsim.asnames import AsNameRegistry, extract_org
from repro.netsim.hilbert import HilbertHeatmap, d2xy, xy2d
from repro.netsim.hops import infer_hops, infer_initial_ttl
from repro.netsim.latency import DelayModel, PathProfile
from repro.netsim.packet import UdpDatagram, build_udp_ipv4, parse_ip_packet

__all__ = [
    "ipv4_from_int",
    "ipv4_prefix_of",
    "ipv4_to_int",
    "slash24_of",
    "AsDatabase",
    "AsNameRegistry",
    "extract_org",
    "HilbertHeatmap",
    "d2xy",
    "xy2d",
    "infer_hops",
    "infer_initial_ttl",
    "DelayModel",
    "PathProfile",
    "UdpDatagram",
    "build_udp_ipv4",
    "parse_ip_packet",
]
