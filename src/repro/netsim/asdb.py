"""Longest-prefix-match IP-to-ASN database.

Section 3.3: "we associate each IP address in our Top-100K nameserver
list with its corresponding AS number, using the data collected by the
University of Oregon's Route Views project".  This module provides the
lookup machinery; in the reproduction the table is populated from the
simulator's topology (and can be loaded from a Route-Views-style TSV).

The implementation indexes prefixes by length and masks the queried
address per populated length, longest first -- at most 33 dict probes
per IPv4 lookup, cache-friendly and allocation-free.
"""

from repro.netsim.addr import ipv4_prefix_of, ipv4_to_int, is_ipv6, ipv6_to_int


class AsDatabase:
    """IP prefix -> ASN longest-prefix-match table (IPv4 and IPv6)."""

    def __init__(self):
        # prefixlen -> {network_int: asn}
        self._v4 = {}
        self._v6 = {}
        self._v4_lengths = ()
        self._v6_lengths = ()

    def add_prefix(self, prefix, asn):
        """Register ``prefix`` (e.g. ``"192.0.2.0/24"``) as announced
        by *asn*.  Later registrations of the same prefix overwrite."""
        network, _, lenstr = prefix.partition("/")
        if not lenstr:
            raise ValueError("prefix must include a length: %r" % (prefix,))
        prefixlen = int(lenstr)
        if is_ipv6(network):
            if not 0 <= prefixlen <= 128:
                raise ValueError("bad IPv6 prefix length: %r" % (prefix,))
            value = ipv6_to_int(network)
            mask = ((1 << 128) - 1) ^ ((1 << (128 - prefixlen)) - 1)
            table = self._v6.setdefault(prefixlen, {})
            table[value & mask] = int(asn)
            self._v6_lengths = tuple(sorted(self._v6, reverse=True))
        else:
            if not 0 <= prefixlen <= 32:
                raise ValueError("bad IPv4 prefix length: %r" % (prefix,))
            network_int = ipv4_prefix_of(network, prefixlen)
            table = self._v4.setdefault(prefixlen, {})
            table[network_int] = int(asn)
            self._v4_lengths = tuple(sorted(self._v4, reverse=True))

    def lookup(self, address):
        """Return the ASN announcing *address*, or None (no covering
        prefix -- unrouted space)."""
        if is_ipv6(address):
            value = ipv6_to_int(address)
            for prefixlen in self._v6_lengths:
                mask = ((1 << 128) - 1) ^ ((1 << (128 - prefixlen)) - 1)
                asn = self._v6[prefixlen].get(value & mask)
                if asn is not None:
                    return asn
            return None
        value = ipv4_to_int(address)
        for prefixlen in self._v4_lengths:
            shifted = (value >> (32 - prefixlen) << (32 - prefixlen)
                       if prefixlen else 0)
            asn = self._v4[prefixlen].get(shifted)
            if asn is not None:
                return asn
        return None

    @classmethod
    def from_tsv(cls, lines):
        """Load from Route-Views-style TSV lines: ``prefix<TAB>asn``."""
        db = cls()
        for raw in lines:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            prefix, asn = line.split("\t")[:2]
            db.add_prefix(prefix, int(asn))
        return db
