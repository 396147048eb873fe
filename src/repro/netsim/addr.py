"""IPv4/IPv6 address and prefix arithmetic helpers.

Thin, allocation-light wrappers used on the simulator and analysis hot
paths, where ``ipaddress`` object churn would dominate runtime.
"""

import ipaddress


def ipv4_to_int(address):
    """``"192.0.2.1"`` -> ``0xC0000201``."""
    parts = address.split(".")
    if len(parts) != 4:
        raise ValueError("invalid IPv4 address: %r" % (address,))
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError("invalid IPv4 octet in %r" % (address,))
        value = (value << 8) | octet
    return value


def ipv4_from_int(value):
    """``0xC0000201`` -> ``"192.0.2.1"``."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError("IPv4 integer out of range: %r" % (value,))
    return "%d.%d.%d.%d" % (
        value >> 24 & 0xFF, value >> 16 & 0xFF, value >> 8 & 0xFF, value & 0xFF
    )


def ipv4_prefix_of(address, prefixlen):
    """Return the network integer of *address* under *prefixlen*."""
    if not 0 <= prefixlen <= 32:
        raise ValueError("prefixlen out of range: %r" % (prefixlen,))
    value = address if isinstance(address, int) else ipv4_to_int(address)
    if prefixlen == 0:
        return 0
    mask = (0xFFFFFFFF << (32 - prefixlen)) & 0xFFFFFFFF
    return value & mask


def slash24_of(address):
    """Return the /24 prefix string of an IPv4 address.

    ``"192.0.2.77"`` -> ``"192.0.2.0/24"``.  Figures 5 and 6 of the
    paper count nameservers per /24.
    """
    network = ipv4_prefix_of(address, 24)
    return "%s/24" % ipv4_from_int(network)


def is_ipv6(address):
    """Cheap IPv6 test: presence of a colon."""
    return ":" in address


def ipv6_to_int(address):
    """Full 128-bit integer of an IPv6 address string."""
    return int(ipaddress.IPv6Address(address))
