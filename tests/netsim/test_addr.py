"""Tests for address/prefix arithmetic."""

import ipaddress

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netsim.addr import (
    ipv4_from_int,
    ipv4_prefix_of,
    ipv4_to_int,
    ipv6_to_int,
    is_ipv6,
    slash24_of,
)


def test_ipv4_int_roundtrip_known():
    assert ipv4_to_int("192.0.2.1") == 0xC0000201
    assert ipv4_from_int(0xC0000201) == "192.0.2.1"
    assert ipv4_to_int("0.0.0.0") == 0
    assert ipv4_to_int("255.255.255.255") == 0xFFFFFFFF


def test_ipv4_to_int_rejects_malformed():
    for bad in ["192.0.2", "192.0.2.1.5", "192.0.2.300", "a.b.c.d"]:
        with pytest.raises(ValueError):
            ipv4_to_int(bad)


def test_ipv4_from_int_rejects_out_of_range():
    with pytest.raises(ValueError):
        ipv4_from_int(-1)
    with pytest.raises(ValueError):
        ipv4_from_int(1 << 32)


def test_prefix_of():
    assert ipv4_prefix_of("192.0.2.77", 24) == ipv4_to_int("192.0.2.0")
    assert ipv4_prefix_of("192.0.2.77", 32) == ipv4_to_int("192.0.2.77")
    assert ipv4_prefix_of("192.0.2.77", 0) == 0


def test_prefix_of_rejects_bad_length():
    with pytest.raises(ValueError):
        ipv4_prefix_of("192.0.2.1", 33)


def test_slash24():
    assert slash24_of("192.0.2.77") == "192.0.2.0/24"
    assert slash24_of("10.1.2.3") == "10.1.2.0/24"


def test_is_ipv6():
    assert is_ipv6("2001:db8::1")
    assert not is_ipv6("192.0.2.1")


def test_ipv6_int_roundtrip():
    addr = "2001:db8::1"
    assert ipv6_to_int(addr) == (0x20010DB8 << 96) + 1
    assert str(ipaddress.IPv6Address(ipv6_to_int(addr))) == addr


@given(st.integers(0, 0xFFFFFFFF))
def test_ipv4_roundtrip_property(value):
    assert ipv4_to_int(ipv4_from_int(value)) == value


@given(st.integers(0, 0xFFFFFFFF), st.integers(0, 32))
def test_prefix_is_idempotent(value, plen):
    prefix = ipv4_prefix_of(value, plen)
    assert ipv4_prefix_of(prefix, plen) == prefix
