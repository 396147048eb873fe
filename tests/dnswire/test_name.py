"""Tests for domain name handling and the name wire codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnswire.name import (
    NameError_,
    count_labels,
    decode_name,
    encode_name,
    last_labels,
    normalize_name,
    split_labels,
)


class TestNormalization:
    def test_lowercases_and_strips_dot(self):
        assert normalize_name("WWW.Example.COM.") == "www.example.com"

    def test_root_forms(self):
        assert normalize_name(".") == ""
        assert normalize_name("") == ""

    def test_rejects_too_long(self):
        with pytest.raises(NameError_):
            normalize_name("a" * 300)

    def test_split_labels(self):
        assert split_labels("www.example.com") == ["www", "example", "com"]
        assert split_labels("") == []

    def test_count_labels(self):
        assert count_labels("com") == 1
        assert count_labels("www.example.com") == 3
        assert count_labels(".") == 0

    def test_last_labels(self):
        assert last_labels("www.bbc.co.uk", 2) == "co.uk"
        assert last_labels("www.bbc.co.uk", 3) == "bbc.co.uk"
        assert last_labels("uk", 3) == "uk"
        assert last_labels("", 2) == ""


class TestWireCodec:
    def test_simple_roundtrip(self):
        wire = encode_name("www.example.com")
        name, end = decode_name(wire, 0)
        assert name == "www.example.com"
        assert end == len(wire)

    def test_root_name(self):
        wire = encode_name("")
        assert wire == b"\x00"
        name, end = decode_name(wire, 0)
        assert name == ""
        assert end == 1

    def test_encoding_is_case_insensitive(self):
        assert encode_name("WWW.EXAMPLE.COM") == encode_name("www.example.com")

    def test_compression_pointer_roundtrip(self):
        compression = {}
        first = encode_name("example.com", compression, 0)
        second = encode_name("www.example.com", compression, len(first))
        # The second name should reuse "example.com" via a pointer:
        # 1+3 ("www") + 2 (pointer) = 6 bytes.
        assert len(second) == 6
        wire = first + second
        name1, end1 = decode_name(wire, 0)
        name2, _ = decode_name(wire, end1)
        assert name1 == "example.com"
        assert name2 == "www.example.com"

    def test_full_pointer_when_name_already_seen(self):
        compression = {}
        first = encode_name("example.com", compression, 0)
        again = encode_name("example.com", compression, len(first))
        assert len(again) == 2  # pure pointer

    def test_rejects_oversized_label(self):
        with pytest.raises(NameError_):
            encode_name("a" * 64 + ".com")

    def test_rejects_truncated_wire(self):
        wire = encode_name("www.example.com")
        with pytest.raises(NameError_):
            decode_name(wire[:-3], 0)

    def test_rejects_forward_pointer(self):
        # Pointer at offset 0 pointing to offset 4 (>= its own position).
        wire = bytes([0xC0, 0x04, 0, 0, 0x00])
        with pytest.raises(NameError_):
            decode_name(wire, 0)

    def test_rejects_pointer_loop(self):
        # Two pointers pointing at each other.
        wire = bytes([0xC0, 0x02, 0xC0, 0x00])
        with pytest.raises(NameError_):
            decode_name(wire, 2)

    def test_rejects_reserved_label_type(self):
        with pytest.raises(NameError_):
            decode_name(bytes([0x80, 0x00]), 0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.text(
                alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
                min_size=1,
                max_size=20,
            ).filter(lambda s: not s.startswith("-")),
            min_size=0,
            max_size=6,
        )
    )
    def test_roundtrip_property(self, labels):
        name = ".".join(labels)
        if len(name) > 253:
            return
        wire = encode_name(name)
        decoded, end = decode_name(wire, 0)
        assert decoded == name
        assert end == len(wire)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(
        ["com", "example.com", "www.example.com", "mail.example.com",
         "example.org", "a.b.c.d.e"]), min_size=1, max_size=8))
    def test_compressed_stream_roundtrip(self, names):
        """Many names encoded into one buffer with shared compression
        must all decode back correctly."""
        compression = {}
        wire = bytearray()
        offsets = []
        for name in names:
            offsets.append(len(wire))
            wire += encode_name(name, compression, len(wire))
        for name, offset in zip(names, offsets):
            decoded, _ = decode_name(bytes(wire), offset)
            assert decoded == name
