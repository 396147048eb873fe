"""Domain name handling: normalization, label arithmetic, wire codec.

Names are represented as plain ``str`` in *canonical form*: lowercase,
no trailing dot, the root zone being the empty string ``""``.  This
keeps the analytics pipeline allocation-light (names are dict keys in
the Space-Saving caches) while the wire codec below provides full
RFC 1035 encoding including message compression pointers.
"""

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 253  # presentation form, excluding the trailing dot
_POINTER_MASK = 0xC0


class NameError_(ValueError):
    """Raised for malformed domain names (presentation or wire form)."""


def normalize_name(name):
    """Canonicalize *name*: lowercase, strip the trailing dot.

    ``"WWW.Example.COM."`` -> ``"www.example.com"``; the root (``"."``
    or ``""``) normalizes to ``""``.
    """
    name = name.rstrip(".").lower()
    if len(name) > MAX_NAME_LENGTH:
        raise NameError_("name too long: %d chars" % len(name))
    return name


def split_labels(name):
    """Return the labels of a canonical name, left to right.

    The root name yields an empty list.
    """
    name = normalize_name(name)
    return name.split(".") if name else []


def count_labels(name):
    """Number of labels -- the paper's *qdots* feature counts QNAME labels."""
    return len(split_labels(name))


def last_labels(name, n):
    """Return the name formed by the last *n* labels of *name*.

    ``last_labels("www.bbc.co.uk", 2)`` -> ``"co.uk"``.  Returns the
    whole name when it has fewer than *n* labels.
    """
    labels = split_labels(name)
    return ".".join(labels[-n:]) if labels else ""


def encode_name(name, compression=None, offset=0):
    """Encode *name* to wire format, optionally with compression.

    Parameters
    ----------
    name:
        Canonical or presentation-form domain name.
    compression:
        Optional dict mapping canonical suffix -> wire offset.  When a
        suffix of *name* was already written, a compression pointer is
        emitted; newly written suffixes are recorded (only those within
        pointer range, offsets < 0x4000).
    offset:
        Wire offset at which this name will be placed (needed to record
        compression targets).

    Returns the encoded ``bytes``.
    """
    labels = split_labels(name)
    out = bytearray()
    for i in range(len(labels)):
        suffix = ".".join(labels[i:])
        if compression is not None and suffix in compression:
            pointer = compression[suffix]
            out += bytes([_POINTER_MASK | (pointer >> 8), pointer & 0xFF])
            return bytes(out)
        here = offset + len(out)
        if compression is not None and here < 0x4000:
            compression[suffix] = here
        label = labels[i].encode("ascii", "strict")
        if not label:
            raise NameError_("empty label in %r" % name)
        if len(label) > MAX_LABEL_LENGTH:
            raise NameError_("label too long in %r" % name)
        out.append(len(label))
        out += label
    out.append(0)
    return bytes(out)


def decode_name(wire, offset):
    """Decode a (possibly compressed) name from *wire* at *offset*.

    Returns ``(canonical_name, next_offset)`` where *next_offset* is
    the position just after the name in the original (uncompressed)
    byte stream.  Follows compression pointers with loop protection.

    *wire* may be ``bytes`` or a ``memoryview``; the message decoder
    passes a view so each label decodes straight out of the packet
    buffer (``str(view-slice)``) with no intermediate bytes copy.
    """
    labels = []
    jumps = 0
    end = None
    pos = offset
    while True:
        if pos >= len(wire):
            raise NameError_("truncated name at offset %d" % pos)
        length = wire[pos]
        if length & _POINTER_MASK == _POINTER_MASK:
            if pos + 1 >= len(wire):
                raise NameError_("truncated compression pointer")
            target = ((length & 0x3F) << 8) | wire[pos + 1]
            if end is None:
                end = pos + 2
            jumps += 1
            if jumps > 64:
                raise NameError_("compression pointer loop")
            if target >= pos:
                raise NameError_("forward compression pointer")
            pos = target
            continue
        if length & _POINTER_MASK:
            raise NameError_("reserved label type 0x%02x" % length)
        pos += 1
        if length == 0:
            break
        if pos + length > len(wire):
            raise NameError_("truncated label")
        # str() decodes from any buffer: a memoryview slice is a view,
        # so the only copy is the label string itself
        labels.append(str(wire[pos:pos + length], "ascii", "replace").lower())
        pos += length
    if end is None:
        end = pos
    return ".".join(labels), end
