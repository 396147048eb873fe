"""Bounded discrete value counter for the "top-3 TTLs" feature.

Section 2.3 tracks, per object, "the top-3 TTL values (and
distributions) for records in ANSWER and nameservers in AUTHORITY".
TTLs in the wild take relatively few distinct values per object (60,
300, 3600, 86400 ...), but a misbehaving server can emit a different
TTL on every response (the "non-conforming" category of Table 4), so
the counter must be bounded.

:class:`TopValues` is a miniature Space-Saving instance over discrete
values: it keeps at most ``max_values`` counters and, when full,
recycles the smallest counter for the incoming value (inheriting its
count, the classic Space-Saving overestimate).  For the skewed value
distributions it is used on, the top few reported values are exact
with high probability.
"""

import struct
from pickle import PickleBuffer

_INT_PAIR = struct.Struct("<qq")
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


class TopValues:
    """Track the most frequent discrete values of a feature.

    Parameters
    ----------
    max_values:
        Maximum number of distinct values tracked at once.  Should
        comfortably exceed the number of *frequent* values (the paper
        reports 3, we default to tracking 16 to report a top-3 with
        slack).
    """

    __slots__ = ("max_values", "_counts", "total", "replaced")

    def __init__(self, max_values=16):
        if max_values < 1:
            raise ValueError("max_values must be >= 1")
        self.max_values = int(max_values)
        self._counts = {}
        #: total observations, including those absorbed by recycling
        self.total = 0
        #: number of counter recycling events (diagnostic for
        #: non-conforming TTL detection -- high churn means many values)
        self.replaced = 0

    def add(self, value, count=1):
        """Record *count* observations of *value* (any hashable)."""
        self.total += count
        counts = self._counts
        if value in counts:
            counts[value] += count
            return
        if len(counts) < self.max_values:
            counts[value] = count
            return
        # Recycle the minimum counter, Space-Saving style.
        victim = min(counts, key=counts.get)
        inherited = counts.pop(victim)
        counts[value] = inherited + count
        self.replaced += 1

    def top(self, n=3):
        """Return the top-*n* ``(value, estimated_count)`` pairs."""
        ranked = sorted(self._counts.items(), key=lambda kv: (-kv[1], str(kv[0])))
        return ranked[:n]

    def distribution(self):
        """Return ``{value: share}`` over all observations."""
        if not self.total:
            return {}
        return {v: c / self.total for v, c in self._counts.items()}

    def merge(self, other):
        """Fold *other* into this tracker (approximate, like SS merge)."""
        if not isinstance(other, TopValues):
            raise TypeError("can only merge TopValues instances")
        for value, count in other._counts.items():
            self.add(value, count)
        # self.add() already bumped self.total by other's tracked
        # counts; account for observations other absorbed via recycling.
        tracked = sum(other._counts.values())
        self.total += max(0, other.total - tracked)
        self.replaced += other.replaced
        return self

    # -- flat-buffer codec (zero-copy shard transport) -----------------

    def to_buffers(self):
        """Serialize to ``(meta, buffers)``.  Integer values (the TTL
        use case) pack as ``(int64 value, int64 count)`` pairs in one
        contiguous buffer; other hashables fall back to in-band meta.
        Insertion order is preserved either way -- the recycling
        victim tie-break depends on it."""
        counts = self._counts
        header = (self.max_values, self.total, self.replaced)
        if all(type(value) is int and _INT64_MIN <= value <= _INT64_MAX
               for value in counts):
            buf = bytearray(_INT_PAIR.size * len(counts))
            pos = 0
            for value, count in counts.items():
                _INT_PAIR.pack_into(buf, pos, value, count)
                pos += _INT_PAIR.size
            return ("topv-int",) + header, [bytes(buf)]
        return ("topv-obj",) + header + (tuple(counts.items()),), []

    @classmethod
    def from_buffers(cls, meta, buffers):
        tag, max_values, total, replaced = meta[:4]
        top = cls(max_values)
        top.total = total
        top.replaced = replaced
        if tag == "topv-int":
            top._counts = {value: count for value, count
                           in _INT_PAIR.iter_unpack(buffers[0])}
        elif tag == "topv-obj":
            top._counts = dict(meta[4])
        else:
            raise ValueError("unknown TopValues buffer tag %r" % (tag,))
        return top

    def __reduce_ex__(self, protocol):
        if protocol >= 5:
            meta, buffers = self.to_buffers()
            return (self.from_buffers,
                    (meta, [PickleBuffer(b) for b in buffers]))
        return super().__reduce_ex__(protocol)
