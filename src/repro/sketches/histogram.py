"""Streaming log-bucketed histograms with quantile estimation.

Section 2.3 keeps *quartiles* of server response delays, inferred
network hop counts, and response packet sizes per tracked object.  At
200 k transactions/second storing raw samples is impossible, so the
Observatory uses fixed-memory histograms.

:class:`LogHistogram` uses geometrically spaced bucket boundaries,
giving a constant *relative* quantile error (configurable, default
5 %), which matches how delay data is usually reported (log-scaled
axes in Figure 3).  Buckets are stored sparsely in a dict, so objects
with few observations stay tiny.
"""

import math
import struct


class LogHistogram:
    """Fixed-relative-error streaming histogram over positive values.

    Values are mapped to geometric buckets ``base**i``; quantiles are
    estimated by interpolating inside the selected bucket.  Values at
    or below ``min_value`` share the underflow bucket 0.

    Parameters
    ----------
    relative_error:
        Half-width of a bucket in relative terms; bucket boundaries
        grow by ``(1+e)/(1-e)`` per bucket.
    min_value:
        Smallest distinguishable value; anything smaller is clamped.
    """

    __slots__ = ("base", "_log_base", "min_value", "_buckets", "count", "_sum",
                 "_min", "_max")

    def __init__(self, relative_error=0.05, min_value=1e-6):
        if not 0.0 < relative_error < 1.0:
            raise ValueError("relative_error must be in (0, 1)")
        self.base = (1.0 + relative_error) / (1.0 - relative_error)
        self._log_base = math.log(self.base)
        self.min_value = float(min_value)
        self._buckets = {}
        self.count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def empty_copy(self):
        """A new, empty histogram with this one's parameters, made
        without re-validating them or taking the logarithm again."""
        clone = object.__new__(type(self))
        clone.base = self.base
        clone._log_base = self._log_base
        clone.min_value = self.min_value
        clone._buckets = {}
        clone.count = 0
        clone._sum = 0.0
        clone._min = math.inf
        clone._max = -math.inf
        return clone

    def bucket_index(self, value):
        """The bucket a non-negative *value* falls into."""
        if value <= self.min_value:
            return 0
        return 1 + int(math.log(value / self.min_value) / self._log_base)

    def _bucket_midpoint(self, index):
        if index == 0:
            return self.min_value
        low = self.min_value * self.base ** (index - 1)
        return low * math.sqrt(self.base)

    def add(self, value):
        """Record one *value*."""
        if value < 0:
            raise ValueError("LogHistogram only accepts non-negative values")
        idx = self.bucket_index(value)
        self._buckets[idx] = self._buckets.get(idx, 0) + 1
        self.count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def add_indexed(self, index, value):
        """Record one non-negative *value* whose :meth:`bucket_index`
        the caller already computed (on a histogram with these
        parameters) -- ``add(value)`` minus the logarithm."""
        self._buckets[index] = self._buckets.get(index, 0) + 1
        self.count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def mean(self):
        """Exact arithmetic mean of all recorded values."""
        return self._sum / self.count if self.count else 0.0

    @property
    def max(self):
        return self._max if self.count else 0.0

    def quantile(self, q):
        """Estimate the *q*-quantile (0 <= q <= 1) of recorded values."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * (self.count - 1)
        seen = 0
        for idx in sorted(self._buckets):
            bucket_count = self._buckets[idx]
            if seen + bucket_count > target:
                value = self._bucket_midpoint(idx)
                return min(max(value, self._min), self._max)
            seen += bucket_count
        return self._max

    def quartiles(self):
        """Return (q25, median, q75) -- the per-feature stats of §2.3."""
        return (self.quantile(0.25), self.quantile(0.5), self.quantile(0.75))

    def merge(self, other):
        """Fold *other* (same parameters) into this histogram."""
        if not isinstance(other, LogHistogram):
            raise TypeError("can only merge LogHistogram instances")
        if abs(other.base - self.base) > 1e-12 or other.min_value != self.min_value:
            raise ValueError("cannot merge histograms with different parameters")
        for idx, cnt in other._buckets.items():
            self._buckets[idx] = self._buckets.get(idx, 0) + cnt
        self.count += other.count
        self._sum += other._sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        return self

    def clear(self):
        """Reset to the empty histogram (parameters preserved)."""
        self._buckets.clear()
        self.count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # -- flat-buffer view (FeatureSet.to_buffers) ----------------------

    _PAIR = struct.Struct("<iq")

    def to_buffers(self):
        """Serialize to ``(meta, buffers)``: scalar state in *meta*,
        the sparse buckets packed as little-endian ``(int32 index,
        int64 count)`` pairs in one contiguous buffer."""
        items = self._buckets.items()
        buf = bytearray(self._PAIR.size * len(items))
        pos = 0
        pack_into = self._PAIR.pack_into
        for idx, count in items:
            pack_into(buf, pos, idx, count)
            pos += self._PAIR.size
        meta = ("loghist", self.base, self.min_value, self.count,
                self._sum, self._min, self._max)
        return meta, [bytes(buf)]


class RunningMean:
    """Tiny streaming mean used for the "average" features (e.g. qdots)."""

    __slots__ = ("count", "_sum")

    def __init__(self):
        self.count = 0
        self._sum = 0.0

    def add(self, value):
        self.count += 1
        self._sum += value

    @property
    def mean(self):
        return self._sum / self.count if self.count else 0.0

    def merge(self, other):
        self.count += other.count
        self._sum += other._sum
        return self

    # -- flat-buffer view: two scalars, no buffers needed --------------

    def to_buffers(self):
        return ("rmean", self.count, self._sum), []
