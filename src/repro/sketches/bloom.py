"""Bloom filters (Bloom, 1970) for the Space-Saving eviction gate.

Section 2.2: before evicting the least-frequent Space-Saving entry to
make room for a never-seen key, the tracker "optionally consult[s] a
Bloom Filter ... in order to skip incidental observations of rare
keys".  A key must therefore be observed at least twice within the
filter's lifetime before it may displace a tracked object.

Because a plain Bloom filter only fills up over time, the tracker uses
:class:`RotatingBloomFilter`: two alternating filters where the older
one is cleared on rotation, giving the gate a bounded memory horizon.
"""

import math

from repro.sketches._hashing import hash_pair


class BloomFilter:
    """A classic Bloom filter over string/bytes keys.

    Parameters
    ----------
    capacity:
        Number of distinct keys the filter is sized for, at a
        false-positive probability of :attr:`error_rate`.
    seed:
        Hash seed; filters with different seeds are independent.
    """

    #: target false-positive probability at *capacity* insertions
    error_rate = 0.01

    def __init__(self, capacity=100_000, seed=0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.seed = int(seed)
        # Standard sizing: m = -n ln p / (ln 2)^2, k = m/n ln 2.
        bits = int(math.ceil(-capacity * math.log(self.error_rate)
                             / (math.log(2) ** 2)))
        self.num_bits = max(bits, 64)
        self.num_hashes = max(1, int(round(self.num_bits / capacity * math.log(2))))
        self._bits = bytearray((self.num_bits + 7) // 8)
        self._count = 0
        #: set bits, maintained incrementally so fill_ratio() is O(1)
        #: (telemetry samples it; popcounting ~2 Mbit in Python per
        #: snapshot would dominate the whole flush)
        self._bits_set = 0

    def __len__(self):
        """Number of ``add()`` calls (including duplicates)."""
        return self._count

    def _positions(self, key):
        h1, h2 = hash_pair(key, self.seed)
        m = self.num_bits
        return [(h1 + i * h2) % m for i in range(self.num_hashes)]

    def add(self, key):
        """Insert *key*; returns True if it was (probably) already present."""
        present = True
        for pos in self._positions(key):
            byte, bit = pos >> 3, pos & 7
            if not self._bits[byte] & (1 << bit):
                present = False
                self._bits[byte] |= 1 << bit
                self._bits_set += 1
        self._count += 1
        return present

    def __contains__(self, key):
        return all(self._bits[p >> 3] & (1 << (p & 7)) for p in self._positions(key))

    def clear(self):
        """Remove all keys."""
        self._bits = bytearray(len(self._bits))
        self._count = 0
        self._bits_set = 0

    def fill_ratio(self):
        """Fraction of bits set -- a saturation indicator."""
        return self._bits_set / self.num_bits

    def approximate_fpr(self):
        """Estimate the current false-positive rate from the fill ratio."""
        return self.fill_ratio() ** self.num_hashes


class RotatingBloomFilter:
    """Two alternating Bloom filters providing a sliding time horizon.

    Keys are added to the *active* filter; membership checks consult
    both the active and the *previous* filter.  Calling
    :meth:`maybe_rotate` (or adding more than ``capacity`` keys)
    swaps them and clears the older one, so any key is remembered for
    at least one and at most two rotation periods.
    """

    def __init__(self, capacity=100_000, rotate_interval=600.0):
        self.capacity = int(capacity)
        self.rotate_interval = float(rotate_interval)
        self._active = BloomFilter(capacity)
        self._previous = BloomFilter(capacity, 0x5BF03635)
        self._last_rotation = None
        self.rotations = 0
        #: rotations forced by insert-count overflow rather than time --
        #: nonzero values flag a key surge (PRSD / botnet) faster than
        #: any fill-ratio poll would
        self.overflow_rotations = 0

    def add(self, key, now=None):
        """Insert *key*; returns True if it was already remembered."""
        if now is not None:
            self.maybe_rotate(now)
        seen = key in self._previous
        seen = self._active.add(key) or seen
        if len(self._active) >= self.capacity:
            # Count-based overflow rotation: a key surge within one
            # rotate_interval (PRSD attack, botnet ramp-up) would
            # otherwise drive the fill ratio toward 1.0, at which
            # point every unknown key reads as "seen before" and the
            # gate silently stops gating.
            self._rotate(now)
            self.overflow_rotations += 1
        return seen

    def __contains__(self, key):
        return key in self._active or key in self._previous

    def maybe_rotate(self, now):
        """Rotate the filters if *rotate_interval* elapsed; return True if so."""
        if self._last_rotation is None:
            self._last_rotation = now
            return False
        if now - self._last_rotation < self.rotate_interval:
            return False
        self._rotate(now)
        return True

    def _rotate(self, now):
        self._previous, self._active = self._active, self._previous
        self._active.clear()
        if now is not None:
            self._last_rotation = now
        self.rotations += 1

    def fill_ratio(self):
        """Fraction of bits set in the *active* filter -- the gate's
        primary saturation signal."""
        return self._active.fill_ratio()

    def approximate_fpr(self):
        """Estimated false-positive rate of the membership check.

        A key is "remembered" when either filter reports it, so the
        combined FPR is ``1 - (1-p_active)(1-p_previous)``."""
        fpr_active = self._active.approximate_fpr()
        fpr_previous = self._previous.approximate_fpr()
        return 1.0 - (1.0 - fpr_active) * (1.0 - fpr_previous)
