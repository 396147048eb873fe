"""HyperLogLog cardinality estimation (Flajolet et al., 2007).

Section 2.3: "For estimating the number of elements in possibly large
sets of values (e.g. qnamesa) we use the HyperLogLog algorithm, as
improved in [30]" -- Heule et al., *HyperLogLog in Practice* (EDBT
2013).  We adopt the two improvements that matter at Observatory
scale:

* a 64-bit hash function, which removes the large-range correction of
  the original algorithm entirely, and
* linear counting for small cardinalities, which eliminates the severe
  small-range bias of the raw estimator.

We do not reproduce Google's empirically fitted bias-correction tables;
for the cardinalities and precisions used here (p = 10..14) the
standard-error envelope of ~1.04/sqrt(m) is sufficient, and the
property-based tests assert that envelope.

Sketches with the same precision and seed are mergeable, which the
time-aggregation pipeline (Section 2.4) relies on when combining
minutely files into coarser granularities.
"""

import math

from repro.sketches._hashing import hash64

#: 2**-rank for every possible register value; powers of two are exact
#: in binary floating point, so table lookup is bit-identical to
#: computing ``2.0 ** -reg`` inline
_INV_POW2 = tuple(2.0 ** -r for r in range(256))


def index_rank(h, precision):
    """The ``(register index, rank)`` a 64-bit hash *h* maps to at
    *precision* -- what :meth:`HyperLogLog.add_hash` computes, exposed
    so a caller feeding many same-precision sketches from one hash can
    do it once and raise register ``index`` to ``rank`` itself (as
    :meth:`~repro.observatory.features.FeatureSet.update` does)."""
    rest = h << precision & ((1 << 64) - 1)
    return (h >> (64 - precision),
            64 - precision + 1 if rest == 0 else 64 - rest.bit_length() + 1)


class HyperLogLog:
    """A mergeable HyperLogLog counter.

    Parameters
    ----------
    precision:
        Number of index bits *p*; the sketch uses ``m = 2**p`` one-byte
        registers.  Standard error is roughly ``1.04 / sqrt(m)``.
    seed:
        Hash seed.  Only sketches with equal (precision, seed) merge.
    """

    __slots__ = ("precision", "seed", "_registers")

    def __init__(self, precision=12, seed=0):
        if not 4 <= precision <= 18:
            raise ValueError("precision must be in [4, 18], got %r" % precision)
        self.precision = int(precision)
        self.seed = int(seed)
        self._registers = bytearray(1 << self.precision)

    def empty_copy(self):
        """A new, empty sketch with this one's precision and seed,
        made without re-validating them: a caller that builds many
        same-parameter sketches keeps one as the template."""
        clone = object.__new__(type(self))
        clone.precision = self.precision
        clone.seed = self.seed
        clone._registers = bytearray(len(self._registers))
        return clone

    @property
    def num_registers(self):
        return 1 << self.precision

    def add(self, key):
        """Add *key* (str or bytes) to the multiset."""
        self.add_hash(hash64(key, self.seed))

    def add_hash(self, h):
        """Add a key by its precomputed 64-bit hash.

        The caller owns hash independence: pass
        :func:`repro.sketches._hashing.derive64` variants when several
        sketches share one base hash (never the same *h* to sketches
        that must stay independent)."""
        idx = h >> (64 - self.precision)
        rest = h << self.precision & ((1 << 64) - 1)
        # Rank: position of the leftmost 1-bit in the remaining bits.
        rank = 64 - self.precision + 1 if rest == 0 else (64 - rest.bit_length() + 1)
        if rank > self._registers[idx]:
            self._registers[idx] = rank

    def _alpha(self):
        m = self.num_registers
        if m == 16:
            return 0.673
        if m == 32:
            return 0.697
        if m == 64:
            return 0.709
        return 0.7213 / (1.0 + 1.079 / m)

    def cardinality(self):
        """Return the estimated number of distinct keys added."""
        m = self.num_registers
        registers = self._registers
        zeros = registers.count(0)
        # Linear-counting short-circuit: each zero register contributes
        # 1.0 to inv_sum, so inv_sum >= zeros and therefore
        # raw <= alpha * m**2 / zeros.  When that bound already sits
        # under the 2.5*m small-range threshold, the raw estimate is
        # guaranteed to be discarded for linear counting -- which needs
        # only the zero count -- and the register scan can be skipped
        # entirely.  Sparse sketches (the per-key HLLs of the distinct
        # heavy-hitter detector) take this path almost always.
        alpha = self._alpha()
        if zeros and alpha * m <= 2.5 * zeros:
            return m * math.log(m / zeros)
        inv_sum = 0.0
        table = _INV_POW2
        for reg in registers:
            inv_sum += table[reg]
        raw = alpha * m * m / inv_sum
        # Small-range correction via linear counting (Heule et al.).
        if raw <= 2.5 * m and zeros:
            return m * math.log(m / zeros)
        return raw

    def merge(self, other):
        """Fold *other* into this sketch (register-wise max)."""
        if not isinstance(other, HyperLogLog):
            raise TypeError("can only merge HyperLogLog instances")
        if (self.precision, self.seed) != (other.precision, other.seed):
            raise ValueError("cannot merge sketches with different parameters")
        mine, theirs = self._registers, other._registers
        for i in range(len(mine)):
            if theirs[i] > mine[i]:
                mine[i] = theirs[i]
        return self

    # -- flat-buffer view (FeatureSet.to_buffers) ----------------------

    def _index_size(self):
        if self.precision <= 8:
            return 1
        if self.precision <= 16:
            return 2
        return 4

    def to_buffers(self):
        """Serialize to ``(meta, buffers)`` with contiguous payloads.

        The register block is the register-block representation of
        Heule et al. (EDBT 2013): a mostly-empty sketch encodes as
        sparse ``(index, rank)`` pairs, a populated one exposes the
        live register ``bytearray`` itself -- no copy is made, so the
        buffers are a view of this sketch's state, not a snapshot.
        """
        registers = self._registers
        idx_size = self._index_size()
        pair = idx_size + 1
        occupied = self.num_registers - registers.count(0)
        if occupied * pair < len(registers):
            buf = bytearray(occupied * pair)
            pos = 0
            for i, rank in enumerate(registers):
                if rank:
                    buf[pos:pos + idx_size] = i.to_bytes(idx_size, "little")
                    buf[pos + idx_size] = rank
                    pos += pair
            return ("hll-sparse", self.precision, self.seed), [bytes(buf)]
        return ("hll-dense", self.precision, self.seed), [registers]
