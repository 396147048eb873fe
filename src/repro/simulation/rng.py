"""Deterministic random-number plumbing for the simulator.

Every component draws from a named substream derived from the scenario
seed, so adding a new consumer never perturbs the draws of existing
ones -- experiments stay reproducible across code changes that only
add components.
"""

import bisect
import random

from repro.sketches._hashing import hash64


class RngHub:
    """Factory of independent, named ``random.Random`` substreams."""

    def __init__(self, seed=0):
        self.seed = int(seed)
        self._streams = {}

    def stream(self, name):
        """Return the (cached) substream for *name*."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(hash64(name, self.seed))
            self._streams[name] = rng
        return rng

    def fork(self, name):
        """A fresh, uncached substream (for per-entity generators)."""
        return random.Random(hash64("fork:" + name, self.seed))

    def uniform_hash(self, name):
        """A deterministic float in [0, 1) keyed by *name* -- used for
        per-entity decisions (e.g. which resolvers enable qmin) that
        must not depend on draw order."""
        return hash64(name, self.seed) / 2.0 ** 64


class ZipfSampler:
    """Sample ranks 0..n-1 with probability proportional to 1/(r+1)^s.

    Heavy-tailed popularity is the defining property of DNS objects
    (Section 2.2: "their distributions are often heavy-tailed"); the
    simulator uses this for domains, nameservers, and clients.
    Sampling is O(log n) via a precomputed CDF.
    """

    def __init__(self, n, s=1.0):
        if n < 1:
            raise ValueError("n must be >= 1")
        if s < 0:
            raise ValueError("s must be >= 0")
        self.n = int(n)
        self.s = float(s)
        #: the stream :meth:`sample` draws from when given none
        self._rng = random.Random(0)
        cdf = []
        total = 0.0
        for rank in range(self.n):
            total += 1.0 / (rank + 1.0) ** self.s
            cdf.append(total)
        self._cdf = cdf
        self._total = total

    def sample(self, rng=None):
        """Draw one rank (0 = most popular)."""
        r = (rng or self._rng).random() * self._total
        return bisect.bisect_left(self._cdf, r)
