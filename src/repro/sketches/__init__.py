"""Probabilistic data structures used by DNS Observatory.

This subpackage implements the stream-oriented algorithms referenced in
Section 2 of the paper:

* :class:`~repro.sketches.spacesaving.SpaceSaving` -- the Space-Saving
  top-k algorithm (Metwally et al., ICDT 2005) with exponentially
  decaying rate estimates (Section 2.2).
* :class:`~repro.sketches.bloom.BloomFilter` and
  :class:`~repro.sketches.bloom.RotatingBloomFilter` -- the optional
  eviction gate that shields the top-k cache from one-off keys.
* :class:`~repro.sketches.hyperloglog.HyperLogLog` -- cardinality
  estimation for large value sets (Section 2.3), following the
  practical improvements of Heule et al. (EDBT 2013): 64-bit hashing
  and small-range linear counting.
* :class:`~repro.sketches.histogram.LogHistogram` -- streaming
  log-bucketed histograms with quantile estimation, used for response
  delays, hop counts and response sizes.
* :class:`~repro.sketches.topvalues.TopValues` -- bounded discrete
  value counter used for the "top-3 TTL values" feature.
* :class:`~repro.sketches.ewma.ForwardDecay` -- shared-landmark
  exponential decay used by the Space-Saving rate estimates.
* :class:`~repro.sketches.distinct.DistinctSpaceSaving` -- Space-Saving
  ranked by per-key distinct counts (the water-torture detector).
* :class:`~repro.sketches.countmin.CmsTopK` -- Count-Min top-k, the
  ablation comparator for the Space-Saving choice.

All structures are deterministic given their seeds and implemented in
pure Python with no third-party dependencies.  The ones a window's
per-object state is made of -- ``HyperLogLog``, ``LogHistogram``,
``RunningMean``, ``TopValues`` -- and ``DistinctSpaceSaving`` have a
``merge()``: :meth:`~repro.observatory.features.FeatureSet.merge` and
the ddos detector's ``absorb`` call them when shard states recombine.
Space-Saving state itself merges in one place only,
:class:`~repro.observatory.tracker.TrackerChannel` (``absorb`` /
``cut``); ``SpaceSaving`` and the Bloom gate have no ``merge()``.
"""

from repro.sketches.bloom import BloomFilter, RotatingBloomFilter
from repro.sketches.countmin import CmsTopK, CountMinSketch
from repro.sketches.distinct import DistinctSpaceSaving
from repro.sketches.ewma import ForwardDecay
from repro.sketches.histogram import LogHistogram
from repro.sketches.hyperloglog import HyperLogLog
from repro.sketches.spacesaving import SpaceSaving, SpaceSavingEntry
from repro.sketches.topvalues import TopValues

__all__ = [
    "BloomFilter",
    "RotatingBloomFilter",
    "CmsTopK",
    "CountMinSketch",
    "DistinctSpaceSaving",
    "ForwardDecay",
    "LogHistogram",
    "HyperLogLog",
    "SpaceSaving",
    "SpaceSavingEntry",
    "TopValues",
]
