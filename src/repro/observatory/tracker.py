"""Top-k tracker: Space-Saving cache + per-object feature statistics.

One :class:`TopKTracker` implements steps C and D of the Figure 1
pipeline for a single dataset: extract the key, run the Space-Saving
update, and fold the transaction into the live entry's
:class:`~repro.observatory.features.FeatureSet`.

"Each transaction ends up either being aggregated in statistics of a
particular DNS object from the SS cache, or being dropped in case the
corresponding object is not in the cache." (Section 2.3.)
"""

from repro.dnswire.psl import default_psl
from repro.observatory.features import FeatureSet
from repro.sketches.bloom import RotatingBloomFilter
from repro.sketches.spacesaving import SpaceSaving


class TopKTracker:
    """Track one dataset's Top-k objects and their traffic features.

    Parameters
    ----------
    spec:
        A :class:`~repro.observatory.keys.DatasetSpec`.
    tau:
        Space-Saving rate decay constant (seconds).
    use_bloom_gate:
        Enable the Section 2.2 Bloom-filter eviction gate.
    hll_precision / psl:
        Passed through to each object's :class:`FeatureSet`.
    """

    def __init__(self, spec, tau=300.0, use_bloom_gate=True,
                 hll_precision=8, psl=None, bloom_capacity=200_000,
                 bloom_rotate_interval=600.0):
        self.spec = spec
        gate = None
        if use_bloom_gate:
            gate = RotatingBloomFilter(
                capacity=bloom_capacity,
                rotate_interval=bloom_rotate_interval,
            )
        self.cache = SpaceSaving(capacity=spec.k, tau=tau, gate=gate)
        self._hll_precision = hll_precision
        self._psl = psl if psl is not None else default_psl()
        #: the specialized batch key extractor (PSL bound, memoized
        #: where the spec declares the key a function of one txn
        #: attribute): txns -> key list
        self._extract_batch = spec.make_batch_extractor(self._psl)
        #: transactions skipped by the dataset pre-filter
        self.filtered = 0
        #: transactions processed (offered to the SS cache)
        self.processed = 0

    @property
    def feature_binding(self):
        """The ``(hll_precision, psl)`` this tracker's FeatureSets are
        built with -- what a shared
        :class:`~repro.observatory.features.TxnHashes` must be bound
        to for them to apply it without re-deriving."""
        return self._hll_precision, self._psl

    def observe(self, txn, hashes=None):
        """Process one transaction; returns the live entry or None.
        A batch of one through :meth:`observe_batch`."""
        if self.observe_batch((txn,), (hashes,)):
            return self.cache.get(self._extract_batch((txn,))[0])
        return None

    def observe_batch(self, txns, hashes_list):
        """Process a window-aligned batch; returns transactions kept.

        The Space-Saving updates happen in stream order; key
        extraction runs as one batch call -- the memoized datasets
        amortize suffix matching to one dict hit per transaction --
        and the offer/update loop is tight with everything pre-bound.
        *hashes_list* aligns with *txns*: each transaction's shared
        :class:`~repro.observatory.features.TxnHashes`, or None.
        """
        keys = self._extract_batch(txns)
        offer = self.cache.offer
        hll_precision = self._hll_precision
        psl = self._psl
        kept = 0
        filtered = 0
        index = 0
        for key in keys:
            if key is None:
                filtered += 1
                index += 1
                continue
            txn = txns[index]
            entry = offer(key, txn.ts)
            if entry is not None:
                state = entry.state
                if state is None:
                    state = entry.state = FeatureSet(hll_precision, psl)
                state.update(txn, hashes_list[index])
                kept += 1
            index += 1
        self.filtered += filtered
        self.processed += index - filtered
        return kept

    def top(self, n=None):
        """Current top entries, heaviest first."""
        return self.cache.top(n)

    def reset_window_stats(self):
        """Clear per-object features, keeping the Top-k list (§2.4:
        'we keep the list of the most popular objects, but we clear
        their internal state used for traffic features')."""
        for entry in self.cache:
            state = entry.state
            # An idle set is already clear: nothing has touched it
            # since its last clear() (every update bumps hits).
            if state is not None and state.hits:
                state.clear()

    def capture_ratio(self):
        """Share of processed transactions landing on tracked objects."""
        return self.cache.capture_ratio()

    #: cumulative telemetry columns, differenced per window snapshot
    telemetry_deltas = (
        "filtered", "processed", "offered", "tracked_hits", "gated",
        "evictions", "gate_rotations", "gate_overflow_rotations",
    )

    def telemetry_row(self, now):
        """Platform-health sample for the ``_platform`` dataset: cache
        occupancy and churn, the eviction threshold, and -- when the
        Bloom gate is on -- its saturation signals.  Pure pull: the
        underlying counters are maintained by the sketches anyway, so
        sampling costs nothing on the per-transaction path."""
        cache = self.cache
        row = {
            "tracked": len(cache),
            "capacity": cache.capacity,
            "filtered": self.filtered,
            "processed": self.processed,
            "offered": cache.offered,
            "tracked_hits": cache.tracked_hits,
            "gated": cache.gated,
            "evictions": cache.evictions,
            "capture_ratio": round(cache.capture_ratio(), 4),
            "min_rate": round(cache.min_rate(now), 4)
            if now is not None else 0.0,
        }
        gate = cache.gate
        if gate is not None:
            row["gate_fill"] = round(gate.fill_ratio(), 4)
            row["gate_fpr"] = round(gate.approximate_fpr(), 6)
            row["gate_rotations"] = gate.rotations
            row["gate_overflow_rotations"] = gate.overflow_rotations
        return row

    def __len__(self):
        return len(self.cache)

    def __repr__(self):
        return "TopKTracker(%s, k=%d, tracked=%d)" % (
            self.spec.name, self.spec.k, len(self.cache)
        )
