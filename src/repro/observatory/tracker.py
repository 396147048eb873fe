"""Top-k tracker: Space-Saving cache + per-object feature statistics.

One :class:`TopKTracker` implements steps C and D of the Figure 1
pipeline for a single dataset: extract the key, run the Space-Saving
update, and fold the transaction into the live entry's
:class:`~repro.observatory.features.FeatureSet`.

"Each transaction ends up either being aggregated in statistics of a
particular DNS object from the SS cache, or being dropped in case the
corresponding object is not in the cache." (Section 2.3.)

:class:`TrackerChannel` is the tracker's face toward the window flush
(:mod:`repro.observatory.channels`): it turns a window's per-object
state into the window's dump.
"""

from repro.dnswire.psl import default_psl
from repro.observatory.features import FeatureSet
from repro.observatory.tsv import TimeSeriesData
from repro.sketches.bloom import RotatingBloomFilter
from repro.sketches.spacesaving import SpaceSaving

#: the window start of a fold without one: every entry is older
_NEVER = float("inf")


class TopKTracker:
    """Track one dataset's Top-k objects and their traffic features.

    Parameters
    ----------
    spec:
        A :class:`~repro.observatory.keys.DatasetSpec`.
    tau:
        Space-Saving rate decay constant (seconds).
    use_bloom_gate:
        Enable the Section 2.2 Bloom-filter eviction gate (200 k
        keys, rotated every 600 s).
    """

    def __init__(self, spec, tau=300.0, use_bloom_gate=True):
        self.spec = spec
        gate = None
        if use_bloom_gate:
            gate = RotatingBloomFilter(capacity=200_000,
                                       rotate_interval=600.0)
        self.cache = SpaceSaving(capacity=spec.k, tau=tau, gate=gate)
        #: the specialized batch key extractor (PSL bound, memoized
        #: where the spec declares the key a function of one txn
        #: attribute): txns -> key list
        self._extract_batch = spec.make_batch_extractor(default_psl())
        #: transactions skipped by the dataset pre-filter
        self.filtered = 0
        #: transactions processed (offered to the SS cache)
        self.processed = 0
        #: kept transactions not folded: their entry was inserted
        #: inside the open window (see :meth:`observe_batch`)
        self.unfolded = 0

    def observe(self, txn):
        """Process one transaction; returns the live entry or None.
        A batch of one through :meth:`observe_batch`."""
        if self.observe_batch((txn,), (None,)):
            return self.cache.get(self._extract_batch((txn,))[0])
        return None

    def observe_batch(self, txns, hashes_list, window_start=None):
        """Process a window-aligned batch; returns transactions kept.

        The Space-Saving updates happen in stream order; key
        extraction runs as one batch call -- the memoized datasets
        amortize suffix matching to one dict hit per transaction --
        and the offer/update loop is tight with everything pre-bound.
        *hashes_list* aligns with *txns*: each transaction's shared
        :class:`~repro.observatory.features.TxnHashes`, or None.

        *window_start* is the open window's start, or None.  When
        given, a kept transaction is folded into its entry's
        FeatureSet only if the entry was inserted at or before it: the
        window's dump skips every entry inserted later (§2.4), so
        their statistics would be thrown away.  Such a transaction
        still counts as kept, and in :attr:`unfolded`.  None folds
        every kept transaction.
        """
        keys = self._extract_batch(txns)
        offer = self.cache.offer
        opened = _NEVER if window_start is None else window_start
        kept = 0
        unfolded = 0
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
                kept += 1
                if entry.inserted_at <= opened:
                    state = entry.state
                    if state is None:
                        state = entry.state = FeatureSet()
                    state.update(txn, hashes_list[index])
                else:
                    unfolded += 1
            index += 1
        self.filtered += filtered
        self.processed += index - filtered
        self.unfolded += unfolded
        return kept

    def top(self, n=None):
        """Current top entries, heaviest first."""
        return self.cache.top(n)

    def capture_ratio(self):
        """Share of processed transactions landing on tracked objects."""
        return self.cache.capture_ratio()

    #: cumulative telemetry columns, differenced per window snapshot
    telemetry_deltas = (
        "filtered", "processed", "unfolded", "offered", "tracked_hits",
        "gated", "evictions", "gate_rotations", "gate_overflow_rotations",
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
            "unfolded": self.unfolded,
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

    def __repr__(self):
        return "TopKTracker(%s, k=%d, tracked=%d)" % (
            self.spec.name, self.spec.k, len(self.cache)
        )


class TrackerChannel:
    """One dataset's Top-k tracker as a window channel.

    With the survived-one-window rule on (§2.4), a transaction is
    folded only into an entry inserted at or before the window's
    start, the entries the window can emit; ``cut`` counts the
    entries inserted since as ``skipped_recent``.  It detaches every
    active FeatureSet (``entry.state = None``: fresh statistics next
    window, the Space-Saving cache itself untouched), ranks by decayed
    rate at the window end and keeps the top k.
    """

    blinded = False

    def __init__(self, tracker, skip_recent_inserts, telemetry):
        self.tracker = tracker
        self.dataset = tracker.spec.name
        self.skip_recent_inserts = skip_recent_inserts
        self._rows = telemetry.counter("window", "rows")
        self._skipped = telemetry.counter("window", "skipped_recent")
        self._kept = 0

    def observe_batch(self, txns, hashes, start):
        self._kept += self.tracker.observe_batch(
            txns, hashes, start if self.skip_recent_inserts else None)

    def cut(self, start, end, seen):
        rate = self.tracker.cache.decay.rate
        skip_recent = self.skip_recent_inserts
        ranked = []
        skipped = 0
        for entry in self.tracker.cache:
            if skip_recent and entry.inserted_at > start:
                # inserted after the window opened: did not survive a
                # full window yet (§2.4), so never folded
                skipped += 1
                continue
            features = entry.state
            if features is None:
                continue  # no transaction this window
            entry.state = None  # detach; fresh stats next window
            ranked.append((-rate(entry.weight, end), entry.key, features))
        self._skipped.inc(skipped)
        ranked.sort(key=lambda item: item[:2])
        rows = [(key, features.as_row())
                for _, key, features in ranked[:self.tracker.spec.k]]
        self._rows.inc(len(rows))
        dump = TimeSeriesData(
            self.dataset, "minutely", start, rows=rows,
            stats={"seen": seen, "kept": self._kept})
        self._kept = 0
        return dump
