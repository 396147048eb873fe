"""Top-k tracker: Space-Saving cache + per-object feature statistics.

One :class:`TopKTracker` implements steps C and D of the Figure 1
pipeline for a single dataset: extract the key, run the Space-Saving
update, and fold the transaction into the live entry's
:class:`~repro.observatory.features.FeatureSet`.

"Each transaction ends up either being aggregated in statistics of a
particular DNS object from the SS cache, or being dropped in case the
corresponding object is not in the cache." (Section 2.3.)

:class:`TrackerChannel` is the tracker's face toward the window flush
(:mod:`repro.observatory.channels`): it detaches a window's per-object
state as a mergeable :class:`ShardWindowState` and turns merged states
into the window's dump.
"""

from repro.dnswire.psl import default_psl
from repro.observatory.features import FeatureSet
from repro.observatory.tsv import TimeSeriesData
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

    def observe(self, txn):
        """Process one transaction; returns the live entry or None.
        A batch of one through :meth:`observe_batch`."""
        if self.observe_batch((txn,), (None,)):
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
                    state = entry.state = FeatureSet()
                state.update(txn, hashes_list[index])
                kept += 1
            index += 1
        self.filtered += filtered
        self.processed += index - filtered
        return kept

    def top(self, n=None):
        """Current top entries, heaviest first."""
        return self.cache.top(n)

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

    def __repr__(self):
        return "TopKTracker(%s, k=%d, tracked=%d)" % (
            self.spec.name, self.spec.k, len(self.cache)
        )


class ShardWindowState:
    """One dataset's *mergeable* window state from one ingest shard.

    Where the cut window carries flattened feature rows, this
    carries the raw per-object state a shard accumulated during one
    window -- everything the merging side needs to combine
    independently built shard summaries into the exact-enough global
    Top-k: the decayed rate estimate and its Space-Saving error bound
    (both converted to events/second at the window end, so values from
    shards with different decay landmarks are directly comparable),
    the insertion time (for the §2.4 survived-one-window rule, applied
    only after taking the minimum across shards), the exact hit count,
    and the live :class:`FeatureSet`, detached so it can be pickled
    across a process boundary while the tracker keeps running.
    """

    __slots__ = ("dataset", "start_ts", "entries", "inserted", "stats")

    def __init__(self, dataset, start_ts, entries, inserted, stats):
        self.dataset = dataset
        #: window start (virtual seconds), same grid as the cut window
        self.start_ts = start_ts
        #: list of (key, rate, error_rate, inserted_at, hits, FeatureSet)
        self.entries = entries
        #: live-but-idle cache entries, as ``(key, inserted_at, rate)``
        #: triples.  A key can be long-tracked (and heavy) in one shard
        #: yet see traffic only in another during this window; without
        #: these, the merged minimum insertion time would misapply the
        #: survived-one-window rule, and the merged rank would drop the
        #: idle shard's accumulated weight (the single cache ranks by
        #: *lifetime* decayed weight, so the merge must too).
        self.inserted = inserted
        #: {"kept": ...} -- this shard's share
        self.stats = stats


class TrackerChannel:
    """One dataset's Top-k tracker as a window channel.

    ``take_state`` detaches the active FeatureSets (``entry.state =
    None``) rather than clearing them in place, so they can cross a
    process boundary while the tracker keeps running; ``absorb`` is
    the mergeable-summaries union (Agarwal et al., PODS 2012): rates
    of the same key add across shards, insertion times take the
    minimum; ``cut`` applies the survived-one-window rule to the
    merged insertion times, ranks by merged rate and keeps the top k.
    """

    blinded = False

    def __init__(self, tracker, skip_recent_inserts, telemetry):
        self.tracker = tracker
        self.dataset = tracker.spec.name
        self.skip_recent_inserts = skip_recent_inserts
        self._rows = telemetry.counter("window", "rows")
        self._skipped = telemetry.counter("window", "skipped_recent")
        self._kept = 0
        self._reset()

    def _reset(self):
        self._merged = {}  # key -> [rate, inserted_at, FeatureSet]
        self._idle = []
        self._merged_kept = 0

    def observe_batch(self, txns, hashes):
        self._kept += self.tracker.observe_batch(txns, hashes)

    def take_state(self, start, end):
        rate = self.tracker.cache.decay.rate
        entries = []
        idle = []
        for entry in self.tracker.cache:
            features = entry.state
            if features is None or features.hits == 0:
                idle.append((entry.key, entry.inserted_at,
                             rate(entry.weight, end)))
                continue
            entries.append((entry.key, rate(entry.weight, end),
                            rate(entry.error, end),
                            entry.inserted_at, entry.hits, features))
            entry.state = None  # detach; fresh stats next window
        state = ShardWindowState(self.dataset, start, entries, idle,
                                 {"kept": self._kept})
        self._kept = 0
        return state

    def absorb(self, state):
        merged = self._merged
        for key, rate, _error, inserted_at, _hits, features in state.entries:
            current = merged.get(key)
            if current is None:
                merged[key] = [rate, inserted_at, features]
            else:
                current[0] += rate
                if inserted_at < current[1]:
                    current[1] = inserted_at
                current[2].merge(features)
        # applied at the cut, once every shard's active entries are in
        self._idle.extend(state.inserted)
        self._merged_kept += state.stats["kept"]

    def cut(self, start, end, seen):
        merged = self._merged
        # A key may be long-tracked in a shard that happened to be
        # idle for it this window.  Honor that shard's insertion time
        # (survived-one-window rule) and fold its accumulated weight
        # into the rank: the single cache orders by lifetime decayed
        # weight, so the merged rate must include idle shards too.
        for key, inserted_at, rate in self._idle:
            current = merged.get(key)
            if current is not None:
                current[0] += rate
                if inserted_at < current[1]:
                    current[1] = inserted_at
        candidates = merged.items()
        if self.skip_recent_inserts:
            # inserted after the window opened: did not survive a full
            # window yet (§2.4)
            candidates = [item for item in candidates
                          if item[1][1] <= start]
            self._skipped.inc(len(merged) - len(candidates))
        ranked = sorted(candidates, key=lambda item: (-item[1][0], item[0]))
        rows = [(key, current[2].as_row())
                for key, current in ranked[:self.tracker.spec.k]]
        self._rows.inc(len(rows))
        dump = TimeSeriesData(
            self.dataset, "minutely", start, rows=rows,
            stats={"seen": seen, "kept": self._merged_kept})
        self._reset()
        return dump
