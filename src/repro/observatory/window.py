"""60-second window management: dump-and-reset semantics (Section 2.4).

"Every 60 seconds, we dump all data to disk and reset all statistics,
but without affecting the SS cache. ... Because the popularity of
objects may change at arbitrary points in time, we skip the data from
objects recently inserted in the SS cache.  That is, if we included an
object in the data dump, this means it survived the SS cache eviction
for 60 seconds."
"""

import math
import time
from pickle import PickleBuffer

from repro.observatory.features import FeatureSet, TxnHashes
from repro.observatory.telemetry import (
    PLATFORM_DATASET,
    resolve_telemetry,
    union_columns,
)
from repro.observatory.tsv import TimeSeriesData


#: most transactions (hence prepared per-transaction records) that
#: :meth:`WindowManager.consume_batch` holds at once
_CHUNK = 1024


def align_window(ts, window_seconds):
    """Align *ts* down to its window's start on the global grid.

    Works for fractional window lengths (the integer-division variant
    raised ``ZeroDivisionError`` for ``window_seconds < 1``).  Integral
    results are returned as ints so TSV filenames and existing
    comparisons keep their exact integer timestamps.
    """
    start = math.floor(ts / window_seconds) * window_seconds
    return _as_int_if_integral(start)


def _as_int_if_integral(value):
    i = int(value)
    return i if i == value else value


class WindowDump:
    """One dataset's dump for one completed window."""

    __slots__ = ("dataset", "start_ts", "rows", "stats", "columns")

    def __init__(self, dataset, start_ts, rows, stats, columns=None):
        self.dataset = dataset
        #: window start (virtual seconds)
        self.start_ts = start_ts
        #: list of (key, feature_row_dict) in rank order
        self.rows = rows
        #: {"seen": transactions seen, "kept": after filtering/capture}
        self.stats = stats
        #: TSV column order; None means the canonical feature columns.
        #: Meta-datasets (``_platform`` telemetry) carry their own.
        self.columns = columns

    def row_map(self):
        return dict(self.rows)

    def to_timeseries(self, granularity="minutely"):
        """Convert to :class:`TimeSeriesData` for the TSV writer."""
        return TimeSeriesData(
            self.dataset, granularity, self.start_ts,
            columns=self.columns, rows=self.rows, stats=self.stats,
        )

    def __len__(self):
        return len(self.rows)


class ShardWindowState:
    """One dataset's *mergeable* window state from one ingest shard.

    Where :class:`WindowDump` carries flattened feature rows, this
    carries the raw per-object state a shard accumulated during one
    window -- everything the parent process needs to combine
    independently built shard summaries into the exact-enough global
    Top-k: the decayed rate estimate and its Space-Saving error bound
    (both converted to events/second at the window end, so values from
    shards with different decay landmarks are directly comparable),
    the insertion time (for the §2.4 survived-one-window rule, applied
    only after taking the minimum across shards), the exact hit count,
    and the live :class:`FeatureSet`, detached so it can be shipped
    over a process boundary without copying.
    """

    __slots__ = ("dataset", "start_ts", "entries", "inserted", "stats")

    def __init__(self, dataset, start_ts, entries, inserted, stats):
        self.dataset = dataset
        #: window start (virtual seconds), same grid as WindowDump
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
        #: {"seen": ..., "kept": ...} -- this shard's share
        self.stats = stats

    def __len__(self):
        return len(self.entries)

    # -- flat-buffer codec (zero-copy shard transport) -----------------

    def to_buffers(self):
        """Serialize to ``(meta, buffers)``: per-entry scalars and the
        idle-entry triples in *meta*, every entry's FeatureSet
        contributing its contiguous buffers to one flat list."""
        buffers = []
        packed = []
        for key, rate, error, inserted_at, hits, features in self.entries:
            child_meta, child_buffers = features.to_buffers()
            packed.append((key, rate, error, inserted_at, hits,
                           child_meta, len(child_buffers)))
            buffers.extend(child_buffers)
        meta = (self.dataset, self.start_ts, tuple(packed),
                tuple(self.inserted), dict(self.stats))
        return meta, buffers

    @classmethod
    def from_buffers(cls, meta, buffers):
        dataset, start_ts, packed, inserted, stats = meta
        entries = []
        offset = 0
        for key, rate, error, inserted_at, hits, child_meta, count in packed:
            features = FeatureSet.from_buffers(
                child_meta, buffers[offset:offset + count])
            offset += count
            entries.append((key, rate, error, inserted_at, hits, features))
        return cls(dataset, start_ts, entries, list(inserted), stats)

    def __reduce_ex__(self, protocol):
        if protocol >= 5:
            meta, buffers = self.to_buffers()
            return (self.from_buffers,
                    (meta, [PickleBuffer(b) for b in buffers]))
        return super().__reduce_ex__(protocol)


class WindowManager:
    """Drive a set of trackers through fixed time windows.

    Transactions must arrive in non-decreasing timestamp order (the
    SIE stream is time-ordered).  When a transaction crosses the
    current window's end, every tracker is dumped and its per-object
    statistics reset; the dumps are handed to *sink* (a callable
    ``sink(window_dump)``) and also returned from :meth:`observe`.

    Parameters
    ----------
    trackers:
        Iterable of :class:`~repro.observatory.tracker.TopKTracker`.
    window_seconds:
        Window length; the paper uses 60 s.  Fractional lengths are
        supported (sub-second windows are used in tests).
    skip_recent_inserts:
        Enforce the survived-one-window rule.  Disabling it is the
        ablation knob discussed in DESIGN.md.
    state_sink:
        When set, window boundaries produce mergeable
        :class:`ShardWindowState` objects (one per tracker, passed to
        this callable) *instead of* row dumps -- the shard-worker mode
        of :mod:`repro.observatory.sharded`.  The survived-one-window
        rule is **not** applied in this mode; the merging side applies
        it after combining insertion times across shards.
    telemetry:
        ``True`` / a :class:`~repro.observatory.telemetry.Telemetry`
        registry to enable platform self-telemetry: flush latency,
        rows dumped, skipped-recent counts, gap fast-forwards, plus
        each tracker's sketch-health sample.  In dump mode (no
        *state_sink*) every window boundary additionally emits a
        ``_platform`` :class:`WindowDump` with one row per component.
        Falsy (the default) wires the shared no-op registry: nothing
        is recorded and the hot path is untouched.
    detectors:
        A :class:`~repro.detect.DetectorSet` (or None).  Detectors
        observe every transaction; in dump mode each boundary scores
        and emits a ``_detector`` :class:`WindowDump`, in shard-worker
        mode each boundary ships the detectors' mergeable window
        accumulators as :class:`~repro.detect.DetectorWindowState`
        through *state_sink* (scoring happens on the merging side).
    encrypted:
        An :class:`~repro.observatory.encrypted.
        EncryptedChannelAggregator` (or None).  When set, blinded
        transactions (``source`` starting ``"!"`` -- ciphertext-only
        DoH/DoT observations) are *diverted*: they count toward
        ``seen`` but never reach the trackers or detectors, whose
        datasets would otherwise be polluted by payload-free records;
        the aggregator folds them into the ``_encrypted``
        size/timing dataset instead.  In dump mode each boundary emits
        an ``_encrypted`` :class:`WindowDump` (empty windows write no
        file), in shard-worker mode each boundary ships an
        :class:`~repro.observatory.encrypted.EncryptedWindowState`.
    """

    def __init__(self, trackers, window_seconds=60.0, sink=None,
                 skip_recent_inserts=True, state_sink=None,
                 telemetry=None, detectors=None, encrypted=None):
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        self.trackers = list(trackers)
        self.window_seconds = float(window_seconds)
        self.sink = sink
        self.state_sink = state_sink
        self.detectors = detectors
        self.encrypted = encrypted
        self.skip_recent_inserts = skip_recent_inserts
        self._window_start = None
        self._seen_in_window = 0
        self._kept_in_window = {t.spec.name: 0 for t in self.trackers}
        #: total transactions observed over the manager's lifetime
        self.total_seen = 0
        #: completed windows (gap windows fast-forwarded over included)
        self.windows_completed = 0
        self.telemetry = telemetry = resolve_telemetry(telemetry)
        self._flush_timer = telemetry.timing("window", "flush")
        self._rows_counter = telemetry.counter("window", "rows")
        self._skipped_counter = telemetry.counter("window",
                                                  "skipped_recent")
        self._gap_counter = telemetry.counter("window", "windows_skipped")
        if telemetry.enabled:
            telemetry.register("window", self._telemetry_row,
                               deltas=("txns",))
            for tracker in self.trackers:
                row_fn = getattr(tracker, "telemetry_row", None)
                if row_fn is not None:
                    telemetry.register(
                        "tracker.%s" % tracker.spec.name, row_fn,
                        deltas=getattr(tracker, "telemetry_deltas", ()))

    def _telemetry_row(self, now):
        return {"txns": self.total_seen, "windows": self.windows_completed}

    @property
    def window_start(self):
        return self._window_start

    def observe(self, txn):
        """Feed one transaction.  Returns the list of WindowDumps
        produced by any window boundary this transaction crossed
        (usually empty)."""
        return self.consume_batch((txn,))

    def consume_batch(self, txns):
        """Feed a time-ordered batch of transactions (the hot path).

        The batch is split into window-aligned segments, and each
        segment is walked in chunks of at most :data:`_CHUNK`
        transactions.  Per chunk, the per-*transaction* work happens
        once: one :class:`~repro.observatory.features.TxnHashes`
        record each, bound to the trackers' ``(hll_precision, psl)``
        and prepared lazily by the first FeatureSet that needs it.
        The chunk then runs tracker-major -- every tracker processes
        it in one :meth:`~repro.observatory.tracker.TopKTracker.
        observe_batch` call over the shared records, so key extraction
        is batched and per-*dataset* work is register, bucket and
        counter bumps only.  Trackers are independent, so tracker-major
        order produces byte-identical state to transaction-major
        order; the chunk bound keeps at most :data:`_CHUNK` prepared
        records alive.  Returns the WindowDumps of all boundaries
        crossed.
        """
        dumps = []
        n = len(txns)
        if not n:
            return dumps
        if self._window_start is None:
            self._window_start = self._align(txns[0].ts)
        trackers = self.trackers
        observe_batches = [t.observe_batch for t in trackers]
        names = [t.spec.name for t in trackers]
        tracker_range = range(len(trackers))
        binding = trackers[0].feature_binding if trackers else ()
        encrypted = self.encrypted
        detectors = self.detectors
        window_seconds = self.window_seconds
        kept_map = self._kept_in_window
        i = 0
        while i < n:
            end = self._window_start + window_seconds
            # Longest run [i, j) entirely inside the current window.
            j = i
            while j < n and txns[j].ts < end:
                j += 1
            for low in range(i, j, _CHUNK):
                chunk = txns[low:min(low + _CHUNK, j)]
                if encrypted is not None:
                    blinded = [t for t in chunk if t.source[:1] == "!"]
                    if blinded:
                        encrypted.observe_batch(blinded)
                        chunk = [t for t in chunk if t.source[:1] != "!"]
                hashes_list = [TxnHashes(txn, *binding) for txn in chunk]
                for t in tracker_range:
                    kept = observe_batches[t](chunk, hashes_list)
                    if kept:
                        kept_map[names[t]] += kept
                if detectors is not None:
                    detectors.observe_batch(chunk)
            self.total_seen += j - i
            self._seen_in_window += j - i
            i = j
            if i < n:
                dumps.extend(self._catch_up(txns[i].ts))
        return dumps

    def advance_to(self, ts):
        """Flush every window that ends at or before *ts*.

        Used by shard workers when the coordinator announces that the
        global stream has crossed a boundary this shard's own subset
        has not reached (or never will, for an idle shard).  A manager
        that has seen no transactions yet stays unstarted.
        """
        if self._window_start is None:
            return []
        return self._catch_up(ts)

    def flush(self):
        """Force a dump of the current (possibly partial) window.

        Call at end of stream so the tail window is not lost.
        """
        if self._window_start is None:
            return []
        return self._flush()

    # ------------------------------------------------------------------

    def _align(self, ts):
        return align_window(ts, self.window_seconds)

    def _catch_up(self, ts):
        """Flush the current window if *ts* crossed its end, then
        fast-forward over the rest of a stream gap in one realign.

        The stream is time-ordered, so once the current window has
        been flushed every further window before *ts* is necessarily
        empty: dumping each one would only write a header-only TSV per
        dataset (a 1-day sensor outage with 60 s windows used to write
        1440 empty files per dataset).  The skipped windows still
        count toward :attr:`windows_completed`.
        """
        dumps = []
        window_seconds = self.window_seconds
        if ts < self._window_start + window_seconds:
            return dumps
        dumps.extend(self._flush())  # advances exactly one window
        start = self._window_start
        if ts >= start + window_seconds:
            target = self._align(ts)
            skipped = int(round((target - start) / window_seconds))
            self._window_start = target
            self.windows_completed += skipped
            self._gap_counter.inc(skipped)
        return dumps

    def _flush(self):
        if self.state_sink is not None:
            return self._flush_state()
        telemetry = self.telemetry
        started = time.perf_counter() if telemetry.enabled else 0.0
        start = self._window_start
        dumps = []
        total_rows = 0
        skipped_recent = 0
        for tracker in self.trackers:
            rows = []
            for entry in tracker.top():
                if entry.state is None or entry.state.hits == 0:
                    continue
                if self.skip_recent_inserts and entry.inserted_at > start:
                    skipped_recent += 1
                    continue  # did not survive a full window yet
                rows.append((entry.key, entry.state.as_row()))
            total_rows += len(rows)
            stats = {
                "seen": self._seen_in_window,
                "kept": self._kept_in_window[tracker.spec.name],
            }
            dump = WindowDump(tracker.spec.name, start, rows, stats)
            dumps.append(dump)
            if self.sink is not None:
                self.sink(dump)
            tracker.reset_window_stats()
            self._kept_in_window[tracker.spec.name] = 0
        if self.detectors is not None:
            detector = self._detector_dump(start)
            dumps.append(detector)
            if self.sink is not None:
                self.sink(detector)
        if self.encrypted is not None:
            blinded = self._encrypted_dump(start)
            dumps.append(blinded)
            if self.sink is not None:
                self.sink(blinded)
        if telemetry.enabled:
            self._flush_timer.observe(time.perf_counter() - started)
            self._rows_counter.inc(total_rows)
            self._skipped_counter.inc(skipped_recent)
            platform = self._platform_dump(start)
            dumps.append(platform)
            if self.sink is not None:
                self.sink(platform)
        self._advance_window(start)
        return dumps

    def _detector_dump(self, start):
        """Score the completed window across all detectors and wrap
        the rows into a ``_detector`` WindowDump (the ``_platform``
        pattern: one meta-dataset through the normal TSV chain)."""
        from repro.detect import DETECTOR_DATASET

        rows = self.detectors.cut(start, start + self.window_seconds)
        return WindowDump(
            DETECTOR_DATASET, start, rows,
            {"seen": self._seen_in_window, "kept": len(rows)},
            columns=union_columns(rows))

    def _encrypted_dump(self, start):
        """Emit the completed window's ``_encrypted`` channel features
        (same meta-dataset pattern as ``_detector``).  ``seen`` counts
        the blinded transactions only, computed *from the merged
        accumulators*, so sharded and single-process trailers agree."""
        from repro.observatory.encrypted import ENCRYPTED_DATASET

        seen = self.encrypted.seen()
        rows = self.encrypted.cut(start, start + self.window_seconds)
        return WindowDump(
            ENCRYPTED_DATASET, start, rows,
            {"seen": seen, "kept": len(rows)},
            columns=union_columns(rows))

    def _platform_dump(self, start):
        """Wrap the registry snapshot into a ``_platform`` WindowDump
        so platform health flows through the exact TSV/aggregation
        path as paper data."""
        rows = self.telemetry.snapshot(start + self.window_seconds)
        return WindowDump(
            PLATFORM_DATASET, start, rows,
            {"seen": self._seen_in_window, "kept": len(rows)},
            columns=union_columns(rows))

    def _flush_state(self):
        """Shard-worker flush: emit mergeable per-tracker state.

        Active FeatureSets are detached (``entry.state = None``)
        rather than cleared in place, so the emitted objects can cross
        a process boundary while the tracker keeps running.
        """
        telemetry = self.telemetry
        started = time.perf_counter() if telemetry.enabled else 0.0
        start = self._window_start
        end = start + self.window_seconds
        for tracker in self.trackers:
            cache = tracker.cache
            entries = []
            inserted = []
            for entry in cache:
                state = entry.state
                if state is None or state.hits == 0:
                    inserted.append((entry.key, entry.inserted_at,
                                     cache.rate(entry, end)))
                    continue
                entries.append((
                    entry.key,
                    cache.rate(entry, end),
                    cache.decay.rate(entry.error, end),
                    entry.inserted_at,
                    entry.hits,
                    state,
                ))
                entry.state = None  # detach; fresh stats next window
            stats = {
                "seen": self._seen_in_window,
                "kept": self._kept_in_window[tracker.spec.name],
            }
            self.state_sink(ShardWindowState(
                tracker.spec.name, start, entries, inserted, stats))
            self._kept_in_window[tracker.spec.name] = 0
        if self.detectors is not None:
            for state in self.detectors.take_states(start):
                self.state_sink(state)
        if self.encrypted is not None:
            self.state_sink(self.encrypted.take_state(start))
        if telemetry.enabled:
            self._flush_timer.observe(time.perf_counter() - started)
        self._advance_window(start)
        return []

    def _advance_window(self, start):
        self._window_start = _as_int_if_integral(start + self.window_seconds)
        self._seen_in_window = 0
        self.windows_completed += 1
