"""60-second window management: dump-and-reset semantics (Section 2.4).

:class:`WindowManager` walks a time-ordered stream along the global
window grid and flushes the channels of
:mod:`repro.observatory.channels` at every boundary.
"""

import math
import time

from repro import memo
from repro.observatory.channels import build_channels, meta_dump
from repro.observatory.features import TxnHashes
from repro.observatory.telemetry import PLATFORM_DATASET, resolve_telemetry


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


class WindowManager:
    """Drive a set of trackers through fixed time windows.

    Transactions must arrive in non-decreasing timestamp order (the
    SIE stream is time-ordered).  When a transaction crosses the
    current window's end, the window is flushed: every channel cuts
    its :class:`~repro.observatory.tsv.TimeSeriesData`; the dumps are
    handed to *sink* (a callable ``sink(window_dump)``) and also
    returned from :meth:`observe`.

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
        When set, a window boundary hands the list of windows it cut
        (channel order) to this callable *instead of* the sink, and no
        ``_platform`` window is made -- the shard-worker mode of
        :mod:`repro.observatory.sharded`, whose coordinator emits every
        worker's windows and its own ``_platform``.
    telemetry:
        ``True`` / a :class:`~repro.observatory.telemetry.Telemetry`
        registry to enable platform self-telemetry: flush latency,
        rows dumped, skipped-recent counts, gap fast-forwards, the
        process's memo clears (:mod:`repro.memo`), plus each
        tracker's sketch-health sample.  Without a *state_sink*
        every window boundary additionally emits a ``_platform``
        dump with one row per component.
        Falsy (the default) wires the shared no-op registry: nothing
        is recorded and the hot path is untouched.
    detectors:
        A :class:`~repro.detect.DetectorSet` (or None).  Detectors
        observe every transaction and emit the ``_detector``
        meta-dataset.
    encrypted:
        An :class:`~repro.observatory.encrypted.
        EncryptedChannelAggregator` (or None).  When set, blinded
        transactions (``source`` starting ``"!"`` -- ciphertext-only
        DoH/DoT observations) are *diverted*: they count toward
        ``seen`` but never reach the trackers or detectors, whose
        datasets would otherwise be polluted by payload-free records;
        the aggregator folds them into the ``_encrypted``
        size/timing dataset instead (empty windows write no file).
        :attr:`divert_blinded` says whether they are diverted.
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
        self._window_start = None
        self._seen_in_window = 0
        #: total transactions observed over the manager's lifetime
        self.total_seen = 0
        #: completed windows (gap windows fast-forwarded over included)
        self.windows_completed = 0
        self.telemetry = telemetry = resolve_telemetry(telemetry)
        self._flush_timer = telemetry.timing("window", "flush")
        self.channels = build_channels(
            self.trackers, detectors, encrypted, skip_recent_inserts,
            telemetry)
        #: keep blinded records from the trackers and detectors: set
        #: when the pipeline has an ``_encrypted`` channel, also by a
        #: shard worker that does not own that channel itself
        self.divert_blinded = encrypted is not None
        self._gap_counter = telemetry.counter("window", "windows_skipped")
        if telemetry.enabled:
            telemetry.register("window", self._telemetry_row,
                               deltas=("txns",))
            telemetry.register("memo", memo.clears_sampler(),
                               deltas=memo.MEMO_COLUMNS)
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
        """Feed one transaction.  Returns the list of dumps
        produced by any window boundary this transaction crossed
        (usually empty)."""
        return self.consume_batch((txn,))

    def consume_batch(self, txns):
        """Feed a time-ordered batch of transactions (the hot path).

        The batch is split into window-aligned segments, and each
        segment is walked in chunks of at most :data:`_CHUNK`
        transactions.  Blinded records are diverted first (see
        :attr:`divert_blinded`), to the channels that ask for them.
        Then, per chunk, the per-*transaction* work happens once: one
        :class:`~repro.observatory.features.TxnHashes` record each,
        prepared lazily by the first FeatureSet that needs it.  The chunk then
        runs channel-major -- every channel processes it in one
        ``observe_batch`` call over the shared records, so key
        extraction is batched and per-*dataset* work is register,
        bucket and counter bumps only.  Channels are independent, so
        channel-major order produces byte-identical state to
        transaction-major order; the chunk bound keeps at most
        :data:`_CHUNK` prepared records alive.  Returns the dumps
        of all boundaries crossed.
        """
        dumps = []
        n = len(txns)
        if not n:
            return dumps
        if self._window_start is None:
            self._window_start = align_window(txns[0].ts,
                                              self.window_seconds)
        plain = [c.observe_batch for c in self.channels if not c.blinded]
        diverted = [c.observe_batch for c in self.channels if c.blinded]
        divert = self.divert_blinded
        window_seconds = self.window_seconds
        i = 0
        while i < n:
            start = self._window_start
            end = start + window_seconds
            # Longest run [i, j) entirely inside the current window.
            j = i
            while j < n and txns[j].ts < end:
                j += 1
            for low in range(i, j, _CHUNK):
                chunk = txns[low:min(low + _CHUNK, j)]
                if divert:
                    blinded = [t for t in chunk if t.source[:1] == "!"]
                    if blinded:
                        for observe in diverted:
                            observe(blinded, None, start)
                        chunk = [t for t in chunk if t.source[:1] != "!"]
                hashes_list = [TxnHashes(txn) for txn in chunk]
                for observe in plain:
                    observe(chunk, hashes_list, start)
            self.total_seen += j - i
            self._seen_in_window += j - i
            i = j
            if i < n:
                dumps.extend(self._catch_up(txns[i].ts))
        return dumps

    def advance_to(self, ts):
        """Flush every window that ends at or before *ts*.

        Used by shard workers when the coordinator announces that the
        stream has crossed a boundary: the coordinator sends the next
        window's transactions only after the cut.  A manager that has
        seen no transactions yet stays unstarted.
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
            target = align_window(ts, window_seconds)
            skipped = int(round((target - start) / window_seconds))
            self._window_start = target
            self.windows_completed += skipped
            self._gap_counter.inc(skipped)
        return dumps

    def _flush(self):
        """The one way a window ends: every channel cuts its window
        from its live state, in channel order.  A shard worker hands
        the list to :attr:`state_sink`; otherwise each window goes to
        the sink as it is cut, so the first dataset is on disk before
        the last is rendered, and a ``_platform`` window follows when
        telemetry is on."""
        telemetry = self.telemetry
        started = time.perf_counter() if telemetry.enabled else 0.0
        start = self._window_start
        end = start + self.window_seconds
        seen = self._seen_in_window
        shipping = self.state_sink is not None
        dumps = []
        for channel in self.channels:
            dump = channel.cut(start, end, seen)
            if shipping:
                dumps.append(dump)
            else:
                self._sink(dump, dumps)
        if shipping:
            self.state_sink(dumps)
        if telemetry.enabled:
            # stopped before the snapshot, so this window's _platform
            # row reports this very flush
            self._flush_timer.observe(time.perf_counter() - started)
            if not shipping:
                self._sink(meta_dump(PLATFORM_DATASET, start,
                                     telemetry.snapshot(end), seen), dumps)
        self._window_start = _as_int_if_integral(end)
        self._seen_in_window = 0
        self.windows_completed += 1
        return dumps

    def _sink(self, dump, dumps):
        dumps.append(dump)
        if self.sink is not None:
            self.sink(dump)
