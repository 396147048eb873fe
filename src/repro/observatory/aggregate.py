"""Time aggregation of TSV files with retention (Section 2.4).

"A separate process aggregates minutely files into new, decaminutely
files that represent 10-minute time windows.  These in turn get
aggregated into hourly files, then into daily files ... In general, we
aggregate time series of a particular feature using the arithmetic
mean. ... If the object is missing in some of the files being
aggregated, we use a value of 0 for counters.  For features that are
not counters (e.g., cardinality estimates), we just skip the missing
data point."
"""

import os

from repro.observatory import segments as segmentfmt
from repro.observatory.features import COUNTER_COLUMNS
from repro.observatory.store import SeriesStore, write_window
from repro.observatory.tsv import (
    GRANULARITIES,
    GRANULARITY_CHAIN,
    TimeSeriesData,
    parse_filename,
    quantize,
)

_COUNTERS = frozenset(COUNTER_COLUMNS)


def aggregate_series(series_list, dataset, granularity, start_ts,
                     expected_points=None):
    """Aggregate finer-grained :class:`TimeSeriesData` into one coarser
    record, applying the paper's counter vs non-counter rules.

    Parameters
    ----------
    series_list:
        The finer files covering the coarser window (e.g. 10 minutely
        files for one decaminutely file).  Missing files are allowed.
    expected_points:
        Number of finer windows the coarse window spans.  Counters are
        averaged over this denominator (absent object -> 0); defaults
        to ``len(series_list)``.
    """
    if expected_points is None:
        expected_points = len(series_list)
    if expected_points <= 0:
        raise ValueError("expected_points must be positive")
    # The union of the inputs' columns and keys, first-seen order: a
    # column introduced mid-window (schema drift -- a ``_platform``
    # file gaining gate columns once the Bloom gate engages) survives.
    columns = list(dict.fromkeys(
        col for series in series_list for col in series.columns))
    keys = list(dict.fromkeys(
        key for series in series_list for key in series.keys))
    slot = {key: at for at, key in enumerate(keys)}
    sums = {col: [0.0] * len(keys) for col in columns}
    present = {col: [0] * len(keys) for col in columns}
    for series in series_list:
        # key slot -> row; a key (or column) repeated inside one
        # window counts once, by its last occurrence
        rows = {slot[key]: i for i, key in enumerate(series.keys)}.items()
        for col, cells in dict(zip(series.columns, series.values)).items():
            col_sums, col_present = sums[col], present[col]
            for at, i in rows:
                # in window order, from 0.0: the order fixes every bit
                col_sums[at] += cells[i]
                col_present[at] += 1
    means = {
        col: [total / expected_points for total in sums[col]]
        if col in _COUNTERS else
        [total / count if count else 0.0
         for total, count in zip(sums[col], present[col])]
        for col in columns}
    # Order by aggregated hits, heaviest first (rank order of the
    # file); the sort is stable, so ties keep first-seen order.
    order = range(len(keys))
    if "hits" in means:
        order = sorted(order, key=lambda at: -means["hits"][at])
    return TimeSeriesData.from_columns(
        dataset, granularity, start_ts, columns,
        [keys[at] for at in order],
        [[quantize(means[col][at]) for at in order] for col in columns],
        {"kept": quantize(sum(s.stats.get("kept", 0) for s in series_list)),
         "points": len(series_list),
         "seen": quantize(sum(s.stats.get("seen", 0) for s in series_list))})


class TimeAggregator:
    """Directory-level aggregation driver with retention policy.

    :meth:`aggregate_directory` walks the granularity chain and writes
    every complete coarser window that is not on disk yet;
    :meth:`apply_retention` deletes fine-grained files past their
    configured age, mirroring the paper's disk-usage policy.

    Every question about the directory goes to :attr:`store`: its
    index is refreshed once per public call, and each file written or
    deleted during the call is reconciled into it (``notify_flush``).
    """

    #: default retention: how many seconds of each granularity to keep
    DEFAULT_RETENTION = {
        "minutely": 2 * 3600,
        "decaminutely": 24 * 3600,
        "hourly": 7 * 86400,
        "daily": 90 * 86400,
        "monthly": 2 * 365 * 86400,
        "yearly": None,  # keep forever
    }

    def __init__(self, directory, retention=None, store=None,
                 segments=False):
        self.directory = directory
        self.retention = dict(self.DEFAULT_RETENTION)
        if retention:
            self.retention.update(retention)
        #: the store over *directory*: the one handed in (fine windows
        #: are then hot in a server's LRU), else one opened here
        self.store = SeriesStore(directory) if store is None else store
        #: write a columnar sidecar segment
        #: (:mod:`~repro.observatory.segments`) next to every coarse
        #: window this aggregator writes, so cold reads of rolled-up
        #: history never pay a text re-parse
        self.segments = bool(segments)

    def aggregate_directory(self, dataset):
        """Aggregate *dataset* up the whole granularity chain.

        Returns the list of file paths written.
        """
        store = self.store
        store.refresh()
        written = []
        for finer, coarser in zip(GRANULARITY_CHAIN, GRANULARITY_CHAIN[1:]):
            fine = store.select(dataset, finer)
            if not fine:
                continue
            span = GRANULARITIES[coarser]
            existing = {ref.start_ts for ref in store.select(dataset, coarser)}
            # Only aggregate complete windows: the coarse window must
            # have fully elapsed relative to the newest fine file.
            complete_by = fine[-1].start_ts + GRANULARITIES[finer]
            by_window = {}  # in time order, as ``fine`` is
            for ref in fine:
                by_window.setdefault(
                    ref.start_ts // span * span, []).append(ref)
            for window_start, members in by_window.items():
                if window_start in existing \
                        or window_start + span > complete_by:
                    continue
                # a fine window removed since the call began is
                # skipped: missing, like one that was never written
                series = list(store.iter_windows(members))
                if not series:
                    continue
                data = aggregate_series(
                    series, dataset, coarser, window_start,
                    expected_points=span // GRANULARITIES[finer])
                written.append(
                    write_window(self.directory, data, self.segments))
                store.notify_flush(written[-1])
        return written

    def apply_retention(self, now_ts, force=False):
        """Delete expired fine-grained files; returns deleted paths.

        A file past its retention age is only deleted when a coarser
        file covering its window already exists on disk -- i.e. the
        data has been rolled up -- so retention running ahead of
        aggregation (a stalled aggregator, a crash between the two
        passes) never destroys data no coarser granularity holds.
        ``force=True`` deletes by age alone.
        """
        store = self.store
        store.refresh()
        deleted = []
        for dataset in store.datasets():
            # finest first: a file is judged against the coarser files
            # on disk before this pass has expired any of them
            for gran, coarser in zip(GRANULARITY_CHAIN,
                                     GRANULARITY_CHAIN[1:] + (None,)):
                max_age = self.retention.get(gran)
                if max_age is None or (coarser is None and not force):
                    continue  # kept forever, or nothing above covers it
                # expired: the window ended more than max_age ago
                expired = store.select(
                    dataset, gran,
                    end_ts=now_ts - max_age - GRANULARITIES[gran])
                if not force:
                    # not rolled up yet: deleting would lose data
                    span = GRANULARITIES[coarser]
                    rolled_up = {ref.start_ts
                                 for ref in store.select(dataset, coarser)}
                    expired = [ref for ref in expired
                               if ref.start_ts // span * span in rolled_up]
                for ref in expired:
                    try:
                        os.remove(ref.path)
                    except OSError:
                        # already gone -- a concurrent retention pass
                        # or an operator cleanup beat us to it: the
                        # sweep goes on, and the reconcile below drops
                        # the vanished entry
                        pass
                    segmentfmt.remove_segment_for(ref.path)
                    store.notify_flush(ref.path)
                    deleted.append(ref.path)
        return deleted

    def compact(self, dataset=None, granularity=None):
        """Build missing or stale sidecar segments; drop orphans.

        The background compactor pass of storage engine v2: walks
        every TSV window in the directory (optionally narrowed to
        *dataset* / *granularity*), builds a columnar sidecar for each
        window whose segment is absent or whose recorded source
        identity no longer matches the file (the window was
        rewritten), and removes orphan sidecars whose source TSV
        vanished under retention.  Idempotent -- a second pass over an
        unchanged directory builds nothing.

        Returns ``{"built": [paths], "fresh": n, "removed": [paths]}``.
        """
        store = self.store
        store.refresh()
        built = []
        removed = []
        fresh = 0
        sidecars = segmentfmt.scan_segments(self.directory)
        for name in [dataset] if dataset else store.datasets():
            for gran in [granularity] if granularity else GRANULARITY_CHAIN:
                for ref in store.select(name, gran):
                    sidecars.pop(os.path.basename(ref.path), None)
                    if segmentfmt.open_if_fresh(
                            ref.path,
                            (ref.mtime_ns, ref.size, ref.ino)) is not None:
                        fresh += 1
                        continue
                    try:
                        built.append(segmentfmt.build_segment(ref.path))
                    except OSError:
                        continue  # unreadable or vanished window: skip
        # the sidecars left have no TSV: orphans, inside the narrowing
        for stem, name in sorted(sidecars.items()):
            sds, sgran, _ = parse_filename(stem)
            if dataset in (None, sds) and granularity in (None, sgran) \
                    and segmentfmt.remove_segment_for(
                        os.path.join(self.directory, stem)):
                removed.append(os.path.join(self.directory, name))
        return {"built": built, "fresh": fresh, "removed": removed}
