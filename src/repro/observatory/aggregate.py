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
from repro.observatory.tsv import (
    GRANULARITIES,
    GRANULARITY_CHAIN,
    TimeSeriesData,
    list_series,
    parse_filename,
    read_tsv,
    write_tsv,
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
    keys = []
    seen_keys = set()
    # Union of the input column sets, preserving first-seen order.
    # Taking the first file's header verbatim silently dropped columns
    # introduced mid-window (schema drift -- e.g. a ``_platform`` file
    # gaining gate columns once the Bloom gate engages).
    columns = []
    seen_columns = set()
    last_header = None
    for series in series_list:
        header = series.columns
        if header is not last_header:  # shared list fast path
            last_header = header
            for col in header:
                if col not in seen_columns:
                    seen_columns.add(col)
                    columns.append(col)
        for key in series.keys:
            if key not in seen_keys:
                seen_keys.add(key)
                keys.append(key)
    sums = {key: {} for key in keys}
    presence = {key: {} for key in keys}
    for series in series_list:
        rmap = series.row_map()
        for key in keys:
            row = rmap.get(key)
            if row is None:
                continue
            key_sums = sums[key]
            key_presence = presence[key]
            for col, value in row.items():
                key_sums[col] = key_sums.get(col, 0.0) + value
                key_presence[col] = key_presence.get(col, 0) + 1
    rows = []
    for key in keys:
        row = {}
        for col in (columns or []):
            total = sums[key].get(col, 0.0)
            if col in _COUNTERS:
                row[col] = total / expected_points
            else:
                count = presence[key].get(col, 0)
                row[col] = total / count if count else 0.0
        rows.append((key, row))
    # Order by aggregated hits, heaviest first (rank order of the file).
    rows.sort(key=lambda kv: -kv[1].get("hits", 0.0))
    stats = {
        "seen": sum(s.stats.get("seen", 0) for s in series_list),
        "kept": sum(s.stats.get("kept", 0) for s in series_list),
        "points": len(series_list),
    }
    return TimeSeriesData(dataset, granularity, start_ts,
                          columns=columns, rows=rows, stats=stats)


class TimeAggregator:
    """Directory-level aggregation driver with retention policy.

    :meth:`aggregate_directory` walks the granularity chain and writes
    every complete coarser window that is not on disk yet;
    :meth:`apply_retention` deletes fine-grained files past their
    configured age, mirroring the paper's disk-usage policy.
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
        #: optional :class:`~repro.observatory.store.SeriesStore` over
        #: the same directory: fine windows are then read through its
        #: LRU (hot when a server shares the store), and files written
        #: or deleted here are reconciled into its index immediately.
        self.store = store
        #: write a columnar sidecar segment
        #: (:mod:`~repro.observatory.segments`) next to every coarse
        #: window this aggregator writes, so cold reads of rolled-up
        #: history never pay a text re-parse
        self.segments = bool(segments)

    def aggregate_directory(self, dataset):
        """Aggregate *dataset* up the whole granularity chain.

        Returns the list of file paths written.
        """
        written = []
        for finer, coarser in zip(GRANULARITY_CHAIN, GRANULARITY_CHAIN[1:]):
            written.extend(self._aggregate_step(dataset, finer, coarser))
        return written

    def _aggregate_step(self, dataset, finer, coarser):
        finer_len = GRANULARITIES[finer]
        coarser_len = GRANULARITIES[coarser]
        points = coarser_len // finer_len
        existing = {
            start for _, _, _, start in
            list_series(self.directory, dataset, coarser)
        }
        finer_files = list_series(self.directory, dataset, finer)
        if not finer_files:
            return []
        by_window = {}
        for path, _, _, start in finer_files:
            window_start = (start // coarser_len) * coarser_len
            by_window.setdefault(window_start, []).append((start, path))
        latest_fine = max(start for _, _, _, start in finer_files)
        written = []
        for window_start, members in sorted(by_window.items()):
            if window_start in existing:
                continue
            # Only aggregate complete windows: the coarse window must
            # have fully elapsed relative to the newest fine file.
            if window_start + coarser_len > latest_fine + finer_len:
                continue
            series = [self._read(path) for _, path in sorted(members)]
            data = aggregate_series(series, dataset, coarser, window_start,
                                    expected_points=points)
            path = write_tsv(self.directory, data)
            written.append(path)
            if self.segments:
                try:
                    segmentfmt.write_sidecar(data, path)
                except OSError:
                    pass  # sidecar is an optimization, never a failure
            if self.store is not None:
                # O(1) per-file reconcile, not an O(windows) directory
                # re-scan per aggregation step
                self.store.notify_flush(path)
        return written

    def _read(self, path):
        if self.store is not None:
            return self.store.read_path(path)
        return read_tsv(path)

    def apply_retention(self, now_ts, force=False):
        """Delete expired fine-grained files; returns deleted paths.

        A file past its retention age is only deleted when a coarser
        file covering its window already exists on disk -- i.e. the
        data has been rolled up.  Retention running ahead of
        aggregation (a stalled aggregator, a crash between the two
        passes) used to silently destroy data that had never made it
        into any coarser granularity.  ``force=True`` restores the
        unconditional age-based behavior.
        """
        entries = list_series(self.directory)
        on_disk = {(dataset, gran, start)
                   for _, dataset, gran, start in entries}
        coarser_of = dict(zip(GRANULARITY_CHAIN, GRANULARITY_CHAIN[1:]))
        deleted = []
        for path, dataset, gran, start in entries:
            max_age = self.retention.get(gran)
            if max_age is None:
                continue
            window_end = start + GRANULARITIES[gran]
            if now_ts - window_end <= max_age:
                continue
            if not force:
                coarser = coarser_of.get(gran)
                if coarser is None:
                    continue  # top of the chain: nothing can cover it
                coarser_len = GRANULARITIES[coarser]
                covering = (start // coarser_len) * coarser_len
                if (dataset, coarser, covering) not in on_disk:
                    continue  # not rolled up yet: deleting would lose data
            try:
                os.remove(path)
            except OSError:
                # already gone -- a concurrent retention pass or an
                # operator cleanup beat us to it.  The sweep must keep
                # going (aborting mid-pass left every later expired
                # file undeleted), and the index reconcile below still
                # needs to drop the vanished entry.
                pass
            segmentfmt.remove_segment_for(path)
            deleted.append(path)
            if self.store is not None:
                # per-file reconcile: notify_flush on a vanished path
                # drops its index entry without a full refresh() scan
                self.store.notify_flush(path)
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
        built = []
        removed = []
        fresh = 0
        live = set()
        for path, _ds, _gran, _start in list_series(
                self.directory, dataset, granularity):
            live.add(os.path.basename(path))
            try:
                st = os.stat(path)
            except OSError:
                continue  # vanished mid-walk
            if segmentfmt.open_if_fresh(
                    path, (st.st_mtime_ns, st.st_size,
                           st.st_ino)) is not None:
                fresh += 1
                continue
            try:
                built.append(segmentfmt.build_segment(path))
            except OSError:
                continue  # unreadable window: skip, never abort
        for stem, name in sorted(
                segmentfmt.scan_segments(self.directory).items()):
            if stem in live:
                continue
            try:
                sds, sgran, _ = parse_filename(stem)
            except ValueError:
                continue
            if dataset is not None and sds != dataset:
                continue
            if granularity is not None and sgran != granularity:
                continue
            orphan = os.path.join(self.directory, name)
            try:
                os.remove(orphan)
                removed.append(orphan)
            except OSError:
                pass
        return {"built": built, "fresh": fresh, "removed": removed}
