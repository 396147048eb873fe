"""The output tree: one indexed reader, one writer.

The write pipeline (``replay`` / ``aggregate``) produces one TSV file
per dataset per window, each through :func:`write_window`.  Re-listing
and re-parsing the whole directory per question
(:func:`~repro.observatory.tsv.read_series`, kept as the reference the
differentials compare against) is fine for a one-shot study and
hopeless for a query service: the paper's Observatory is an *operated
platform* whose operators ask "top-k FQDNs now" and "this
nameserver's TTL series" (§3--§5) against a store that a collector is
appending to live.

:class:`SeriesStore` is the read path -- for the server, the roll-up
side (:mod:`~repro.observatory.aggregate`) and the analysis modules
alike:

* an **in-memory index** -- dataset -> granularity -> window refs,
  sorted by start time, with per-file identity (mtime + size + inode),
  built by one ``scandir`` + ``stat`` pass on open.  Nothing is
  persisted: the directory is the index, and reopening through a
  saved copy of it measured slower than this scan (EXPERIMENTS.md);
* **mtime/size invalidation** -- a changed or replaced file drops its
  cache entry, so the store can ``follow`` a live writer (``replay``
  appending windows, ``aggregate`` rolling them up) and never serve
  stale or torn state.  Writes are atomic
  (:func:`~repro.observatory.tsv.write_tsv` goes through
  ``os.replace``), so a file visible in the listing is complete;
* a **bounded LRU** of windows -- the one column-major
  :class:`~repro.observatory.tsv.TimeSeriesData`, whether a window
  was read from its segment or its text -- so the hot working set is
  served from memory and everything else costs one bounded read;
* a **bisected range index** -- each series' refs stay sorted by
  ``start_ts``, so a range query is two :func:`bisect.bisect` calls
  and a slice, O(log n + answer), not a scan of every indexed window;
* **query primitives** -- :meth:`datasets`, :meth:`select`,
  :meth:`read`, :meth:`accumulate`, :meth:`topk` (which ranks before
  it folds: one column for every key, every column only for the *n*
  winners), :meth:`has_key` and the **streaming iterators**
  :meth:`iter_windows` / :meth:`iter_range` /
  :meth:`iter_topk_windows`, which read one window at a time through
  the LRU, so a long range never holds more than that in memory.
"""

import bisect
import heapq
import logging
import os
import threading
from collections import OrderedDict

from repro.observatory import segments as segmentfmt
from repro.observatory.features import COUNTER_COLUMNS
from repro.observatory.tsv import (
    GRANULARITIES,
    parse_filename,
    read_tsv,
    write_tsv,
)

logger = logging.getLogger(__name__)

#: max consecutive same-key-tuple windows folded as one clustered run:
#: a year-long range folds in O(run) memory beyond the LRU, not O(span)
ACCUMULATE_RUN = 256


def write_window(directory, window, sidecar=False):
    """The one way a window lands in a tree: its TSV, atomically,
    then -- with *sidecar* -- its columnar segment packed from the
    same object, so the window's first cold read finds a fresh one.
    The sidecar is best effort: a failed write leaves the window on
    the text path.  Returns the TSV path; a store over *directory*
    learns of it through :meth:`SeriesStore.notify_flush`."""
    path = write_tsv(directory, window)
    if sidecar:
        try:
            segmentfmt.write_sidecar(window, path)
        except OSError:
            logger.warning("segment write failed for %r", path)
    return path


class WindowRef:
    """One indexed window file and its identity."""

    __slots__ = ("path", "dataset", "granularity", "start_ts",
                 "mtime_ns", "size", "ino")

    def __init__(self, path, dataset, granularity, start_ts,
                 mtime_ns, size, ino=0):
        self.path = path
        self.dataset = dataset
        self.granularity = granularity
        self.start_ts = start_ts
        #: file identity: changed mtime/size/inode invalidates the
        #: cache.  The inode matters because the atomic write path
        #: (``os.replace``) produces a *new* file every flush: on
        #: filesystems with coarse mtime granularity a same-size
        #: rewrite inside one mtime tick would otherwise be invisible.
        self.mtime_ns = mtime_ns
        self.size = size
        self.ino = ino

    @property
    def end_ts(self):
        return self.start_ts + GRANULARITIES[self.granularity]

    def same_file(self, mtime_ns, size, ino):
        return (self.mtime_ns == mtime_ns and self.size == size
                and self.ino == ino)

    def etag_token(self):
        """Identity token for HTTP ETags: name + mtime + size + inode
        pins the exact immutable file revision this response was built
        from (the inode distinguishes a same-size ``os.replace``
        rewrite landing inside one coarse mtime tick)."""
        return "%s:%d:%d:%d" % (os.path.basename(self.path),
                                self.mtime_ns, self.size, self.ino)


class _SeriesIndex:
    """One (dataset, granularity) series: refs sorted by ``start_ts``.

    Appends are O(1) and only mark the order dirty; the sort happens
    once per batch of changes (a refresh over a big directory)
    instead of once per inserted ref, and every query
    then answers with :func:`bisect.bisect` over the parallel
    ``starts`` list -- no linear scan of the ref list.
    """

    __slots__ = ("refs", "starts", "_dirty")

    def __init__(self):
        self.refs = []
        self.starts = []
        self._dirty = False

    def append(self, ref):
        self.refs.append(ref)
        self._dirty = True

    def remove(self, ref):
        self._ensure_sorted()
        i = bisect.bisect_left(self.starts, ref.start_ts)
        while i < len(self.refs) and \
                self.refs[i].start_ts == ref.start_ts:
            if self.refs[i].path == ref.path:
                del self.refs[i]
                del self.starts[i]
                return
            i += 1

    def _ensure_sorted(self):
        if self._dirty:
            self.refs.sort(key=lambda r: r.start_ts)
            self.starts = [r.start_ts for r in self.refs]
            self._dirty = False

    def sorted_refs(self):
        self._ensure_sorted()
        return self.refs

    def range(self, window_seconds, start_ts=None, end_ts=None):
        """Refs overlapping ``[start_ts, end_ts)`` -- the same
        half-open contract as
        :func:`~repro.observatory.tsv.window_overlaps`, answered with
        two bisections and a slice.  Windows of one granularity all
        have length *window_seconds*, so a window overlaps iff
        ``start_ts - window_seconds < ref.start_ts < end_ts``.
        """
        self._ensure_sorted()
        lo = 0
        hi = len(self.refs)
        if start_ts is not None:
            lo = bisect.bisect_right(self.starts,
                                     start_ts - window_seconds)
        if end_ts is not None:
            hi = bisect.bisect_left(self.starts, end_ts, lo)
        return self.refs[lo:hi]

    def __len__(self):
        return len(self.refs)


class _Flight:
    """One in-progress cold read, shared by every thread that wants
    the same path: the first arrival (the *leader*) parses; the rest
    wait on :attr:`done` and take the shared result, so N concurrent
    misses cost one parse instead of N."""

    __slots__ = ("done", "data", "error")

    def __init__(self):
        self.done = threading.Event()
        self.data = None
        self.error = None


class SeriesStore:
    """Query layer over one output directory of TSV time series.

    Parameters
    ----------
    directory:
        The ``replay``/``aggregate`` output directory.
    cache_windows:
        Maximum parsed windows held in the LRU (0 disables caching).
    follow:
        Re-scan the directory before every query so windows flushed by
        a live writer become visible.  When off (the default), the
        index is built once at construction and refreshed only via
        :meth:`refresh`.
    manifest:
        Ignored: the index is the directory scan.  Kept only because
        ``benchmarks/ledger/layers.py`` still passes it.
    use_segments:
        Prefer a fresh binary columnar sidecar
        (:mod:`~repro.observatory.segments`) over re-parsing the TSV
        on cold reads.  A sidecar that is stale, damaged or does not
        decode is ignored, so this never changes an answer -- only how
        fast it is computed.  Off, this is the text-only reference.
    telemetry:
        Optional :class:`~repro.observatory.telemetry.Telemetry`
        registry; the store registers a ``store`` component sampler
        (cache hit ratio, parses, window count).
    """

    def __init__(self, directory, cache_windows=256, follow=False,
                 manifest=True, use_segments=True, telemetry=None):
        self.directory = directory
        self.follow = bool(follow)
        self.cache_windows = int(cache_windows)
        self.use_segments = bool(use_segments)
        #: path -> WindowRef, the live index
        self._index = {}
        #: dataset -> granularity -> [WindowRef sorted by start_ts]
        self._by_series = {}
        #: path -> TimeSeriesData (column lists), LRU order (oldest first)
        self._cache = OrderedDict()
        #: path -> _Flight: cold reads in progress (single-flight)
        self._inflight = {}
        self._lock = threading.RLock()
        #: cache statistics (exposed via telemetry + bench_serve)
        self.cache_hits = 0
        self.cache_misses = 0
        self.parses = 0
        #: cold reads answered from a columnar segment (no text parse)
        self.segment_reads = 0
        #: fresh segments whose blocks did not decode: read as text
        self.segment_rejects = 0
        #: cold reads that found the file gone (retention in another
        #: process, an operator's ``rm``): ref dropped, window absent
        self.vanished_reads = 0
        self.refreshes = 0
        #: cold reads that piggybacked on another thread's in-progress
        #: parse of the same path instead of duplicating it
        self.flight_waits = 0
        #: single-file reconciliations via :meth:`notify_flush`
        self.notifications = 0
        #: cells a fold read as missing because they were not a finite
        #: number (see :meth:`_fold`)
        self.text_cells = 0
        self.refresh()
        if telemetry is not None and getattr(telemetry, "enabled", False):
            telemetry.register("store", self.telemetry_row,
                               deltas=("hits", "misses", "parses",
                                       "segment_reads", "refreshes",
                                       "notifications", "text_cells"))

    # -- index maintenance ---------------------------------------------

    def refresh(self):
        """Re-scan the directory and reconcile the index.

        New files are added, vanished files dropped, and files whose
        (mtime, size) changed -- a rewritten window -- are invalidated:
        their parsed cache entry is discarded.
        Returns the number of index entries that changed.
        """
        with self._lock:
            self.refreshes += 1
            seen = set()
            changed = 0
            try:
                entries = list(os.scandir(self.directory))
            except FileNotFoundError:
                entries = []
            for entry in entries:
                try:
                    dataset, gran, start = parse_filename(entry.name)
                except ValueError:
                    continue
                try:
                    st = entry.stat()
                except OSError:
                    continue  # vanished between scandir and stat
                path = entry.path
                seen.add(path)
                ref = self._index.get(path)
                if ref is not None and ref.same_file(st.st_mtime_ns,
                                                     st.st_size,
                                                     st.st_ino):
                    continue
                changed += 1
                self._cache.pop(path, None)
                self._set_ref(WindowRef(path, dataset, gran, start,
                                        st.st_mtime_ns, st.st_size,
                                        st.st_ino))
            for path in list(self._index):
                if path not in seen:
                    changed += 1
                    self._drop_ref(path)
            return changed

    def notify_flush(self, path):
        """Reconcile exactly one flushed file into the index.

        The live-daemon hook: a writer that knows which window it just
        flushed calls this instead of forcing a full :meth:`refresh`
        directory scan per flush, so index maintenance is O(1) per
        window rather than O(indexed windows).  Stats the file, drops
        any stale cache entry, and returns the fresh
        :class:`WindowRef` (``None`` when the path does not parse as a
        series file or has vanished).
        """
        name = os.path.basename(path)
        try:
            dataset, gran, start = parse_filename(name)
        except ValueError:
            return None
        path = os.path.join(self.directory, name)
        try:
            st = os.stat(path)
        except OSError:
            with self._lock:
                self._drop_ref(path)
            return None
        with self._lock:
            self.notifications += 1
            ref = self._index.get(path)
            if ref is not None and ref.same_file(st.st_mtime_ns,
                                                 st.st_size, st.st_ino):
                return ref
            self._cache.pop(path, None)
            ref = WindowRef(path, dataset, gran, start,
                            st.st_mtime_ns, st.st_size, st.st_ino)
            self._set_ref(ref)
            return ref

    def _set_ref(self, ref):
        old = self._index.get(ref.path)
        if old is not None:
            self._remove_from_series(old)
        self._index[ref.path] = ref
        self._by_series.setdefault(ref.dataset, {}).setdefault(
            ref.granularity, _SeriesIndex()).append(ref)

    def _drop_ref(self, path):
        ref = self._index.pop(path, None)
        self._cache.pop(path, None)
        if ref is not None:
            self._remove_from_series(ref)

    def _remove_from_series(self, ref):
        grans = self._by_series.get(ref.dataset)
        if not grans:
            return
        series = grans.get(ref.granularity)
        if series is None:
            return
        series.remove(ref)
        if not series:
            del grans[ref.granularity]
            if not grans:
                del self._by_series[ref.dataset]

    def flush_manifest(self):
        """No-op: nothing is persisted.  Kept only because
        ``benchmarks/ledger/layers.py`` still calls it."""

    # -- query primitives ----------------------------------------------

    def datasets(self):
        """Summary of everything indexed, without opening any file:
        ``{dataset: {granularity: {windows, first_ts, last_ts}}}``."""
        self._maybe_refresh()
        with self._lock:
            out = {}
            for dataset, grans in sorted(self._by_series.items()):
                out[dataset] = {}
                for gran, series in grans.items():
                    refs = series.sorted_refs()
                    out[dataset][gran] = {
                        "windows": len(refs),
                        "first_ts": refs[0].start_ts,
                        "last_ts": refs[-1].start_ts,
                    }
            return out

    def select(self, dataset, granularity="minutely",
               start_ts=None, end_ts=None):
        """Index entries (:class:`WindowRef`) overlapping the range,
        sorted by start time.  No file is opened; the range is
        answered by bisection on ``start_ts``, not a scan."""
        self._maybe_refresh()
        with self._lock:
            series = self._by_series.get(dataset, {}).get(granularity)
            if series is None:
                return []
            if start_ts is None and end_ts is None:
                return list(series.sorted_refs())
            return series.range(GRANULARITIES[granularity],
                                start_ts, end_ts)

    def read(self, dataset):
        """Every parsed minutely window of *dataset* through the LRU:
        the list :func:`~repro.observatory.tsv.read_series` returns."""
        return list(self.iter_range(dataset))

    # -- streaming iterators -------------------------------------------

    def iter_windows(self, refs):
        """Yield parsed windows for *refs* one at a time through the
        LRU (:meth:`read_window`), so a consumer such as the chunked
        ``/series`` encoder holds O(LRU) in memory, not O(span).
        Abandoning the generator mid-range leaves the LRU with only
        complete entries; a window whose file has vanished is skipped,
        as if it had never been indexed."""
        for ref in refs:
            data = self.read_window(ref)
            if data is not None:
                yield data

    def iter_range(self, dataset, granularity="minutely",
                   start_ts=None, end_ts=None):
        """Streaming counterpart of :meth:`read`: a generator of
        parsed windows over the range, in time order."""
        return self.iter_windows(self.select(dataset, granularity,
                                             start_ts, end_ts))

    def iter_topk_windows(self, dataset, n=10, by="hits",
                          granularity="minutely", start_ts=None,
                          end_ts=None):
        """Per-window top-*n* stream: yields ``(start_ts, top)`` per
        window in the range, where *top* is the window's *n* heaviest
        ``(key, row)`` pairs by column *by*.  One window is ranked at
        a time (``heapq.nlargest``), so a long span never materializes
        beyond the current window."""
        n = max(int(n), 0)
        for data in self.iter_range(dataset, granularity,
                                    start_ts, end_ts):
            top = heapq.nlargest(n, range(len(data)),
                                 key=data.column(by).__getitem__)
            yield data.start_ts, [(data.keys[i], data.row(i))
                                  for i in top]

    def read_window(self, ref):
        """The one read: *ref*'s window through the LRU.  Cold reads
        run outside the store lock, single-flight: N threads missing
        on one path share one parse.  A ref whose text and sidecar are
        both gone is dropped from the index and counted
        (``vanished_reads``), and the answer -- to the leader and every
        waiter -- is ``None``: the query goes on as if the window were
        absent.  Any other failure (a corrupt file) raises, to waiters
        too."""
        path = ref.path
        with self._lock:
            data = self._cache.get(path)
            if data is not None:
                self.cache_hits += 1
                self._cache.move_to_end(path)
                return data
            flight = self._inflight.get(path)
            if flight is None:
                flight = _Flight()
                self._inflight[path] = flight
                leader = True
                self.cache_misses += 1
            else:
                leader = False
        if not leader:
            # another thread is already reading this exact path: wait
            # for its result instead of duplicating the parse
            flight.done.wait()
            if flight.error is not None:
                raise flight.error
            with self._lock:
                self.cache_hits += 1
                self.flight_waits += 1
            return flight.data
        try:
            data, from_segment = self._load(ref)
        except FileNotFoundError:
            with self._lock:
                self.vanished_reads += 1
                if self._index.get(path) is ref:
                    self._drop_ref(path)
                self._inflight.pop(path, None)
            flight.done.set()
            return None
        except BaseException as exc:
            with self._lock:
                self._inflight.pop(path, None)
            flight.error = exc
            flight.done.set()
            raise
        with self._lock:
            if from_segment:
                self.segment_reads += 1
            else:
                self.parses += 1
            if self.cache_windows > 0:
                self._cache[path] = data
                self._cache.move_to_end(path)
                while len(self._cache) > self.cache_windows:
                    self._cache.popitem(last=False)
            self._inflight.pop(path, None)
        flight.data = data
        flight.done.set()
        return data

    def _load(self, ref):
        """One cold read: the fresh sidecar when its blocks decode,
        else the text (whose own errors propagate).  Returns
        ``(window, came from the segment)``; a sidecar only ever
        changes how fast, never what."""
        reader = segmentfmt.open_if_fresh(
            ref.path, (ref.mtime_ns, ref.size, ref.ino)) \
            if self.use_segments else None
        if reader is not None:
            try:
                return reader.to_data(), True
            except ValueError:
                with self._lock:
                    self.segment_rejects += 1
        return read_tsv(ref.path), False

    def _fold(self, refs, project):
        """Fold the windows of *refs*, each projected by *project* to
        ``(keys, columns, values)``; consecutive equal projections
        fold as one clustered run of up to :data:`ACCUMULATE_RUN`.
        Returns ``(rows, refs read)``: a vanished window is skipped.

        A cell that is no number in a numeric column (a window file
        edited outside the program) makes a run's fold raise
        ``TypeError`` partway, leaving sums that cannot be taken back;
        the windows are then folded again from the start, cell by cell
        (:meth:`Accumulator.fold_cells`), and every cell that is not a
        finite number counts in :attr:`text_cells`."""
        from repro.analysis.seriesops import Accumulator

        refs = list(refs)
        acc = Accumulator()
        read = []
        for keys, columns, run in self._runs(refs, project, read):
            try:
                acc.fold_columns_run(keys, columns, run)
            except TypeError:
                break
        else:
            return acc.finish(), read
        acc = Accumulator()
        read, text = [], 0
        for ref in refs:
            data = self.read_window(ref)
            if data is not None:
                read.append(ref)
                text += acc.fold_cells(*project(data))
        with self._lock:
            self.text_cells += text
        return acc.finish(), read

    def _runs(self, refs, project, read):
        """The windows of *refs* projected and grouped for :meth:`_fold`:
        yields ``(keys, columns, run)``, appending each ref read to
        *read*."""
        run = []
        for ref in refs:
            data = self.read_window(ref)
            if data is None:
                continue
            read.append(ref)
            keys, columns, values = project(data)
            if run and (len(run) >= ACCUMULATE_RUN
                        or columns != run_columns or keys != run_keys):
                yield run_keys, run_columns, run
                run = []
            if not run:
                run_keys, run_columns = keys, columns
            run.append(values)
        if run:
            yield run_keys, run_columns, run

    def accumulate(self, dataset, start_ts=None, end_ts=None):
        """Whole-range per-key rows of the minutely windows (counters
        summed, gauges hits-weighted) -- the accumulation every ranking
        and distribution analysis starts from."""
        return self._fold(
            self.select(dataset, "minutely", start_ts, end_ts),
            lambda data: (data.keys, data.columns, data.values))[0]

    def topk(self, dataset, n=10, by="hits", granularity="minutely",
             start_ts=None, end_ts=None):
        """Top-*n* ``(key, row)`` pairs of *dataset* over the range in
        ``ranked_keys(accumulate(...), by)`` order.  The rank pass
        folds only *by* (plus the ``hits`` weighting a gauge or mode
        vote) for every key; the row pass folds every column for the
        *n* winners only, listed in rank order, over the windows the
        rank pass read, so consecutive windows holding the same winners
        fold as one run.  A cell's recurrence reads only its own key's
        cells in window order, so each value is the float a full fold
        computes."""
        from repro.analysis.seriesops import MAX_COLUMNS

        wanted = {by} if by in COUNTER_COLUMNS or by in MAX_COLUMNS \
            else {by, "hits"}

        def ranking(data):
            columns = [col for col in data.columns if col in wanted]
            return data.keys, columns, [data.column(c) for c in columns]

        ranks, read = self._fold(
            self.select(dataset, granularity, start_ts, end_ts), ranking)
        winners = [key for _, key in heapq.nsmallest(
            max(int(n), 0),
            ((-row.get(by, 0), key) for key, row in ranks.items()))]
        rank = {key: i for i, key in enumerate(winners)}

        def winning_rows(data):
            # rank order, not file order: windows where the winners
            # hold the same keys fold as one run however their rows
            # moved.  The sort is stable, so a key a window repeats (a
            # file edited outside the program) keeps its rows in file
            # order, as a full fold reads them.
            at = [i for i, key in enumerate(data.keys) if key in rank]
            at.sort(key=lambda i: rank[data.keys[i]])
            return ([data.keys[i] for i in at], data.columns,
                    [[cells[i] for i in at] for cells in data.values])

        rows = self._fold(read, winning_rows)[0]
        return [(key, rows[key]) for key in winners if key in rows]

    def has_key(self, dataset, key, granularity="minutely",
                start_ts=None, end_ts=None):
        """Does *key* appear in any window of the range?"""
        return any(data.position(key) is not None
                   for data in self.iter_range(dataset, granularity,
                                               start_ts, end_ts))

    # -- bookkeeping ---------------------------------------------------

    def _maybe_refresh(self):
        if self.follow:
            self.refresh()

    def cache_info(self):
        with self._lock:
            total = self.cache_hits + self.cache_misses
            return {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_ratio": self.cache_hits / total if total else 0.0,
                "cached_windows": len(self._cache),
                "capacity": self.cache_windows,
                "indexed_windows": len(self._index),
                "notifications": self.notifications,
                "segment_reads": self.segment_reads,
                "segment_rejects": self.segment_rejects,
                "vanished_reads": self.vanished_reads,
                "flight_waits": self.flight_waits,
                "text_cells": self.text_cells,
            }

    def telemetry_row(self, now):
        """Pull-sampler for the telemetry registry (``store`` row)."""
        info = self.cache_info()
        return {
            "hits": info["hits"],
            "misses": info["misses"],
            "hit_ratio": round(info["hit_ratio"], 4),
            "cached_windows": info["cached_windows"],
            "indexed_windows": info["indexed_windows"],
            "parses": self.parses,
            "segment_reads": self.segment_reads,
            "refreshes": self.refreshes,
            "notifications": self.notifications,
            "text_cells": info["text_cells"],
        }

    def __repr__(self):
        return "SeriesStore(%r, windows=%d, follow=%r)" % (
            self.directory, len(self._index), self.follow)
