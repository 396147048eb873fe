"""Serving-layer benchmark: indexed warm-cache queries vs cold reads.

The point of :class:`~repro.observatory.store.SeriesStore` + the HTTP
API is that answering "top-k srvips now" must not re-parse the whole
output directory per question.  This bench quantifies that:

* **cold** -- the pre-store baseline: every query calls
  :func:`read_series` over the full directory and recomputes the
  ranking from scratch (parse every window file, every time);
* **warm** -- end-to-end HTTP queries (``/topk``, ``/series``) against
  a running :class:`~repro.server.http.ObservatoryServer` whose store
  LRU is warm, measured over a keep-alive connection;
* **bisected range lookup** -- the store's sorted-`start_ts` bisect
  select vs a linear ``window_overlaps`` scan of the same ref list,
  on a 50k-window index (a month of minutely windows);
* **streamed memory** -- peak tracemalloc-tracked bytes while a
  chunked ``/series`` response streams, for a 1-day vs a 30-day
  hourly span: streaming must make the peak a constant (LRU-bound),
  not a function of span length;
* **columnar segments** -- cold ``accumulate``/``topk`` over a
  10k-window directory with binary sidecar segments vs re-parsing
  the TSV text, with the answers required to be identical: the
  storage-engine-v2 gate.

Two entry points:

* ``pytest benchmarks/bench_serve.py --benchmark-only`` records the
  rates under ``benchmarks/results/``;
* ``python benchmarks/bench_serve.py --check`` exits nonzero unless
  warm ``/topk`` and ``/series`` beat the cold baseline by
  :data:`SPEEDUP_BOUND`, bisected range lookup beats the linear scan
  by :data:`BISECT_BOUND`, the 30-day streamed peak stays within
  :data:`MEMORY_FLAT_BOUND` of the 1-day one, and cold segment-backed
  ``accumulate``/``topk`` beats cold TSV re-parse by
  :data:`SEGMENT_BOUND` with identical answers -- the CI
  non-regression gates.
"""

import asyncio
import os
import shutil
import sys
import tempfile
import time
import tracemalloc

try:
    import pytest
except ImportError:  # pragma: no cover - script mode without pytest
    pytest = None

from repro.analysis.seriesops import accumulate_dumps, ranked_keys
from repro.observatory.store import SeriesStore
from repro.observatory.tsv import (
    TimeSeriesData,
    filename_for,
    read_series,
    window_overlaps,
    write_tsv,
)
from repro.server import build_server

#: warm-cache HTTP queries must beat cold full-directory reads by this
SPEEDUP_BOUND = 10.0

#: bisected range select must beat the linear scan by this at 50k refs
BISECT_BOUND = 10.0

#: 30-day streamed /series peak memory vs 1-day: at most this ratio
MEMORY_FLAT_BOUND = 2.0

#: windows in the range-lookup index (a month of minutely windows)
INDEX_WINDOWS = 50000

#: cold segment-backed accumulate/topk must beat cold TSV re-parse by
#: this over the :data:`SEGMENT_WINDOWS` directory
SEGMENT_BOUND = 5.0

#: windows in the segment-vs-TSV fixture (a week of minutely windows)
SEGMENT_WINDOWS = 10000

SEGMENT_DATASET = "segd"
SEGMENT_KEYS = 40

#: int counters + genuinely-float gauges, as real windows hold them
SEGMENT_COLUMNS = ["hits", "ok", "nxd", "unans", "delay_q25",
                   "delay_q50", "delay_q75", "size_q50",
                   "ttl_top1_share"]

DATASET = "srvip"
WINDOWS = 48
KEYS = 150

#: the two hot endpoints under test (bounded answers, as clients use)
TOPK_TARGET = "/topk/%s?n=10" % DATASET
SERIES_TARGET = "/series/%s?limit=8" % DATASET


def build_fixture(directory, windows=WINDOWS, keys=KEYS):
    """Deterministic minutely series: *windows* files x *keys* rows."""
    for w in range(windows):
        rows = []
        for k in range(keys):
            hits = float((k * 37 + w * 11) % 997 + 1)
            rows.append(("192.0.%d.%d" % (k // 250, k % 250), {
                "hits": hits,
                "clients": round(hits / 7, 2),
                "bytes_rx": hits * 80,
                "bytes_tx": hits * 110,
                "nxdomains": float(k % 9),
            }))
        rows.sort(key=lambda kv: -kv[1]["hits"])
        write_tsv(directory, TimeSeriesData(
            DATASET, "minutely", w * 60,
            rows=rows, stats={"seen": keys * 4, "kept": keys}))
    return directory


# -- cold baseline ------------------------------------------------------

def cold_topk(directory, n=10):
    dumps = read_series(directory, DATASET)
    return ranked_keys(accumulate_dumps(dumps), by="hits")[:n]


def cold_series(directory, limit=8):
    return read_series(directory, DATASET)[-limit:]


def measure_cold(directory, queries=8):
    """Full-directory re-read per query: queries/second."""
    started = time.perf_counter()
    for i in range(queries):
        if i % 2:
            cold_series(directory)
        else:
            cold_topk(directory)
    return queries / (time.perf_counter() - started)


# -- warm HTTP path -----------------------------------------------------

async def _request(reader, writer, target):
    writer.write(("GET %s HTTP/1.1\r\nHost: bench\r\n\r\n"
                  % target).encode("ascii"))
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if not line.rstrip():
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    body = await reader.readexactly(length)
    return status, body


async def _measure_http(directory, target, queries):
    """Queries/second for *target* over one keep-alive connection."""
    server, app = await build_server(directory, port=0, cache_windows=512)
    try:
        reader, writer = await asyncio.open_connection(server.host,
                                                       server.port)
        try:
            # warm-up: populate the index and the parsed-window LRU
            for warm_target in (TOPK_TARGET, SERIES_TARGET, target):
                status, _ = await _request(reader, writer, warm_target)
                assert status == 200, status
            started = time.perf_counter()
            for _ in range(queries):
                status, body = await _request(reader, writer, target)
                assert status == 200 and body, status
            elapsed = time.perf_counter() - started
        finally:
            writer.close()
    finally:
        server.begin_shutdown()
        await server.wait_closed()
    return queries / elapsed


def measure_warm(directory, target, queries=100):
    return asyncio.run(_measure_http(directory, target, queries))


# -- bisected range lookup vs linear scan -------------------------------

def build_ref_index(directory, windows=INDEX_WINDOWS):
    """A *windows*-ref index over zero-byte files: range selection
    never opens a file, so the fixture only needs the names."""
    for w in range(windows):
        path = os.path.join(
            directory, filename_for("big", "minutely", w * 60))
        with open(path, "w"):
            pass
    return SeriesStore(directory)


def measure_range_lookup(store, dataset="big", queries=50):
    """(bisect_qps, linear_qps) for narrow range queries over the
    same sorted ref list."""
    refs = store.select(dataset)  # one up-front sort, as in serving
    span = refs[-1].start_ts + 60
    ranges = [(i * span // queries, i * span // queries + 600)
              for i in range(queries)]

    started = time.perf_counter()
    for start_ts, end_ts in ranges:
        store.select(dataset, "minutely", start_ts, end_ts)
    bisect_qps = queries / (time.perf_counter() - started)

    # the pre-index baseline: every query scans every ref
    linear_queries = ranges[:10]
    started = time.perf_counter()
    for start_ts, end_ts in linear_queries:
        [ref for ref in refs
         if window_overlaps("minutely", ref.start_ts, start_ts, end_ts)]
    linear_qps = len(linear_queries) / (time.perf_counter() - started)
    return bisect_qps, linear_qps


# -- streamed /series memory --------------------------------------------


STREAM_DATASET = "span"
STREAM_KEYS = 150


def build_span_fixture(directory, days=30):
    """Hourly windows covering *days* days: the long-span fixture the
    streaming path must serve in constant memory."""
    for w in range(days * 24):
        rows = [("10.0.%d.%d" % (k // 250, k % 250),
                 {"hits": float((k * 13 + w * 7) % 501 + 1),
                  "bytes_rx": float(k + w),
                  "nxdomains": float(k % 5)})
                for k in range(STREAM_KEYS)]
        write_tsv(directory, TimeSeriesData(
            STREAM_DATASET, "hourly", w * 3600,
            columns=["hits", "bytes_rx", "nxdomains"], rows=rows,
            stats={"seen": STREAM_KEYS * 2, "kept": STREAM_KEYS}))
    return directory


async def _drain_chunked(reader):
    """Read one chunked response, discarding the body; returns bytes."""
    head = await reader.readuntil(b"\r\n\r\n")
    assert b"200" in head.split(b"\r\n", 1)[0], head
    assert b"chunked" in head.lower(), head
    total = 0
    while True:
        size = int((await reader.readline()).strip(), 16)
        if size == 0:
            await reader.readline()
            return total
        await reader.readexactly(size + 2)  # chunk + CRLF
        total += size


async def _stream_peak(directory, target):
    """Peak tracemalloc bytes while *target* streams to completion.

    The first pass warms the process (imports, the LRU); the measured
    second pass shows what streaming itself holds: one in-flight
    window plus the bounded LRU, regardless of span length.
    """
    server, app = await build_server(directory, port=0,
                                     stream_threshold=0,
                                     cache_windows=16)

    async def one_request():
        reader, writer = await asyncio.open_connection(server.host,
                                                       server.port)
        try:
            writer.write(("GET %s HTTP/1.1\r\nHost: bench\r\n"
                          "Connection: close\r\n\r\n"
                          % target).encode("ascii"))
            await writer.drain()
            return await _drain_chunked(reader)
        finally:
            writer.close()

    try:
        await one_request()  # warm pass: learn ref metadata
        tracemalloc.start()
        try:
            body_bytes = await one_request()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        server.begin_shutdown()
        await server.wait_closed()
    return peak, body_bytes


def measure_stream_memory(directory):
    """((1-day peak, bytes), (30-day peak, bytes)) for streamed
    /series over the hourly span fixture."""
    day = asyncio.run(_stream_peak(
        directory,
        "/series/%s?granularity=hourly&end=86400" % STREAM_DATASET))
    month = asyncio.run(_stream_peak(
        directory, "/series/%s?granularity=hourly" % STREAM_DATASET))
    return day, month


# -- columnar segments vs TSV re-parse ----------------------------------

def build_segment_fixture(directory, windows=SEGMENT_WINDOWS,
                          keys=SEGMENT_KEYS):
    """*windows* minutely files with sidecar segments built.

    The gauge columns are genuine non-integral floats -- what real
    windows hold, and the cells where the text parse is slowest
    (:func:`~repro.observatory.tsv._parse` pays a raised ``ValueError``
    per float).  Rows are emitted in stable key order -- the clustered
    layout a compacted store converges to -- so the segment
    accumulate's same-key-tuple run batching engages, exactly as it
    would over a steady top-k population.
    """
    from repro.observatory.aggregate import TimeAggregator

    for w in range(windows):
        rows = []
        for k in range(keys):
            hits = (k * 37 + w * 11) % 997 + 1
            rows.append(("198.51.%d.%d" % (k // 250, k % 250), {
                "hits": hits,
                "ok": hits - k % 7,
                "nxd": k % 9,
                "unans": (k + w) % 5,
                "delay_q25": round(4.03 + ((k * 5 + w) % 60) / 8.0, 4),
                "delay_q50": round(10.03 + ((k * 3 + w) % 40) / 4.0, 4),
                "delay_q75": round(25.03 + ((k * 7 + w) % 80) / 2.0, 4),
                "size_q50": round(80.03 + ((k + w * 3) % 300) / 3.0, 4),
                "ttl_top1_share": round(((k * 11 + w) % 97 + 1) / 100.0,
                                        4),
            }))
        write_tsv(directory, TimeSeriesData(
            SEGMENT_DATASET, "minutely", w * 60,
            columns=list(SEGMENT_COLUMNS), rows=rows,
            stats={"seen": keys * 3, "kept": keys}))
    TimeAggregator(directory).compact()
    return directory


def _snap_rows(rows):
    """Comparable snapshot of an accumulate answer (values + window
    counters), so 'identical' means identical, not just dict-equal."""
    return {key: (row.windows, dict(row))
            for key, row in rows.items()}


def measure_segment_cold(directory, use_segments):
    """One cold accumulate + one cold topk with fresh stores.

    Returns ``(snapshot, top, seconds, store)`` -- the second store is
    returned so the caller can check *how* the answer was computed
    (segment scans vs text parses)."""
    store = SeriesStore(directory, cache_windows=0,
                        use_segments=use_segments)
    started = time.perf_counter()
    rows = store.accumulate(SEGMENT_DATASET)
    elapsed = time.perf_counter() - started
    store = SeriesStore(directory, cache_windows=0,
                        use_segments=use_segments)
    started = time.perf_counter()
    top = store.topk(SEGMENT_DATASET, n=10)
    elapsed += time.perf_counter() - started
    return _snap_rows(rows), top, elapsed, store


def check_segments(bound=SEGMENT_BOUND, windows=SEGMENT_WINDOWS,
                   directory=None):
    """Cold segment reads must beat cold TSV re-parse; (ok, report)."""
    tmp = None
    if directory is None:
        tmp = tempfile.mkdtemp(prefix="bench-segments-")
        directory = build_segment_fixture(tmp, windows=windows)
    try:
        tsv_rows, tsv_top, tsv_s, tsv_store = \
            measure_segment_cold(directory, use_segments=False)
        seg_rows, seg_top, seg_s, seg_store = \
            measure_segment_cold(directory, use_segments=True)
        identical = tsv_rows == seg_rows and tsv_top == seg_top
        # the segment run must actually have scanned segments, and the
        # TSV run must actually have parsed text: with no LRU, topk's
        # rank pass and row pass each read every window
        honest = (seg_store.segment_reads == 2 * windows
                  and seg_store.parses == 0
                  and tsv_store.parses == 2 * windows)
        speedup = tsv_s / seg_s if seg_s else float("inf")
        report = (
            "segment bench (%d windows x %d keys x %d cols): cold TSV "
            "accumulate+topk %.2f s, cold segment %.2f s -> %.1fx "
            "(bound %.0fx), answers %s, %d segment reads / %d parses"
            % (windows, SEGMENT_KEYS, len(SEGMENT_COLUMNS),
               tsv_s, seg_s, speedup, bound,
               "identical" if identical else "DIFFER",
               seg_store.segment_reads, seg_store.parses))
        return speedup >= bound and identical and honest, report
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)


# -- the CI gate --------------------------------------------------------

def check_speedup(directory=None, bound=SPEEDUP_BOUND):
    """Measure cold vs warm; returns (ok, report)."""
    tmp = None
    if directory is None:
        tmp = tempfile.mkdtemp(prefix="bench-serve-")
        directory = build_fixture(tmp)
    try:
        cold_qps = measure_cold(directory)
        topk_qps = measure_warm(directory, TOPK_TARGET)
        series_qps = measure_warm(directory, SERIES_TARGET)
        speedup_topk = topk_qps / cold_qps
        speedup_series = series_qps / cold_qps
        report = (
            "serve bench (%d windows x %d keys): cold %.1f q/s, warm "
            "/topk %.0f q/s (%.0fx), warm /series %.0f q/s (%.0fx) "
            "(bound %.0fx)"
            % (WINDOWS, KEYS, cold_qps, topk_qps, speedup_topk,
               series_qps, speedup_series, bound))
        ok = speedup_topk >= bound and speedup_series >= bound
        return ok, report
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)


def check_bisect(bound=BISECT_BOUND, windows=INDEX_WINDOWS):
    """Bisected range select must beat the linear scan; (ok, report)."""
    tmp = tempfile.mkdtemp(prefix="bench-bisect-")
    try:
        store = build_ref_index(tmp, windows=windows)
        bisect_qps, linear_qps = measure_range_lookup(store)
        speedup = bisect_qps / linear_qps
        report = (
            "range-lookup bench (%d-window index): bisect %.0f q/s, "
            "linear scan %.1f q/s -> %.0fx (bound %.0fx)"
            % (windows, bisect_qps, linear_qps, speedup, bound))
        return speedup >= bound, report
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def check_stream_memory(bound=MEMORY_FLAT_BOUND):
    """Streamed /series peak memory must be span-independent."""
    tmp = tempfile.mkdtemp(prefix="bench-stream-")
    try:
        build_span_fixture(tmp, days=30)
        (day_peak, day_bytes), (month_peak, month_bytes) = \
            measure_stream_memory(tmp)
        ratio = month_peak / day_peak if day_peak else float("inf")
        report = (
            "streamed /series memory: 1-day span %.0f KiB body, "
            "%.0f KiB peak; 30-day span %.0f KiB body, %.0f KiB peak "
            "-> %.2fx peak for %.0fx body (bound %.1fx)"
            % (day_bytes / 1024, day_peak / 1024, month_bytes / 1024,
               month_peak / 1024, ratio,
               month_bytes / day_bytes if day_bytes else 0, bound))
        # sanity: the long span really is much bigger on the wire
        ok = ratio <= bound and month_bytes >= 10 * day_bytes
        return ok, report
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if pytest is not None:

    @pytest.fixture(scope="module")
    def series_dir(tmp_path_factory):
        return build_fixture(str(tmp_path_factory.mktemp("serve")))

    def test_cold_read_rate(benchmark, series_dir):
        from benchmarks.conftest import save_result

        benchmark.pedantic(lambda: measure_cold(series_dir, queries=2),
                           rounds=3, iterations=1)
        qps = measure_cold(series_dir)
        save_result("serve_cold",
                    "cold full-directory read: %.1f queries/s" % qps)

    @pytest.mark.parametrize("target", [TOPK_TARGET, SERIES_TARGET],
                             ids=["topk", "series"])
    def test_warm_http_rate(benchmark, series_dir, target):
        from benchmarks.conftest import save_result

        qps = benchmark.pedantic(
            lambda: measure_warm(series_dir, target, queries=50),
            rounds=3, iterations=1)
        save_result("serve_warm_%s" % target.split("/")[1].split("?")[0],
                    "warm HTTP %s: %.0f queries/s" % (target, qps))

    def test_warm_speedup_within_bound(series_dir):
        cold_qps = measure_cold(series_dir, queries=4)
        # Halve the CI bound for the in-suite assertion: shared runners
        # are noisy, and the hard gate is the --check entry point.
        for target in (TOPK_TARGET, SERIES_TARGET):
            qps = measure_warm(series_dir, target, queries=50)
            assert qps >= cold_qps * SPEEDUP_BOUND / 2, \
                "%s only %.1fx faster than cold" % (target,
                                                    qps / cold_qps)

    def test_bisect_beats_linear_scan(tmp_path):
        from benchmarks.conftest import save_result

        # a smaller index than the --check gate keeps the suite quick;
        # the speedup grows with index size, so this bound is safe
        ok, report = check_bisect(bound=BISECT_BOUND / 2, windows=5000)
        save_result("serve_bisect", report)
        assert ok, report

    def test_streamed_series_memory_flat(tmp_path):
        from benchmarks.conftest import save_result

        ok, report = check_stream_memory()
        save_result("serve_stream_memory", report)
        assert ok, report

    def test_segments_beat_tsv_reparse(tmp_path):
        from benchmarks.conftest import save_result

        # a smaller fixture than the --check gate keeps the suite
        # quick; the speedup grows with window count, so halving the
        # bound is safe headroom for shared runners
        ok, report = check_segments(bound=SEGMENT_BOUND / 2,
                                    windows=1500)
        save_result("serve_segments", report)
        assert ok, report


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if "--check" not in argv:
        print("usage: python benchmarks/bench_serve.py --check",
              file=sys.stderr)
        return 2
    failures = 0
    for gate in (check_speedup, check_bisect, check_stream_memory,
                 check_segments):
        ok, report = gate()
        print(report)
        if not ok:
            failures += 1
            print("FAIL: %s" % gate.__name__, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
