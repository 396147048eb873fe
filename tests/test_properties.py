"""Cross-module property-based tests: system-level invariants."""

import os
import random
import threading

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.dnswire.constants import QTYPE, RCODE
from repro.observatory.aggregate import aggregate_series
from repro.observatory.pipeline import Observatory
from repro.observatory.store import SeriesStore
from repro.observatory.transaction import Transaction
from repro.observatory.tsv import (
    TimeSeriesData, escape_key, filename_for, list_series, read_series,
    read_tsv, unescape_key, write_tsv)
from tests.differential import DIFF_SEEDS
from tests.util import cut_windows, make_nxdomain, make_txn

# -- strategies ---------------------------------------------------------

qtypes = st.sampled_from([QTYPE.A, QTYPE.AAAA, QTYPE.NS, QTYPE.MX,
                          QTYPE.TXT, QTYPE.PTR])
rcodes = st.sampled_from(list(RCODE))
names = st.sampled_from([
    "example.com", "www.example.com", "a.b.c.example.org",
    "bbc.co.uk", "x.ck", ".",
])


@st.composite
def transactions(draw):
    answered = draw(st.booleans())
    answer_count = draw(st.integers(0, 3))
    rcode = draw(rcodes) if answered else None
    if rcode != RCODE.NOERROR:
        answer_count = 0
    return make_txn(
        ts=draw(st.floats(0, 1000, allow_nan=False)),
        qname=draw(names),
        qtype=draw(qtypes),
        rcode=rcode,
        answered=answered,
        aa=draw(st.booleans()),
        answer_count=answer_count,
        answer_ttls=tuple([300] * answer_count),
        answer_ips=tuple("198.51.100.%d" % i for i in range(answer_count)),
        authority_ns_count=draw(st.integers(0, 2)),
        delay_ms=draw(st.floats(0.1, 500, allow_nan=False)),
        observed_ttl=draw(st.integers(30, 255)),
        response_size=draw(st.integers(12, 1400)),
    )


# -- properties ---------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.lists(transactions(), min_size=1, max_size=60))
def test_transaction_line_roundtrip_property(txns):
    """Every transaction survives the §2.1 line serialization (floats
    up to the format's fixed decimal precision)."""
    for txn in txns:
        back = Transaction.from_line(txn.to_line())
        for attr in Transaction.__slots__:
            a, b = getattr(back, attr), getattr(txn, attr)
            if attr == "ts":
                assert abs(a - b) < 1e-6, attr
            elif attr == "delay_ms":
                assert abs(a - b) < 1e-3, attr
            else:
                assert a == b, attr


@settings(max_examples=20, deadline=None)
@given(st.lists(transactions(), min_size=1, max_size=80))
def test_observatory_conserves_transactions(txns):
    """hits summed over dumped rows never exceed ingested transactions,
    and equals them when the top-k cache is big enough."""
    txns = sorted(txns, key=lambda t: t.ts)
    obs = Observatory(datasets=[("qname", 1000)], use_bloom_gate=False,
                      skip_recent_inserts=False)
    dumped = sum(row["hits"] for d in cut_windows(obs, txns)["qname"]
                 for _, row in d.rows)
    assert dumped == len(txns)


@settings(max_examples=20, deadline=None)
@given(st.lists(transactions(), min_size=1, max_size=80),
       st.integers(1, 4))
def test_capture_ratio_monotone_in_k(txns, small_k):
    """A bigger top-k cache never captures less traffic."""
    txns = sorted(txns, key=lambda t: t.ts)
    small = Observatory(datasets=[("qname", small_k)],
                        use_bloom_gate=False)
    big = Observatory(datasets=[("qname", 1000)], use_bloom_gate=False)
    small.consume(txns)
    big.consume(txns)
    assert big.capture_ratios()["qname"] >= \
        small.capture_ratios()["qname"] - 1e-9


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(["k1", "k2", "k3"]),
    st.integers(0, 100),
    st.floats(0, 50, allow_nan=False),
), min_size=1, max_size=30))
def test_aggregation_preserves_counter_mass(entries):
    """Summed counter mass is invariant under time aggregation when
    expected_points equals the file count -- to the TSV quantum per
    key, which the aggregated window's cells are rounded to."""
    series_list = []
    for i, (key, hits, delay) in enumerate(entries):
        series_list.append(TimeSeriesData(
            "x", "minutely", i * 60, columns=["hits", "delay_q50"],
            rows=[(key, {"hits": hits, "delay_q50": delay})]))
    agg = aggregate_series(series_list, "x", "decaminutely", 0,
                           expected_points=len(series_list))
    total_in = sum(h for _, h, _ in entries)
    total_out = sum(row["hits"] for _, row in agg.rows) * len(series_list)
    assert abs(total_out - total_in) <= \
        len(agg) * 0.5e-4 * len(series_list) + 1e-6


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(
    st.text(alphabet="abc123.", min_size=1, max_size=20).map(
        lambda s: s.strip(".") or "k"),
    st.integers(0, 10**6),
), min_size=1, max_size=20, unique_by=lambda kv: kv[0]),
    st.integers(0, 10**6))
def test_tsv_roundtrip_property(rows, start):
    """Arbitrary keys and integer values survive the TSV format."""
    import tempfile

    data = TimeSeriesData("prop", "minutely", start, columns=["hits"],
                          rows=[(k, {"hits": v}) for k, v in rows])
    with tempfile.TemporaryDirectory() as d:
        back = read_tsv(write_tsv(d, data))
    assert back.start_ts == start
    assert back.rows == [(k, {"hits": v}) for k, v in rows]


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31))
def test_simulation_determinism_property(seed):
    """Same seed -> identical stream prefix; independent of process
    hash randomization."""
    from repro.simulation import Scenario, SieChannel

    def prefix(n=40):
        scenario = Scenario.tiny(seed=seed, duration=30.0, client_qps=20.0)
        stream = SieChannel(scenario).run()
        return [next(stream).to_line() for _ in range(n)]

    assert prefix() == prefix()


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(transactions(), st.booleans()),
                min_size=1, max_size=80))
def test_featureset_merge_matches_single_pass(tagged):
    """FeatureSet.merge over an arbitrarily split stream produces the
    same feature row as one pass over the concatenation: counters and
    quantiles exactly, HLL cardinalities exactly too (register-max
    merging is byte-identical when hash seeds are fixed)."""
    from repro.observatory.features import FeatureSet

    left = FeatureSet()
    right = FeatureSet()
    whole = FeatureSet()
    for txn, side in tagged:
        (left if side else right).update(txn)
        whole.update(txn)
    left.merge(right)
    assert left.as_row() == whole.as_row()


# -- randomized differential harness ------------------------------------
#
# The indexed store's query answers against a raw directory scan on the
# same tree.  Each seed below drives the query RNG.  The same-tree
# contracts between ingest paths (single, sharded, live, in process)
# are the rows of ``tests/differential.py``.

@pytest.fixture(scope="module")
def differential_tree(tmp_path_factory):
    """One replayed tree, every window with a fresh columnar sidecar,
    shared by the store-vs-raw and segment-vs-text differentials."""
    from repro.observatory.aggregate import TimeAggregator

    directory = tmp_path_factory.mktemp("difftree")
    obs = Observatory(datasets=[("qname", 256), ("srvip", 64)],
                      output_dir=str(directory), use_bloom_gate=False,
                      skip_recent_inserts=False)
    for i in range(900):
        obs.ingest(make_txn(ts=i * 0.4,
                            qname="host%02d.example.com" % (i % 40),
                            server_ip="192.0.2.%d" % (1 + i % 7)))
    obs.finish()
    report = TimeAggregator(str(directory)).compact()
    assert report["built"] and not report["fresh"]
    return str(directory)


@pytest.mark.parametrize("seed", DIFF_SEEDS)
def test_store_answers_match_raw_read_series(differential_tree, seed):
    """The bisected, LRU-cached store answers every
    randomized range query exactly like a raw directory scan of the
    TSV text."""
    rng = random.Random(seed)
    store = SeriesStore(differential_tree, use_segments=False)

    def snapshot(series):
        return [(d.start_ts, d.rows, d.stats) for d in series]

    for _ in range(12):
        dataset = rng.choice(["qname", "srvip"])
        lo = rng.choice([None, rng.uniform(-120, 420)])
        hi = rng.choice([None, rng.uniform(-60, 480)])
        if lo is not None and hi is not None and hi <= lo:
            lo, hi = hi, lo
        raw = read_series(differential_tree, dataset, "minutely", lo, hi)
        assert snapshot(list(store.iter_range(
            dataset, "minutely", lo, hi))) == snapshot(raw)
        # the streaming iterator walks the same windows in the same
        # order as the materializing read
        streamed = store.iter_range(dataset, "minutely", lo, hi)
        assert snapshot(streamed) == snapshot(raw)


# -- TSV fuzzing: hostile keys + write atomicity ------------------------

#: characters a qname dataset can legally smuggle into the key column:
#: the escaped delimiters, the escape character itself, non-ASCII,
#: controls, and enough plain text to form empty/blank-adjacent fields
_HOSTILE_ALPHABET = list("ab\\\t\n\r# .") + ["é", "☃", "名", "\x1f"]


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet=st.sampled_from(_HOSTILE_ALPHABET), max_size=20))
def test_key_escaping_roundtrips_and_stays_single_line(key):
    escaped = escape_key(key)
    assert unescape_key(escaped) == key
    # the whole point: no raw delimiter survives into the file
    assert "\t" not in escaped
    assert "\n" not in escaped
    assert "\r" not in escaped


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(
    st.text(alphabet=st.sampled_from(_HOSTILE_ALPHABET), max_size=12),
    st.integers(0, 10**9),
), min_size=0, max_size=12),
    st.integers(0, 10**6))
def test_tsv_hostile_key_roundtrip(rows, start):
    """Tabs, newlines, backslashes, non-ASCII and empty keys all
    survive write_tsv -> read_tsv (``#stats`` is the format's one
    reserved key -- the stats trailer -- so it is excluded)."""
    import tempfile

    assume(all(key != "#stats" for key, _ in rows))
    data = TimeSeriesData("fuzz", "minutely", start, columns=["hits"],
                          rows=[(k, {"hits": v}) for k, v in rows],
                          stats={"seen": len(rows), "kept": len(rows)})
    with tempfile.TemporaryDirectory() as d:
        back = read_tsv(write_tsv(d, data))
    assert back.start_ts == start
    assert back.rows == [(k, {"hits": v}) for k, v in rows]
    assert back.stats == {"seen": len(rows), "kept": len(rows)}


# -- one window shape: memory == text == segment ------------------------
#
# A sidecar used to equal its TSV by construction (it was built from a
# re-read).  Writers now pack it from the window in memory, so this
# property is the guarantee: for any producer rows the window holds
# exactly what a parse of its file returns, and a segment packed from
# it is the segment a re-read builds, byte for byte.

_WINDOW_KEYS = st.one_of(
    st.sampled_from(["", "a", "a", "k\t1", "k\n2", "back\\slash", "é☃名"]),
    st.text(alphabet=st.sampled_from(_HOSTILE_ALPHABET), max_size=8))

_WINDOW_CELLS = st.one_of(
    st.integers(-10, 10**6),
    st.sampled_from([2**63 - 1, 2**63, -2**63, -2**63 - 1, 10**30]),
    st.sampled_from([2.00001, -0.0, 0.00004, -0.00004, 1e15, 1e15 - 1,
                     1.5e18, 1e300, 3.0, -7.25, 1234.56789, 0.5]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["12", "1.5", "1e5", "007", "-3", " 4 ", "inf",
                     "abc", "é", "", "True"]),
    st.booleans())

_WINDOW_COLUMNS = ["hits", "ok", "delay_q50", "ttl_top1", "note"]


def _typed(cells):
    """Cells with their types and signs: ``3 != 3.0``, ``0.0 != -0.0``."""
    return [(type(cell).__name__, repr(cell)) for cell in cells]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(_WINDOW_KEYS, st.dictionaries(
        st.sampled_from(_WINDOW_COLUMNS), _WINDOW_CELLS)), max_size=8),
    st.lists(st.sampled_from(_WINDOW_COLUMNS), unique=True),
    st.dictionaries(st.sampled_from(["seen", "kept", "points", "share"]),
                    st.one_of(st.integers(0, 10**6),
                              st.floats(0, 1e6, allow_nan=False))),
    st.sampled_from([0, 60, 60.0, 86400]))
def test_window_in_memory_is_its_file_and_its_segment(rows, columns, stats,
                                                      start):
    import tempfile

    from repro.observatory import segments

    assume(all(key != "#stats" for key, _ in rows))
    window = TimeSeriesData("fuzz", "minutely", start, columns=columns,
                            rows=rows, stats=stats)
    with tempfile.TemporaryDirectory() as d:
        path = write_tsv(d, window)
        parsed = read_tsv(path)
        packed = {}
        for how, seg in (
                ("memory", segments.write_sidecar(window, path)),
                ("re-read", segments.build_segment(path))):
            with open(seg, "rb") as fh:
                packed[how] = fh.read()
            reader = segments.SegmentReader(seg)
            assert reader.keys() == parsed.keys
            assert reader.columns == parsed.columns
            for name, cells in zip(parsed.columns, parsed.values):
                assert _typed(reader.column(name)) == _typed(cells)
            assert _typed(reader.stats.items()) == \
                _typed(parsed.stats.items())
    # same TSV, hence same source identity: the files must be equal
    assert packed["memory"] == packed["re-read"]
    if columns:  # a header-only file reads back one unnamed column
        assert window.columns == parsed.columns
        assert list(map(_typed, window.values)) == \
            list(map(_typed, parsed.values))
    assert window.keys == parsed.keys
    assert _typed(window.stats.items()) == _typed(parsed.stats.items())
    assert (window.dataset, window.granularity, window.start_ts) == \
        (parsed.dataset, parsed.granularity, parsed.start_ts)


@pytest.mark.parametrize("seed", DIFF_SEEDS)
def test_kept_dumps_equal_the_files_they_wrote(seed, tmp_path):
    """Every window the pipeline hands back from ``consume_batch`` /
    ``finish`` -- feature datasets, ``_platform`` timings,
    ``_detector`` scores -- is ``read_tsv`` of the file it wrote, cell
    types included."""
    from repro.cli import main as cli_main

    stream = tmp_path / "stream.txt"
    assert cli_main(["simulate", "--preset", "tiny", "--seed", str(seed),
                     "--duration", "150", "--qps", "15",
                     "--encrypted-fraction", "0.2",
                     "-o", str(stream)]) == 0
    out = tmp_path / "out"
    obs = Observatory(datasets=["srvip", "qname", "aafqdn"],
                      output_dir=str(out),
                      telemetry=True, detectors=True, encrypted=True)
    with open(stream, encoding="utf-8") as fh:
        dumps = obs.consume_batch([Transaction.from_line(line)
                                   for line in fh if line.strip()])
    dumps += obs.finish()
    written = 0
    for dump in dumps:
        path = out / filename_for(dump.dataset, "minutely", dump.start_ts)
        if not dump.keys:
            assert not path.exists()
            continue
        written += 1
        parsed = read_tsv(str(path))
        assert dump.keys == parsed.keys
        assert dump.columns == parsed.columns
        assert list(map(_typed, dump.values)) == \
            list(map(_typed, parsed.values))
        assert _typed(dump.stats.items()) == _typed(parsed.stats.items())
        assert dump.rows == parsed.rows
    assert written >= 8 and \
        {"_platform", "_detector"} <= {dump.dataset for dump in dumps}


def test_concurrent_reader_never_sees_a_torn_window(tmp_path):
    """write_tsv's replace-onto-final-name contract, observed from the
    outside: a reader hammering the canonical path while a writer loop
    rewrites it sees either no file or one complete, internally
    consistent version -- never a header from one write and rows from
    another, and never a ``.tmp`` sibling via list_series."""
    directory = str(tmp_path)
    path = os.path.join(directory, filename_for("race", "minutely", 0))
    done = threading.Event()

    def writer():
        try:
            for version in range(150):
                write_tsv(directory, TimeSeriesData(
                    "race", "minutely", 0, columns=["hits"],
                    rows=[("k%02d" % i, {"hits": version})
                          for i in range(80)],
                    stats={"seen": version, "kept": version}))
        finally:
            done.set()

    thread = threading.Thread(target=writer)
    thread.start()
    observed = set()
    try:
        while not done.is_set() or not observed:
            listed = list_series(directory, "race")
            assert len(listed) <= 1  # .tmp siblings are invisible
            try:
                data = read_tsv(path)
            except FileNotFoundError:
                continue
            versions = {row["hits"] for _, row in data.rows}
            versions.add(data.stats["seen"])
            assert len(versions) == 1, "torn window: %s" % versions
            assert len(data.rows) == 80
            observed.add(versions.pop())
    finally:
        thread.join()
    assert observed  # the reader really saw completed writes
    assert [n for n in os.listdir(directory) if n.endswith(".tsv")] == \
        [os.path.basename(path)]


# -- storage engine v2 differential: segments vs text -------------------
#
# The columnar sidecars must be invisible at the query surface: a
# segment-backed store and a TSV-only store over the same tree answer
# every query identically, down to the bytes HTTP clients receive.

@pytest.mark.parametrize("seed", DIFF_SEEDS)
def test_segment_store_matches_text_parse(differential_tree, seed):
    """Randomized ranges: read/accumulate/topk from segments equal the
    same queries re-parsing the TSV text, exactly."""
    rng = random.Random(seed)
    seg = SeriesStore(differential_tree, cache_windows=0)
    tsv = SeriesStore(differential_tree, cache_windows=0,
                      use_segments=False)

    def snapshot(series):
        return [(d.start_ts, d.rows, d.stats) for d in series]

    for _ in range(8):
        dataset = rng.choice(["qname", "srvip"])
        lo = rng.choice([None, rng.uniform(-120, 420)])
        hi = rng.choice([None, rng.uniform(-60, 480)])
        if lo is not None and hi is not None and hi <= lo:
            lo, hi = hi, lo
        assert snapshot(list(seg.iter_range(dataset, "minutely", lo, hi))) \
            == snapshot(list(tsv.iter_range(dataset, "minutely", lo, hi)))
        assert seg.accumulate(dataset, lo, hi) == \
            tsv.accumulate(dataset, lo, hi)
        assert seg.topk(dataset, n=5, start_ts=lo, end_ts=hi) == \
            tsv.topk(dataset, n=5, start_ts=lo, end_ts=hi)
    # the fast path really ran: all cold reads came from sidecars
    assert seg.segment_reads > 0 and seg.parses == 0
    assert tsv.parses > 0 and tsv.segment_reads == 0


def test_segment_backed_http_responses_byte_identical(differential_tree):
    """/series and /topk bodies (and ETags) from a segment-backed
    server equal a TSV-only server's, byte for byte."""
    import asyncio

    from repro.server import build_server
    from tests.server.util import http_get

    targets = (
        "/series/qname",
        "/series/srvip?start=60&end=300",
        "/topk/qname?n=5",
        "/topk/srvip?n=3&by=ok",
    )

    def collect(use_segments):
        async def _main():
            store = SeriesStore(differential_tree, cache_windows=0,
                                use_segments=use_segments)
            server, app = await build_server(differential_tree, port=0,
                                             store=store)
            try:
                out = []
                for target in targets:
                    resp = await http_get(server.port, target)
                    out.append((target, resp.status,
                                resp.headers.get("etag"), resp.body))
                return out, store
            finally:
                server.begin_shutdown()
                await server.wait_closed()

        return asyncio.run(_main())

    seg_out, seg_store = collect(True)
    tsv_out, tsv_store = collect(False)
    assert seg_out == tsv_out
    assert seg_store.segment_reads > 0 and seg_store.parses == 0
    assert tsv_store.parses > 0


# -- detection subsystem differentials ----------------------------------

@settings(max_examples=25, deadline=None)
@given(st.lists(st.text(alphabet=st.sampled_from(_HOSTILE_ALPHABET),
                        min_size=1, max_size=24),
                min_size=1, max_size=30))
def test_detector_rows_survive_tsv_roundtrip(qnames):
    """Hostile qnames (tabs, newlines, backslashes, '#', non-ASCII)
    flow through the detectors into ``_detector`` row keys that survive
    the TSV escape roundtrip: keys byte-exact, values stable after one
    quantization pass (floats serialize at fixed decimal precision)."""
    import tempfile

    from repro.detect import build_detectors

    detectors = build_detectors(True)
    for qname in qnames:
        detectors.observe_batch([make_txn(qname=qname)])
    rows = detectors.cut(0.0, 60.0)
    columns = sorted({c for _, row in rows for c in row})
    data = TimeSeriesData("_detector", "minutely", 0, columns=columns,
                          rows=rows, stats={"rows": len(rows)})
    with tempfile.TemporaryDirectory() as d:
        once = read_tsv(write_tsv(d, data))
        twice = read_tsv(write_tsv(d, once))
    assert [key for key, _ in once.rows] == [key for key, _ in rows]
    assert twice.rows == once.rows
    assert twice.stats == once.stats == {"rows": len(rows)}


# -- encrypted-DNS scenario differentials --------------------------------
#
# The blinding model makes three promises, each checked through the
# real CLI for five random workloads:
#
#  1. an encrypted-capable scenario at fraction 0 is byte-identical to
#     a scenario that never heard of encryption (enabling the feature
#     costs nothing until the first resolver moves);
#  2. raising the fraction *only* blinds -- observation volume (the
#     ``seen`` accounting) is invariant, content datasets degrade
#     monotonically, and the ``_encrypted`` channel only grows (the
#     per-resolver hash-threshold assignment nests);
#  3. a sharded run writes the single-process tree, ``_encrypted`` and
#     ``_vantage_*`` included, although ``_encrypted`` lives on a
#     different worker from most trackers (the ``mix-<seed>`` rows of
#     ``tests/differential.py``).

def _simulate_stream(cli_main, tmp_path, seed, name, extra=()):
    stream = tmp_path / ("%s.txt" % name)
    assert cli_main(["simulate", "--preset", "tiny", "--seed", str(seed),
                     "--duration", "120", "--qps", "15",
                     "-o", str(stream)] + list(extra)) == 0
    return stream


@pytest.mark.parametrize("seed", DIFF_SEEDS)
def test_plaintext_encrypted_scenario_byte_identical(seed, streams,
                                                     tmp_path):
    """simulate --encrypted-fraction 0 (with non-default DoH share and
    padding knobs armed) produces the exact bytes of a simulate that
    never saw the flags.  (That the bytes replay to one tree, without
    an ``_encrypted`` series, is the ``plain-<seed>:default:
    replay=replay`` row of ``tests/differential.py``.)"""
    from repro.cli import main as cli_main

    plain = streams("plain-%d" % seed)
    armed = tmp_path / "armed.txt"
    assert cli_main(plain.argv + [
        "--encrypted-fraction", "0", "--doh-share", "0.9",
        "--padding-block", "468", "-o", str(armed)]) == 0
    with open(plain.path, "rb") as fh:
        assert armed.read_bytes() == fh.read()


@pytest.mark.parametrize("seed", DIFF_SEEDS)
def test_blindness_monotone_as_fraction_rises(seed, tmp_path):
    """A 0 -> 0.4 -> 0.8 encrypted-fraction sweep of one workload:
    observation volume is invariant, every content dataset's weight is
    non-increasing, the _encrypted channel's is non-decreasing, and
    ``report --blindness`` agrees (exit 0 in order, exit 3 shuffled)."""
    from repro.analysis.blindness import (
        ENCRYPTED_DATASET, evaluate_blindness, summarize_directory)
    from repro.cli import main as cli_main

    sweep = []
    for fraction in ("0", "0.4", "0.8"):
        stream = _simulate_stream(
            cli_main, tmp_path, seed, "f%s" % fraction,
            ["--encrypted-fraction", fraction])
        out = tmp_path / ("out-f%s" % fraction)
        assert cli_main(["replay", str(stream), str(out)]) == 0
        sweep.append((fraction, summarize_directory(str(out))))
    assert evaluate_blindness(sweep) == []
    base = sweep[0][1]
    high = sweep[-1][1]
    # blinding moved real traffic: the channel is populated and the
    # content datasets lost weight
    assert high[ENCRYPTED_DATASET].weight > 0
    # a heavily blinded sweep may drop qname entirely (all windows
    # empty -> no files), which summarizes as weight 0
    high_qname = high.get("qname")
    assert (high_qname.weight if high_qname is not None else 0.0) \
        < base["qname"].weight
    # sensors still saw every transaction: each window's seen
    # accounting is invariant across the sweep.  (A dataset can lose
    # whole *files* -- a window whose every row was blinded writes
    # nothing -- so the comparison is per existing window, and a
    # blinded sweep never grows a content dataset's window set.)
    def seen_by_window(directory, dataset):
        return {d.start_ts: d.stats.get("seen")
                for d in read_series(directory, dataset, "minutely")}

    for dataset in base:
        base_seen = seen_by_window(str(tmp_path / "out-f0"), dataset)
        for fraction, _summaries in sweep[1:]:
            here = seen_by_window(
                str(tmp_path / ("out-f%s" % fraction)), dataset)
            assert set(here) <= set(base_seen), dataset
            for start_ts, seen in here.items():
                assert seen == base_seen[start_ts], (dataset, start_ts)
    # the CLI gate agrees, both ways
    dirs = [str(tmp_path / ("out-f%s" % f)) for f in ("0", "0.4", "0.8")]
    assert cli_main(["report", "--blindness"] + dirs) == 0
    assert cli_main(["report", "--blindness", dirs[2], dirs[0],
                     dirs[1]]) == 3
