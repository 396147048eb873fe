"""Cross-module property-based tests: system-level invariants."""

import os
import random
import threading

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.dnswire.constants import QTYPE, RCODE
from repro.observatory.aggregate import aggregate_series
from repro.observatory.pipeline import Observatory
from repro.observatory.store import SeriesStore
from repro.observatory.transaction import Transaction
from repro.observatory.tsv import (
    TimeSeriesData, escape_key, filename_for, list_series, read_series,
    read_tsv, unescape_key, write_tsv)
from tests.util import make_nxdomain, make_txn

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
    obs.consume(txns)
    obs.finish()
    dumped = sum(row["hits"] for d in obs.dumps["qname"]
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


def _keyed(ts, qname):
    return make_txn(ts=ts, qname=qname)


@settings(max_examples=10, deadline=None)
@given(st.lists(transactions(), min_size=1, max_size=120),
       st.integers(0, 2**32 - 1))
# bit i of the salt is transaction i's shard.  In window [100, 200):
# example.com is active in both shards, inserted at 150 in shard 0 and
# at 10 in shard 1 (absorb must keep the minimum); www.example.com is
# active only in shard 0 (inserted 170) and idle in shard 1 (inserted
# 20, three earlier hits): the cut must honour the idle shard's
# insertion time, and rank it above bbc.co.uk by the idle shard's rate
@example([_keyed(10, "example.com"), _keyed(20, "www.example.com"),
          _keyed(21, "www.example.com"), _keyed(22, "www.example.com"),
          _keyed(30, "bbc.co.uk"), _keyed(150, "example.com"),
          _keyed(160, "example.com"), _keyed(165, "bbc.co.uk"),
          _keyed(170, "www.example.com")], 0b001001111)
def test_split_streams_merge_like_one_observatory(txns, salt):
    """Splitting a stream across two trackers and merging their window
    states the way the coordinator does -- ``take_state`` on each part,
    ``absorb`` in shard-index order, ``cut`` -- dumps what one tracker
    over the whole stream dumps (uncapped, so the merge must be exact):
    the same keys with the same rows in the same rank order.  The split
    cuts through keys, so a key is regularly active in one shard and
    idle in the other: the survived-one-window rule has to see the
    *minimum* insertion time, and the rank the idle shard's rate."""
    from repro.observatory.keys import make_dataset
    from repro.observatory.telemetry import NullTelemetry
    from repro.observatory.tracker import TopKTracker, TrackerChannel

    def channel():
        return TrackerChannel(
            TopKTracker(make_dataset("qname", 1000), use_bloom_gate=False),
            True, NullTelemetry())

    parts, merged, whole = [channel(), channel()], channel(), channel()
    window = 100.0

    def flush(start):
        end = start + window
        for part in parts:  # shard-index order, as merge_window does
            merged.absorb(part.take_state(start, end))
        whole.absorb(whole.take_state(start, end))
        cache = whole.tracker.cache
        rate = {entry.key: cache.rate(entry, end) for entry in cache}
        got, want = merged.cut(start, end, 0), whole.cut(start, end, 0)
        assert dict(got.rows) == dict(want.rows)
        # same rank order: where the two orders differ, the rates are
        # equal up to the rounding of summing per-shard rates
        for heavier, lighter in zip(got.keys, got.keys[1:]):
            assert rate[heavier] >= rate[lighter] * (1 - 1e-9)
        assert got.stats["kept"] == want.stats["kept"]
        return end

    start = 0.0
    for index, txn in enumerate(sorted(txns, key=lambda t: t.ts)):
        while txn.ts >= start + window:
            start = flush(start)
        parts[salt >> index % 32 & 1].observe_batch((txn,), (None,))
        whole.observe_batch((txn,), (None,))
    flush(start)


# -- randomized differential harness ------------------------------------
#
# The strongest correctness statement the system can make is that its
# independently-built paths agree: the sharded multiprocess pipeline
# against the single-process one on the same randomized stream, and the
# indexed store's query answers against a raw directory scan on the
# same tree.  Each seed below drives the simulator's RNG, so every
# seed is a different workload.

DIFF_SEEDS = [7, 1017, 2019, 31337, 424242]


def _tsv_tree(directory):
    """``{filename: data lines}`` for every series file in *directory*.

    ``_platform`` files and ``#stats`` lines are each mode's own vital
    signs (telemetry rows and flush accounting legitimately differ
    between one process and two), so the differential excludes them --
    the same exclusion the CI smoke comparison uses.
    """
    out = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".tsv") or name.startswith("_platform."):
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            out[name] = [line for line in fh
                         if not line.startswith("#stats")]
    return out


@pytest.mark.parametrize("transport", ["binary"])
@pytest.mark.parametrize("seed", DIFF_SEEDS)
def test_sharded_replay_matches_single_process(seed, transport, tmp_path):
    """simulate | replay == simulate | replay --shards 2 --transport
    binary --telemetry: same filenames, same rows, for five
    random workloads, through the real CLI."""
    from repro.cli import main as cli_main

    stream = tmp_path / "stream.txt"
    assert cli_main(["simulate", "--preset", "tiny", "--seed", str(seed),
                     "--duration", "90", "--qps", "15",
                     "-o", str(stream)]) == 0
    single = tmp_path / "single"
    sharded = tmp_path / "sharded"
    assert cli_main(["replay", str(stream), str(single)]) == 0
    assert cli_main(["replay", str(stream), str(sharded),
                     "--shards", "2", "--transport", transport,
                     "--telemetry"]) == 0
    ours, theirs = _tsv_tree(str(single)), _tsv_tree(str(sharded))
    assert sorted(ours) == sorted(theirs)
    for name in ours:
        assert ours[name] == theirs[name], "row mismatch in %s" % name
    # the sharded run's telemetry really was on
    assert any(name.startswith("_platform.")
               for name in os.listdir(str(sharded)))


@pytest.fixture(scope="module")
def differential_tree(tmp_path_factory):
    """One replayed TSV tree shared by the store-vs-raw differentials."""
    directory = tmp_path_factory.mktemp("difftree")
    obs = Observatory(datasets=[("qname", 256), ("srvip", 64)],
                      output_dir=str(directory), use_bloom_gate=False,
                      skip_recent_inserts=False)
    for i in range(900):
        obs.ingest(make_txn(ts=i * 0.4,
                            qname="host%02d.example.com" % (i % 40),
                            server_ip="192.0.2.%d" % (1 + i % 7)))
    obs.finish()
    return str(directory)


@pytest.mark.parametrize("seed", DIFF_SEEDS)
def test_store_answers_match_raw_read_series(differential_tree, seed):
    """The bisected, LRU-cached store answers every
    randomized range query exactly like a raw directory scan."""
    rng = random.Random(seed)
    store = SeriesStore(differential_tree)

    def snapshot(series):
        return [(d.start_ts, d.rows, d.stats) for d in series]

    for _ in range(12):
        dataset = rng.choice(["qname", "srvip"])
        lo = rng.choice([None, rng.uniform(-120, 420)])
        hi = rng.choice([None, rng.uniform(-60, 480)])
        if lo is not None and hi is not None and hi <= lo:
            lo, hi = hi, lo
        raw = read_series(differential_tree, dataset, "minutely", lo, hi)
        assert snapshot(store.read(dataset, "minutely", lo, hi)) == \
            snapshot(raw)
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


@pytest.mark.parametrize("shards", [1, 2])
def test_pipeline_with_a_directory_retains_no_window(shards, tmp_path):
    """A finished window is kept in one place: with an output
    directory that is the directory, and ``dumps`` stays empty however
    long the stream (``replay`` must not grow with its input)."""
    from repro.observatory.pipeline import build_pipeline

    obs = build_pipeline(shards=shards, transport="binary",
                         datasets=["srvip", "qtype"],
                         output_dir=str(tmp_path), telemetry=True)
    obs.consume([make_txn(ts=i * 0.5, server_ip="192.0.2.%d" % (1 + i % 5))
                 for i in range(400)])
    obs.finish()
    assert len(list_series(str(tmp_path), "srvip")) >= 3
    assert list_series(str(tmp_path), "_platform")
    assert all(kept == [] for kept in obs.dumps.values())


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

@pytest.fixture(scope="module")
def segment_tree(tmp_path_factory):
    """A replayed tree where every window carries a fresh sidecar."""
    from repro.observatory.aggregate import TimeAggregator

    directory = tmp_path_factory.mktemp("segtree")
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
def test_segment_store_matches_text_parse(segment_tree, seed):
    """Randomized ranges: read/accumulate/topk from segments equal the
    same queries re-parsing the TSV text, exactly."""
    rng = random.Random(seed)
    seg = SeriesStore(segment_tree, cache_windows=0)
    tsv = SeriesStore(segment_tree, cache_windows=0,
                      use_segments=False)

    def snapshot(series):
        return [(d.start_ts, d.rows, d.stats) for d in series]

    for _ in range(8):
        dataset = rng.choice(["qname", "srvip"])
        lo = rng.choice([None, rng.uniform(-120, 420)])
        hi = rng.choice([None, rng.uniform(-60, 480)])
        if lo is not None and hi is not None and hi <= lo:
            lo, hi = hi, lo
        assert snapshot(seg.read(dataset, "minutely", lo, hi)) == \
            snapshot(tsv.read(dataset, "minutely", lo, hi))
        assert seg.accumulate(dataset, "minutely", lo, hi) == \
            tsv.accumulate(dataset, "minutely", lo, hi)
        assert seg.topk(dataset, n=5, start_ts=lo, end_ts=hi) == \
            tsv.topk(dataset, n=5, start_ts=lo, end_ts=hi)
    # the fast path really ran: all cold reads came from sidecars
    assert seg.segment_reads > 0 and seg.parses == 0
    assert tsv.parses > 0 and tsv.segment_reads == 0


def test_segment_backed_http_responses_byte_identical(segment_tree):
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
            store = SeriesStore(segment_tree, cache_windows=0,
                                use_segments=use_segments)
            server, app = await build_server(segment_tree, port=0,
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
#
# The detectors make a stronger promise than the tracker datasets: the
# accumulator/scorer split means the ``_detector`` series -- flush
# accounting included -- is bit-identical between a sharded run and a
# single process.  So unlike _tsv_tree above, this comparison keeps
# the ``#stats`` lines.

def _detector_tree(directory):
    """{filename: full text} for every ``_detector`` series file."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.startswith("_detector.") and name.endswith(".tsv"):
            with open(os.path.join(directory, name),
                      encoding="utf-8") as fh:
                out[name] = fh.read()
    return out


@pytest.mark.parametrize("seed", DIFF_SEEDS)
def test_sharded_detector_series_bit_identical(seed, tmp_path):
    """replay --detectors == replay --detectors --shards 2: the
    ``_detector`` files agree byte for byte, for five random workloads
    carrying both scripted attacks, through the real CLI."""
    from repro.cli import main as cli_main

    stream = tmp_path / "stream.txt"
    assert cli_main(["simulate", "--preset", "tiny", "--seed", str(seed),
                     "--duration", "300", "--qps", "15",
                     "--attack", "tunnel:120:10",
                     "--attack", "watertorture:120:10",
                     "-o", str(stream)]) == 0
    single = tmp_path / "single"
    sharded = tmp_path / "sharded"
    assert cli_main(["replay", str(stream), str(single),
                     "--detectors"]) == 0
    assert cli_main(["replay", str(stream), str(sharded), "--detectors",
                     "--shards", "2", "--transport", "binary"]) == 0
    ours, theirs = _detector_tree(str(single)), _detector_tree(str(sharded))
    assert ours, "no _detector series written"
    assert sorted(ours) == sorted(theirs)
    for name in ours:
        assert ours[name] == theirs[name], "byte mismatch in %s" % name
    # the comparison exercised live flag paths, not all-quiet windows
    flagged = sum(row["flagged"]
                  for d in read_series(str(single), "_detector", "minutely")
                  for key, row in d.rows if key in ("exfil", "ddos", "noh"))
    assert flagged > 0


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
# The blinding model makes three promises the harness below checks
# through the real CLI, for five random workloads each:
#
#  1. an encrypted-capable scenario at fraction 0 is byte-identical to
#     a scenario that never heard of encryption (enabling the feature
#     costs nothing until the first resolver moves);
#  2. raising the fraction *only* blinds -- observation volume (the
#     ``seen`` accounting) is invariant, content datasets degrade
#     monotonically, and the ``_encrypted`` channel only grows (the
#     per-resolver hash-threshold assignment nests);
#  3. the ``_encrypted`` and ``_vantage_*`` meta-series are
#     bit-identical (``#stats`` included) between a sharded run and a
#     single process, like the ``_detector`` promise above.

def _simulate_stream(cli_main, tmp_path, seed, name, extra=()):
    stream = tmp_path / ("%s.txt" % name)
    assert cli_main(["simulate", "--preset", "tiny", "--seed", str(seed),
                     "--duration", "120", "--qps", "15",
                     "-o", str(stream)] + list(extra)) == 0
    return stream


@pytest.mark.parametrize("seed", DIFF_SEEDS)
def test_plaintext_encrypted_scenario_byte_identical(seed, tmp_path):
    """simulate --encrypted-fraction 0 (with non-default DoH share and
    padding knobs armed) produces the exact bytes of a simulate that
    never saw the flags, and replays to the same TSV tree."""
    from repro.cli import main as cli_main

    plain = _simulate_stream(cli_main, tmp_path, seed, "plain")
    armed = _simulate_stream(
        cli_main, tmp_path, seed, "armed",
        ["--encrypted-fraction", "0", "--doh-share", "0.9",
         "--padding-block", "468"])
    assert plain.read_bytes() == armed.read_bytes()
    out_plain = tmp_path / "out-plain"
    out_armed = tmp_path / "out-armed"
    assert cli_main(["replay", str(plain), str(out_plain)]) == 0
    assert cli_main(["replay", str(armed), str(out_armed)]) == 0
    ours, theirs = _tsv_tree(str(out_plain)), _tsv_tree(str(out_armed))
    assert sorted(ours) == sorted(theirs)
    for name in ours:
        assert ours[name] == theirs[name], "row mismatch in %s" % name
    # and no _encrypted series materialized for an all-plaintext stream
    assert not any(name.startswith("_encrypted.")
                   for name in os.listdir(str(out_plain)))


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


def _meta_series_tree(directory, prefixes=("_encrypted.", "_vantage_")):
    """{filename: full text} for the encrypted/vantage meta-series."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".tsv") and name.startswith(prefixes):
            with open(os.path.join(directory, name),
                      encoding="utf-8") as fh:
                out[name] = fh.read()
    return out


@pytest.mark.parametrize("seed", DIFF_SEEDS)
def test_sharded_encrypted_and_vantage_bit_identical(seed, tmp_path):
    """replay --vantage of an encrypted-mix stream == the same with
    --shards 2 --transport binary: the _encrypted and _vantage_* files
    agree byte for byte, #stats trailers included."""
    from repro.cli import main as cli_main

    vdb = tmp_path / "vantage.tsv"
    stream = _simulate_stream(
        cli_main, tmp_path, seed, "mix",
        ["--encrypted-fraction", "0.5", "--vantage-db", str(vdb)])
    single = tmp_path / "single"
    sharded = tmp_path / "sharded"
    assert cli_main(["replay", str(stream), str(single),
                     "--vantage", str(vdb)]) == 0
    assert cli_main(["replay", str(stream), str(sharded),
                     "--vantage", str(vdb),
                     "--shards", "2", "--transport", "binary"]) == 0
    ours = _meta_series_tree(str(single))
    theirs = _meta_series_tree(str(sharded))
    assert any(name.startswith("_encrypted.") for name in ours), \
        "no _encrypted series written"
    assert any(name.startswith("_vantage_") for name in ours), \
        "no _vantage series written"
    assert sorted(ours) == sorted(theirs)
    for name in ours:
        assert ours[name] == theirs[name], "byte mismatch in %s" % name
    # the rest of the tree agrees too (rows; flush accounting may
    # legitimately differ only for _platform, excluded by _tsv_tree)
    rows_ours, rows_theirs = _tsv_tree(str(single)), _tsv_tree(str(sharded))
    assert sorted(rows_ours) == sorted(rows_theirs)
    for name in rows_ours:
        assert rows_ours[name] == rows_theirs[name]
