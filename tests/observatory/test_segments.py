"""Tests for the columnar segment sidecars (storage engine v2)."""

import json
import os
import struct
import threading

import pytest

from repro.observatory import segments as segmentfmt
from repro.observatory.aggregate import TimeAggregator
from repro.observatory.store import SeriesStore
from repro.observatory.tsv import (
    TimeSeriesData,
    read_series,
    read_tsv,
    write_tsv,
)


def make_window(tmp_path, start, dataset="srvip", granularity="minutely",
                rows=None, columns=None):
    rows = rows if rows is not None else [
        ("192.0.2.1", {"hits": 10 + start, "ok": 9, "delay_q50": 12.25}),
        ("192.0.2.2", {"hits": 5, "ok": 5, "delay_q50": 3.5}),
    ]
    data = TimeSeriesData(
        dataset, granularity, start,
        columns=columns or ["hits", "ok", "delay_q50"], rows=rows,
        stats={"seen": 20, "kept": 15})
    return write_tsv(str(tmp_path), data)


def identity(path):
    st = os.stat(path)
    return (st.st_mtime_ns, st.st_size, st.st_ino)


class TestFormat:
    def test_roundtrip_matches_text_parse(self, tmp_path):
        path = make_window(tmp_path, 0)
        seg = segmentfmt.build_segment(path)
        assert seg == path + segmentfmt.SEGMENT_SUFFIX
        want = read_tsv(path)
        got = segmentfmt.read_segment(seg)
        assert got.dataset == want.dataset
        assert got.granularity == want.granularity
        assert got.start_ts == want.start_ts
        assert got.columns == want.columns
        assert got.rows == want.rows
        assert got.stats == want.stats

    def test_empty_window_roundtrips(self, tmp_path):
        path = make_window(tmp_path, 0, rows=[])
        got = segmentfmt.read_segment(segmentfmt.build_segment(path))
        assert got.rows == []
        assert got.stats == {"seen": 20, "kept": 15}

    def test_unique_keys_use_raw_encoding(self, tmp_path):
        path = make_window(tmp_path, 0)
        segmentfmt.build_segment(path)
        reader = segmentfmt.SegmentReader(path + ".seg")
        assert reader._key_block["encoding"] == "raw"
        assert reader.keys() == ["192.0.2.1", "192.0.2.2"]

    def test_repeated_keys_dict_encoded(self, tmp_path):
        # Key columns are not necessarily unique across a whole file
        # slice; a repeated tuple must dict-encode and decode back in
        # the original row order.
        rows = [("a", {"hits": 1}), ("b", {"hits": 2}),
                ("a", {"hits": 3}), ("b", {"hits": 4}),
                ("a", {"hits": 5})]
        path = make_window(tmp_path, 0, rows=rows, columns=["hits"])
        segmentfmt.build_segment(path)
        reader = segmentfmt.SegmentReader(path + ".seg")
        assert reader._key_block["encoding"] == "dict"
        assert reader._key_block["unique"] == 2
        assert reader.keys() == ["a", "b", "a", "b", "a"]
        assert reader.column("hits") == [1, 2, 3, 4, 5]

    def test_hostile_keys_roundtrip(self, tmp_path):
        keys = ["a\tb", "c\nd", "e\\f", "é☃名", "", "# .x"]
        rows = [(k, {"hits": i}) for i, k in enumerate(keys)]
        path = make_window(tmp_path, 0, rows=rows, columns=["hits"])
        got = segmentfmt.read_segment(segmentfmt.build_segment(path))
        assert [k for k, _ in got.rows] == keys

    def test_column_kinds(self, tmp_path):
        rows = [
            ("a", {"ints": 1, "floats": 1.5, "mixed": 2,
                   "big": 2 ** 70, "text": "x"}),
            ("b", {"ints": -7, "floats": 0.25, "mixed": 2.5,
                   "big": 0, "text": "y"}),
        ]
        path = make_window(
            tmp_path, 0, rows=rows,
            columns=["ints", "floats", "mixed", "big", "text"])
        want = read_tsv(path)
        segmentfmt.build_segment(path)
        reader = segmentfmt.SegmentReader(path + ".seg")
        kinds = {name: blk[0]
                 for name, blk in reader._blocks.items()}
        assert kinds["ints"] == segmentfmt.KIND_I64
        assert kinds["floats"] == segmentfmt.KIND_F64
        # mixed int/float, bignum and text all fall back to JSON
        assert kinds["mixed"] == segmentfmt.KIND_JSON
        assert kinds["big"] == segmentfmt.KIND_JSON
        assert kinds["text"] == segmentfmt.KIND_JSON
        # and every value survives with its parsed type intact
        assert reader.to_data().rows == want.rows

    def test_mixed_column_preserves_int_float_distinction(self, tmp_path):
        rows = [("a", {"v": 3}), ("b", {"v": 3.5})]
        path = make_window(tmp_path, 0, rows=rows, columns=["v"])
        segmentfmt.build_segment(path)
        got = segmentfmt.read_segment(path + ".seg")
        values = [row["v"] for _, row in got.rows]
        assert values == [3, 3.5]
        assert [type(v) for v in values] == [int, float]

    def test_key_signature_identifies_ordered_key_tuple(self, tmp_path):
        a = make_window(tmp_path, 0)
        b = make_window(tmp_path, 60)  # same keys, different values
        c = make_window(tmp_path, 120, rows=[
            ("192.0.2.2", {"hits": 1, "ok": 1, "delay_q50": 1.0}),
            ("192.0.2.1", {"hits": 2, "ok": 2, "delay_q50": 2.0}),
        ])  # same keys, different order
        sigs = []
        for path in (a, b, c):
            segmentfmt.build_segment(path)
            sigs.append(segmentfmt.SegmentReader(path + ".seg")
                        .key_signature())
        assert sigs[0] == sigs[1]
        assert sigs[0] != sigs[2]


class TestStaleness:
    def test_fresh_segment_opens(self, tmp_path):
        path = make_window(tmp_path, 0)
        segmentfmt.build_segment(path)
        assert segmentfmt.open_if_fresh(path, identity(path)) is not None

    def test_rewritten_tsv_makes_segment_stale(self, tmp_path):
        path = make_window(tmp_path, 0)
        segmentfmt.build_segment(path)
        make_window(tmp_path, 0, rows=[
            ("x", {"hits": 1, "ok": 1, "delay_q50": 1.0})])
        os.utime(path, ns=(1, 1))
        assert segmentfmt.open_if_fresh(path, identity(path)) is None

    def test_missing_sidecar_is_none(self, tmp_path):
        path = make_window(tmp_path, 0)
        assert segmentfmt.open_if_fresh(path, identity(path)) is None

    @pytest.mark.parametrize("junk", [
        b"", b"shrt", b"not a segment at all, definitely not",
        segmentfmt.MAGIC + b"\x00" * 40,
    ])
    def test_corrupt_segment_rejected(self, tmp_path, junk):
        path = make_window(tmp_path, 0)
        with open(path + ".seg", "wb") as fh:
            fh.write(junk)
        with pytest.raises(ValueError):
            segmentfmt.SegmentReader(path + ".seg")
        assert segmentfmt.open_if_fresh(path, identity(path)) is None

    def test_future_version_rejected(self, tmp_path):
        path = make_window(tmp_path, 0)
        seg = segmentfmt.build_segment(path)
        with open(seg, "r+b") as fh:
            fh.seek(4)
            fh.write(struct.pack("<H", segmentfmt.VERSION + 1))
        with pytest.raises(ValueError):
            segmentfmt.SegmentReader(seg)


class TestScan:
    def test_scan_segments_maps_tsv_to_sidecar(self, tmp_path):
        a = make_window(tmp_path, 0)
        make_window(tmp_path, 60)
        segmentfmt.build_segment(a)
        (tmp_path / "junk.seg").write_bytes(b"x")  # stem is not a window
        found = segmentfmt.scan_segments(str(tmp_path))
        assert found == {os.path.basename(a): os.path.basename(a) + ".seg"}

    def test_scan_missing_directory_empty(self, tmp_path):
        assert segmentfmt.scan_segments(str(tmp_path / "nope")) == {}

    def test_remove_segment_for(self, tmp_path):
        path = make_window(tmp_path, 0)
        segmentfmt.build_segment(path)
        assert segmentfmt.remove_segment_for(path) is True
        assert not os.path.exists(path + ".seg")
        assert segmentfmt.remove_segment_for(path) is False

    def test_sidecars_invisible_to_store_index(self, tmp_path):
        path = make_window(tmp_path, 0)
        segmentfmt.build_segment(path)
        store = SeriesStore(str(tmp_path))
        assert len(store._index) == 1  # the .seg never becomes a window ref


class TestStoreIntegration:
    def fill(self, tmp_path, count=6):
        for i in range(count):
            make_window(tmp_path, i * 60)
        TimeAggregator(str(tmp_path)).compact()

    def snapshot(self, series):
        return [(d.start_ts, d.rows, d.stats) for d in series]

    def test_cold_read_prefers_segment(self, tmp_path):
        self.fill(tmp_path)
        store = SeriesStore(str(tmp_path))
        raw = read_series(str(tmp_path), "srvip")
        assert self.snapshot(store.read("srvip")) == self.snapshot(raw)
        assert store.segment_reads == 6
        assert store.parses == 0

    def test_use_segments_false_parses_text(self, tmp_path):
        self.fill(tmp_path)
        store = SeriesStore(str(tmp_path),
                            use_segments=False)
        store.read("srvip")
        assert store.parses == 6
        assert store.segment_reads == 0

    def test_stale_segment_falls_back_to_parse(self, tmp_path):
        path = make_window(tmp_path, 0)
        segmentfmt.build_segment(path)
        make_window(tmp_path, 0, rows=[
            ("fresh", {"hits": 42, "ok": 1, "delay_q50": 1.0})])
        os.utime(path, ns=(1, 1))
        store = SeriesStore(str(tmp_path))
        data = store.read("srvip")[0]
        assert data.rows[0][0] == "fresh"  # never the stale sidecar
        assert store.parses == 1
        assert store.segment_reads == 0

    def test_accumulate_matches_tsv_only_store(self, tmp_path):
        self.fill(tmp_path, count=8)
        seg = SeriesStore(str(tmp_path), cache_windows=0)
        tsv = SeriesStore(str(tmp_path), cache_windows=0,
                          use_segments=False)
        assert seg.accumulate("srvip") == tsv.accumulate("srvip")
        assert seg.topk("srvip", n=5) == tsv.topk("srvip", n=5)
        assert seg.segment_reads == 8 and seg.parses == 0

    def test_accumulate_run_interrupted_by_cached_window(self, tmp_path):
        """A warm LRU window in the middle of a clustered segment run
        must split the run (fold order is window order) without
        changing the answer."""
        self.fill(tmp_path, count=8)
        store = SeriesStore(str(tmp_path))
        middle = store.select("srvip")[4]
        store.read_window(middle)  # warm exactly one window
        plain = SeriesStore(str(tmp_path), cache_windows=0, use_segments=False)
        assert store.accumulate("srvip") == plain.accumulate("srvip")

    def test_accumulate_mixed_key_tuples_split_runs(self, tmp_path):
        """Windows with varying key tuples (the signature changes
        mid-range) still accumulate identically to a text pass."""
        for i in range(9):
            rows = [("k%d" % (j % (2 + i % 3)),
                     {"hits": i + j, "ok": j, "delay_q50": j + 0.5})
                    for j in range(2 + i % 3)]
            make_window(tmp_path, i * 60, rows=rows)
        TimeAggregator(str(tmp_path)).compact()
        seg = SeriesStore(str(tmp_path), cache_windows=0)
        tsv = SeriesStore(str(tmp_path), cache_windows=0,
                          use_segments=False)
        assert seg.accumulate("srvip") == tsv.accumulate("srvip")
        assert seg.segment_reads == 9

    def test_partial_sidecar_coverage_mixes_paths(self, tmp_path):
        for i in range(4):
            make_window(tmp_path, i * 60)
        segmentfmt.build_segment(
            os.path.join(str(tmp_path), "srvip.minutely.0000000060.tsv"))
        store = SeriesStore(str(tmp_path), cache_windows=0)
        plain = SeriesStore(str(tmp_path), cache_windows=0, use_segments=False)
        assert store.accumulate("srvip") == plain.accumulate("srvip")
        assert store.segment_reads == 1
        assert store.parses == 3


class TestCompact:
    def test_builds_missing_sidecars(self, tmp_path):
        for i in range(3):
            make_window(tmp_path, i * 60)
        report = TimeAggregator(str(tmp_path)).compact()
        assert len(report["built"]) == 3
        assert report["fresh"] == 0
        assert report["removed"] == []
        assert segmentfmt.scan_segments(str(tmp_path))

    def test_idempotent(self, tmp_path):
        make_window(tmp_path, 0)
        agg = TimeAggregator(str(tmp_path))
        agg.compact()
        report = agg.compact()
        assert report["built"] == [] and report["fresh"] == 1

    def test_rebuilds_stale_sidecar(self, tmp_path):
        path = make_window(tmp_path, 0)
        agg = TimeAggregator(str(tmp_path))
        agg.compact()
        make_window(tmp_path, 0, rows=[
            ("new", {"hits": 7, "ok": 7, "delay_q50": 7.0})])
        os.utime(path, ns=(1, 1))
        report = agg.compact()
        assert len(report["built"]) == 1
        got = segmentfmt.read_segment(path + ".seg")
        assert got.rows[0][0] == "new"

    def test_removes_orphan_sidecars(self, tmp_path):
        path = make_window(tmp_path, 0)
        agg = TimeAggregator(str(tmp_path))
        agg.compact()
        os.remove(path)  # retention without the aggregator's help
        report = agg.compact()
        assert report["removed"] == [path + ".seg"]
        assert not os.path.exists(path + ".seg")

    def test_dataset_filter(self, tmp_path):
        make_window(tmp_path, 0, dataset="srvip")
        make_window(tmp_path, 0, dataset="qtype")
        report = TimeAggregator(str(tmp_path)).compact(dataset="qtype")
        assert len(report["built"]) == 1
        assert "qtype" in report["built"][0]

    def test_aggregator_segments_flag_builds_coarse_sidecars(
            self, tmp_path):
        d = str(tmp_path)
        for i in range(10):
            make_window(tmp_path, i * 60)
        agg = TimeAggregator(d, segments=True)
        written = agg.aggregate_directory("srvip")
        assert written  # one complete decaminute
        for path in written:
            assert os.path.exists(path + segmentfmt.SEGMENT_SUFFIX)
            got = segmentfmt.read_segment(path + ".seg")
            assert got.rows == read_tsv(path).rows

    def test_retention_removes_sidecars_too(self, tmp_path):
        d = str(tmp_path)
        for i in range(10):
            make_window(tmp_path, i * 60)
        agg = TimeAggregator(d, retention={"minutely": 100},
                             segments=True)
        agg.aggregate_directory("srvip")
        agg.compact()
        deleted = agg.apply_retention(now_ts=10_000)
        assert len(deleted) == 10
        leftovers = [n for n in os.listdir(d)
                     if n.endswith(".seg") and ".minutely." in n]
        assert leftovers == []


class TestBugfixRegressions:
    def test_retention_survives_concurrent_deletion(self, tmp_path):
        """Regression: a file deleted between the retention scan and
        ``os.remove`` (another aggregator, an operator's rm) used to
        crash ``apply_retention`` mid-sweep, leaving the remaining
        expired files undeleted."""
        d = str(tmp_path)
        for i in range(10):
            make_window(tmp_path, i * 60)
        store = SeriesStore(d)
        agg = TimeAggregator(d, retention={"minutely": 100}, store=store)
        agg.aggregate_directory("srvip")
        victim = os.path.join(d, "srvip.minutely.0000000120.tsv")

        from repro.observatory import aggregate as aggmod
        real_remove = os.remove

        def racy_remove(path, *args, **kwargs):
            if path == victim and os.path.exists(victim):
                real_remove(victim)  # someone else got there first
            return real_remove(path, *args, **kwargs)

        agg.store.read("srvip")  # warm the store so reconcile matters
        try:
            aggmod.os.remove = racy_remove
            deleted = agg.apply_retention(now_ts=10_000)
        finally:
            aggmod.os.remove = real_remove
        # the sweep finished: every expired file is gone, including
        # the ones after the racy victim
        assert len(deleted) == 10
        assert not any(n.endswith(".tsv") and ".minutely." in n
                       for n in os.listdir(d))
        # and the store was reconciled per-file, not via a full rescan
        assert agg.store.select("srvip", "minutely") == []

    def test_cold_reads_single_flight(self, tmp_path):
        """Regression: N threads cold-reading the same window each ran
        their own parse (the lock was released around the disk read),
        multiplying the most expensive operation in the store."""
        path = make_window(tmp_path, 0)
        store = SeriesStore(str(tmp_path))
        ref, = store.select("srvip")
        from repro.observatory import store as storemod
        real_read = storemod.read_tsv
        started = threading.Event()
        release = threading.Event()

        def slow_read(p):
            started.set()
            assert release.wait(5)
            return real_read(p)

        results = []
        errors = []

        def reader():
            try:
                results.append(store.read_window(ref))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        try:
            storemod.read_tsv = slow_read
            leader = threading.Thread(target=reader)
            leader.start()
            assert started.wait(5)  # leader is inside the parse
            # instrument the in-flight event so the test can *know*
            # every follower reached the wait before releasing the
            # leader -- no sleeps, no flakes
            flight = store._inflight[path]
            arrived = threading.Semaphore(0)
            inner = flight.done

            class _CountingEvent:
                def wait(self, timeout=None):
                    arrived.release()
                    return inner.wait(timeout)

                def set(self):
                    inner.set()

            flight.done = _CountingEvent()
            followers = [threading.Thread(target=reader)
                         for _ in range(4)]
            for t in followers:
                t.start()
            for _ in followers:
                assert arrived.acquire(timeout=5)
            release.set()
            leader.join(5)
            for t in followers:
                t.join(5)
        finally:
            storemod.read_tsv = real_read
        assert not errors
        assert len(results) == 5
        assert all(r is results[0] for r in results)  # one shared parse
        assert store.parses == 1
        assert store.flight_waits == 4

    def test_failed_cold_read_propagates_to_waiters(self, tmp_path):
        make_window(tmp_path, 0)
        store = SeriesStore(str(tmp_path))
        ref, = store.select("srvip")
        from repro.observatory import store as storemod
        real_read = storemod.read_tsv
        started = threading.Event()
        release = threading.Event()

        def failing_read(p):
            started.set()
            assert release.wait(5)
            raise OSError("disk on fire")

        outcomes = []

        def reader():
            try:
                store.read_window(ref)
                outcomes.append("ok")
            except OSError:
                outcomes.append("oserror")

        try:
            storemod.read_tsv = failing_read
            leader = threading.Thread(target=reader)
            leader.start()
            assert started.wait(5)
            follower = threading.Thread(target=reader)
            follower.start()
            release.set()
            leader.join(5)
            follower.join(5)
        finally:
            storemod.read_tsv = real_read
        assert outcomes == ["oserror", "oserror"]
        # the failed flight is gone: the next read starts fresh
        assert store._inflight == {}
        assert len(store.read_window(ref).rows) == 2

    def test_vanished_window_reads_as_absent(self, tmp_path):
        """Regression: a window removed under a store that does not
        ``follow`` (retention in another process, an operator's rm)
        stayed indexed, so every query whose range touched it raised
        FileNotFoundError -- a 500 until restart."""
        paths = [make_window(tmp_path, start) for start in (0, 60, 120)]
        segmentfmt.build_segment(paths[2])
        store = SeriesStore(str(tmp_path))
        os.remove(paths[1])
        os.remove(paths[2])  # text gone, fresh sidecar left: still read
        rows = store.accumulate("srvip")
        assert rows["192.0.2.1"]["hits"] == 10 + (10 + 120)
        info = store.cache_info()
        assert info["vanished_reads"] == 1
        assert info["indexed_windows"] == 2
        assert [w.start_ts for w in store.read("srvip")] == [0, 120]
        assert store.has_key("srvip", "192.0.2.2")
        assert store.cache_info()["vanished_reads"] == 1  # dropped once

    def test_vanished_window_reaches_waiters_as_absent(self, tmp_path):
        path = make_window(tmp_path, 0)
        store = SeriesStore(str(tmp_path))
        ref, = store.select("srvip")
        from repro.observatory import store as storemod
        real_read = storemod.read_tsv
        started = threading.Event()
        release = threading.Event()

        def vanishing_read(p):
            started.set()
            assert release.wait(5)
            return real_read(p)  # removed by then: FileNotFoundError

        outcomes = []

        def reader():
            outcomes.append(store.read_window(ref))

        try:
            storemod.read_tsv = vanishing_read
            leader = threading.Thread(target=reader)
            leader.start()
            assert started.wait(5)
            follower = threading.Thread(target=reader)
            follower.start()
            os.remove(path)
            release.set()
            leader.join(5)
            follower.join(5)
        finally:
            storemod.read_tsv = real_read
        assert outcomes == [None, None]
        assert store._inflight == {} and store._index == {}
        assert store.read("srvip") == []

    @staticmethod
    def five_rows(tmp_path):
        rows = [("k%d" % i, {"hits": i + 1, "ok": i, "mix": i + (i % 2) / 2,
                             "delay_q50": i + 1.5}) for i in range(5)]
        path = make_window(tmp_path, 0, rows=rows,
                           columns=["hits", "ok", "mix", "delay_q50"])
        return path, segmentfmt.build_segment(path)

    @staticmethod
    def rewrite_footer(seg, edit):
        """Apply *edit* to the decoded footer and re-encode the tail."""
        raw = open(seg, "rb").read()
        length, = struct.unpack_from("<I", raw, len(raw) - 8)
        start = len(raw) - 8 - length
        footer = json.loads(raw[start:start + length])
        edit(footer)
        encoded = json.dumps(footer, separators=(",", ":")).encode()
        with open(seg, "wb") as fh:
            fh.write(raw[:start] + encoded
                     + struct.pack("<I4s", len(encoded), b"GSEO"))

    @pytest.mark.parametrize("damage", ["bytes_lost", "lengths_shifted"])
    def test_damaged_block_area_never_changes_an_answer(self, tmp_path,
                                                        damage):
        """Footer and source identity intact, block area not: the
        sidecar used to decode, shifted, into plausible wrong rows
        (``k0: hits=3`` where the TSV says 1).  The blocks must tile
        the file at their row count's length, else it is no segment."""
        path, seg = self.five_rows(tmp_path)
        reader = segmentfmt.SegmentReader(seg)
        hits_off = reader._blocks["hits"][1]
        if damage == "bytes_lost":
            raw = open(seg, "rb").read()
            with open(seg, "wb") as fh:
                fh.write(raw[:hits_off] + raw[hits_off + 16:])
        else:  # still tiling, but two <q blocks are not 8 * rows long
            def edit(footer):
                footer["blocks"]["hits"][2] -= 8
                footer["blocks"]["ok"][1] -= 8
                footer["blocks"]["ok"][2] += 8
            self.rewrite_footer(seg, edit)
        with pytest.raises(ValueError):
            segmentfmt.SegmentReader(seg)
        assert segmentfmt.open_if_fresh(path, identity(path)) is None
        store = SeriesStore(str(tmp_path))
        text = SeriesStore(str(tmp_path), use_segments=False)
        assert store.read("srvip")[0].rows == text.read("srvip")[0].rows
        assert store.accumulate("srvip") == text.accumulate("srvip")
        assert store.accumulate("srvip")["k0"]["hits"] == 1
        assert (store.segment_reads, store.parses) == (0, 1)

    @pytest.mark.parametrize("block", ["blob", "mix"])
    def test_undecodable_block_reads_as_text_and_is_counted(self, tmp_path,
                                                            block):
        """A fresh sidecar whose key blob or JSON block does not decode
        used to raise UnicodeDecodeError / JSONDecodeError out of
        ``read()`` and ``accumulate()`` although the TSV beside it is
        fine: the read falls back to the text and counts the reject."""
        path, seg = self.five_rows(tmp_path)
        reader = segmentfmt.SegmentReader(seg)
        off, length = reader._key_block["blob"] if block == "blob" \
            else reader._blocks["mix"][1:]
        with open(seg, "r+b") as fh:
            fh.seek(off)
            fh.write(b"\xff" * length)
        # same size, footer intact: still the fresh sidecar of its TSV
        reader = segmentfmt.open_if_fresh(path, identity(path))
        assert reader is not None
        with pytest.raises(ValueError):
            reader.to_data()
        store = SeriesStore(str(tmp_path))
        text = SeriesStore(str(tmp_path), use_segments=False)
        assert store.read("srvip")[0].rows == text.read("srvip")[0].rows
        assert store.accumulate("srvip") == text.accumulate("srvip")
        info = store.cache_info()
        assert info["segment_rejects"] == 1 and info["segment_reads"] == 0
        assert store.parses == 1
        assert text.cache_info()["segment_rejects"] == 0
