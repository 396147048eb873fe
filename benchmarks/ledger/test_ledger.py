"""Unit tests of the ledger's own helpers.

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py

(The suite itself is exercised end to end by ``run.py --smoke``.)
"""

import asyncio
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                   "src")]

import pytest  # noqa: E402

import compare  # noqa: E402
import corpus  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import run as ledger_run  # noqa: E402
import workloads  # noqa: E402


class TestPercentile:
    def test_interpolates_between_closest_ranks(self):
        assert harness.percentile([4, 1, 3, 2], 50) == 2.5
        assert harness.percentile([10, 20, 30, 40, 50], 80) == 42.0
        assert harness.percentile(range(101), 99) == 99.0

    def test_ends_and_single_sample(self):
        assert harness.percentile([7, 3, 9], 0) == 3
        assert harness.percentile([7, 3, 9], 100) == 9
        assert harness.percentile([5], 80) == 5

    def test_no_samples_is_an_error(self):
        with pytest.raises(ValueError):
            harness.percentile([], 50)


class TestTreeDigest:
    def _tree(self, root, rows="a\t1\n"):
        files = {
            "srvip.minutely.0000000060.tsv": rows,
            "qname.minutely.0000000060.tsv": "b\t2\n",
            "_platform.minutely.0000000060.tsv": "window\t12.5\n",
            "srvip.minutely.0000000060.tsv.seg": "binary",
        }
        for name, text in files.items():
            with open(os.path.join(root, name), "w") as fh:
                fh.write(text)

    def test_ignores_platform_and_segments(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        self._tree(str(a))
        self._tree(str(b))
        (b / "_platform.minutely.0000000060.tsv").write_text("window\t99\n")
        (b / "srvip.minutely.0000000060.tsv.seg").write_text("other")
        assert harness.tree_digest(str(a)) == harness.tree_digest(str(b))

    def test_sees_a_changed_byte_and_a_renamed_window(self, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        a.mkdir(), b.mkdir(), c.mkdir()
        self._tree(str(a))
        self._tree(str(b), rows="a\t2\n")
        self._tree(str(c))
        os.rename(str(c / "qname.minutely.0000000060.tsv"),
                  str(c / "qname.minutely.0000000120.tsv"))
        digests = {harness.tree_digest(str(d)) for d in (a, b, c)}
        assert len(digests) == 3


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    async def sleep(self, seconds):
        assert seconds > 0
        self.now += seconds


class TestOpenLoop:
    def test_lateness_is_counted_from_the_due_time(self):
        clock = FakeClock()
        late = loadgen.Lateness(threshold=0.075)
        released = []

        async def action(index):
            released.append(clock.now - 100.0)
            clock.now += 0.15  # every action overruns the 0.1 s period

        asyncio.run(loadgen.release_on_schedule(
            [0.0, 0.1, 0.2, 1.0], action, late, 100.0,
            clock=clock, sleep=clock.sleep))
        # never early, never skipped; an overrun delays what follows
        assert released == pytest.approx([0.0, 0.15, 0.30, 1.0])
        assert late.samples == pytest.approx([0.0, 0.05, 0.10, 0.0])
        assert late.late_count == 1

    def test_batches_release_at_their_last_due_time(self):
        dues = [0.000, 0.001, 0.004, 0.0051, 0.009, 0.020]
        batches = loadgen.batch_schedule(dues, 0.005)
        assert [(first, end) for _, first, end in batches] == \
            [(0, 3), (3, 5), (5, 6)]
        for release, first, end in batches:
            assert release == dues[end - 1]  # nothing is sent early
            assert release - dues[first] < 0.005
        assert loadgen.batch_schedule([], 0.005) == []


class TestSpeedMeter:
    def test_samples_every_core_and_stops(self, tmp_path):
        meter = harness.SpeedMeter(str(tmp_path))
        try:
            since = time.monotonic()
            deadline = since + 10.0
            while time.monotonic() < deadline and not all(
                    len(meter.samples({cpu})) >= 4 for cpu in harness.ALL_CPUS):
                time.sleep(0.1)
            until = time.monotonic()
            for cpu in harness.ALL_CPUS:
                assert len(meter.samples({cpu})) >= 4
            # a share of the reference box's speed
            assert 0.05 < meter.speed(since, until) < 20
            # a bracket shorter than the sampling period: nearest samples
            assert 0.05 < meter.speed(until, until, {min(harness.ALL_CPUS)}) < 20
        finally:
            meter.stop()
        assert all(child.returncode is not None
                   for child in meter.children.values())

    def test_no_sample_is_a_failed_phase(self, tmp_path):
        meter = harness.SpeedMeter(str(tmp_path))
        meter.stop()
        for child in meter.children.values():
            samples = child.log + ".samples"
            if os.path.exists(samples):
                os.remove(samples)
        with pytest.raises(harness.PhaseFailed):
            meter.speed(0.0, 1.0)


class TestMissingLayer:
    def test_a_layer_that_has_gone_reports_null(self, capsys):
        collected = layers.Layers(layers.Tracer())

        def gone():
            from repro.observatory import no_such_layer  # noqa: F401

        collected.probe("vanished", gone)
        collected.probe("present", lambda: {"store.topk_ms": 1.25})
        collected.probe("downstream", lambda: {"store.parses": 3},
                        needs=("present", "vanished"))
        assert "vanished" in collected.skipped
        assert collected.skipped["downstream"] == "needs vanished"
        assert collected.values["store.parses"] is None
        assert collected.values["store.topk_ms"] == 1.25
        assert collected.values["tsv.read_us_per_window"] is None
        assert set(collected.values) == set(layers.UNITS)

        ledger = harness.Ledger()
        ledger.attempt()
        result = ledger_run.emit("wire_to_tsv", collected.values,
                                 layers.UNITS, ledger)
        out = capsys.readouterr().out
        assert "wire_to_tsv/tsv.read_us_per_window null us" in out
        assert result["metrics"]["tsv.read_us_per_window"]["value"] is None
        assert result["correct"] and result["attempted"] == 1


class TestSparseTable:
    def test_every_workload_reports_only_known_metrics(self):
        assert set(workloads.REPORTED_ON) == set(workloads.WORKLOADS)
        for workload, names in workloads.REPORTED_ON.items():
            assert set(names) <= set(workloads.END_TO_END)
            # a fill repeats one of the workload's own pairs
            assert set(workloads.CONTRACT_FILL[workload].values()) \
                <= set(names)
        reported = {name for names in workloads.REPORTED_ON.values()
                    for name in names}
        assert reported == set(workloads.END_TO_END)

    def test_contract_row_widens_without_touching_own_pairs(self):
        own = {"setup_s": 1.5, "cpu_s_per_ktxn": 0.5, "peak_rss_mb": 140.0,
               "flush_to_queryable_mean_ms": 200.0,
               "flush_to_queryable_p80_ms": 250.0}
        row = workloads.contract_row("live_flush", own)
        assert list(row) == list(workloads.END_TO_END)
        assert {name: row[name] for name in own} == own
        assert row["query_p50_ms"] == 200.0
        # live_flush has no higher-is-better pair of its own: its
        # lower-is-better reference is turned round, so the cell moves
        # the way its direction says when the reference improves
        assert row["txn_per_s"] == row["queries_per_s"] == 2000.0
        better = dict(own, cpu_s_per_ktxn=0.4)
        assert workloads.contract_row("live_flush", better)["txn_per_s"] \
            > row["txn_per_s"]

    def test_fill_keeps_the_direction_of_the_cell(self):
        own = {"setup_s": 9.0, "peak_rss_mb": 80.0, "queries_per_s": 45.0,
               "query_p50_ms": 40.0}
        row = workloads.contract_row("serve_mixed", own)
        assert row["txn_per_s"] == 45.0            # higher <- higher
        assert row["cpu_s_per_ktxn"] == 40.0       # lower <- lower
        assert row["flush_to_queryable_p80_ms"] == 40.0


class TestCompare:
    def _write(self, path, pairs):
        import json
        runs = [{"workload": "wire_to_tsv", "trace": 0,
                 "metrics": {name: {"value": value, "unit": "x"}
                             for name, value in metrics.items()}}
                for metrics in pairs]
        path.write_text(json.dumps({"runs": runs}))
        return str(path)

    def test_equal_sets_pass_and_a_worse_median_breaches(self, tmp_path,
                                                         capsys):
        base = [{"txn_per_s": 5000.0 + i} for i in range(5)]
        slow = [{"txn_per_s": 3000.0 + i} for i in range(5)]
        a = self._write(tmp_path / "a.json", base)
        b = self._write(tmp_path / "b.json", slow)
        assert compare.main(a, a) == 0
        assert compare.main(a, b) == 1
        assert "BREACH" in capsys.readouterr().out

    def test_a_pair_missing_from_one_set_breaches(self, tmp_path, capsys):
        a = self._write(tmp_path / "a.json",
                        [{"txn_per_s": 5000.0, "cpu_s_per_ktxn": 0.2}] * 3)
        b = self._write(tmp_path / "b.json", [{"txn_per_s": 5000.0}] * 3)
        assert compare.main(a, b) == 1
        assert "only in A  BREACH" in capsys.readouterr().out


class TestQueryList:
    KEYS = {ds: ["%s%d" % (ds, rank) for rank in range(200)]
            for ds in ("srvip", "qname", "esld")}

    def _kinds(self, queries):
        kinds = {}
        for kind, path in queries:
            kinds.setdefault(kind, []).append(path)
        return kinds

    def test_shares_are_exact_and_ranged_requests_distinct(self):
        queries = corpus.query_list(7, 150, self.KEYS, 6.0, 0, 174,
                                    range_windows=8)
        kinds = self._kinds(queries)
        assert {k: len(v) for k, v in kinds.items()} == \
            {"topk": 82, "key": 38, "series": 18, "light": 12}
        ranged = kinds["topk"] + kinds["key"] + kinds["series"]
        assert len(set(ranged)) == len(ranged)
        assert queries == corpus.query_list(7, 150, self.KEYS, 6.0, 0, 174,
                                            range_windows=8)

    def test_the_seed_decides_order_not_how_much_work(self):
        a = self._kinds(corpus.query_list(1, 150, self.KEYS, 6.0, 0, 174,
                                          range_windows=8))
        b = self._kinds(corpus.query_list(2, 150, self.KEYS, 6.0, 0, 174,
                                          range_windows=8))
        assert a["key"] != b["key"] or a["topk"] != b["topk"]
        # the same keys (Zipf quantile ranks, rank 0 most often) ...
        assert sorted(a["key"]) == sorted(b["key"])
        assert sum("/srvip0?" in path for path in a["key"]) >= 2
        # ... and every range start used equally often, give or take one

        def start_counts(paths):
            counts = {}
            for path in paths:
                start = path.split("start=")[1].split("&")[0]
                counts[start] = counts.get(start, 0) + 1
            return counts

        for kinds in (a, b):
            counts = start_counts(kinds["topk"]).values()
            assert max(counts) - min(counts) <= 1
            assert len(counts) == 23   # every place an 8-window range fits
