"""Tests for the sharded batch ingest engine.

The headline property: a :class:`ShardedObservatory` over N worker
processes produces the *same* window dumps as a single-process
:class:`Observatory` fed the same time-ordered stream -- identical
row order and identical feature columns (counters exact, HyperLogLog
registers byte-identical because per-feature hash seeds are fixed).
"""

import os
import signal
import time

import pytest

from repro.observatory import Observatory, ShardedObservatory, TopKTracker
from repro.observatory.keys import make_dataset
from repro.observatory.sharded import partition_srcsrv
from repro.observatory.window import WindowManager, align_window
from repro.simulation import Scenario, SieChannel
from tests.util import make_txn


def _stream(duration=150.0, qps=25.0, seed=11):
    scenario = Scenario.tiny(seed=seed, duration=duration, client_qps=qps)
    return list(SieChannel(scenario).run())


#: Top-k sizes comfortably above the distinct-key counts of the test
#: stream, so neither the global nor the per-shard caches saturate and
#: the sharded output must match the single-process output exactly.
DATASETS = [("srvip", 2000), ("qname", 2000), ("esld", 1000), ("qtype", 64)]


def _run_single(txns, **kw):
    obs = Observatory(datasets=DATASETS, **kw)
    obs.consume(txns)
    obs.finish()
    return obs


def _run_sharded(txns, shards, **kw):
    obs = ShardedObservatory(shards=shards, datasets=DATASETS, **kw)
    obs.consume(txns)
    obs.finish()
    return obs


class TestEquivalence:
    """Sharded output == single-process output, window by window."""

    @pytest.fixture(scope="class")
    def txns(self):
        return _stream()

    @pytest.fixture(scope="class")
    def single(self, txns):
        return _run_single(txns)

    @pytest.mark.parametrize("shards,transport", [
        (2, "pickle"), (4, "pickle"), (2, "binary"), (4, "binary")])
    def test_dumps_match_single_process(self, txns, single, shards,
                                        transport):
        sharded = _run_sharded(txns, shards, transport=transport)
        assert sharded.total_seen == single.total_seen
        assert sharded.windows_completed == single.windows.windows_completed
        for name in single.datasets:
            sd, hd = single.dumps[name], sharded.dumps[name]
            assert [d.start_ts for d in hd] == [d.start_ts for d in sd]
            for a, b in zip(sd, hd):
                assert [k for k, _ in b.rows] == [k for k, _ in a.rows], \
                    "%s window %s: row order differs" % (name, a.start_ts)
                for (key, row_a), (_, row_b) in zip(a.rows, b.rows):
                    assert row_b == row_a, \
                        "%s window %s key %s" % (name, a.start_ts, key)
                assert b.stats["seen"] == a.stats["seen"]

    def test_seen_stats_partition_the_stream(self, txns):
        sharded = _run_sharded(txns, 2)
        total = sum(d.stats["seen"] for d in sharded.dumps["qtype"])
        assert total == len(txns)

    def test_capture_ratios_close_to_single(self, txns, single):
        """Per-shard cold starts lower capture slightly, never wildly."""
        sharded = _run_sharded(txns, 2)
        for name, ratio in single.capture_ratios().items():
            assert sharded.capture_ratios()[name] == \
                pytest.approx(ratio, abs=0.12)

    def test_top50_stable_under_saturation(self, txns, single):
        """Deliberate 3x oversaturation (k far below the distinct-key
        count, 4 shards): per-shard gate and eviction decisions then
        differ from the global cache's, so byte-exactness is off the
        table -- but the Top-k head must stay stable: near-total
        top-50 overlap and a long exact ranking prefix."""
        datasets = [("srvip", 150), ("qname", 300)]
        one = Observatory(datasets=datasets)
        one.consume(txns)
        one.finish()
        sharded = ShardedObservatory(shards=4, datasets=datasets)
        sharded.consume(txns)
        sharded.finish()
        for name in ("srvip", "qname"):
            for a, b in zip(one.dumps[name], sharded.dumps[name]):
                head_a = [k for k, _ in a.rows[:50]]
                head_b = [k for k, _ in b.rows[:50]]
                if not head_a:
                    assert not head_b
                    continue
                where = "%s window %s" % (name, a.start_ts)
                overlap = len(set(head_a) & set(head_b))
                assert overlap >= 45, where
                prefix = 0
                while (prefix < min(len(head_a), len(head_b))
                       and head_a[prefix] == head_b[prefix]):
                    prefix += 1
                assert prefix >= 15, where


class TestShardedMechanics:
    @pytest.mark.parametrize("transport", ["pickle", "binary"])
    def test_tsv_output_matches_single(self, tmp_path, transport):
        txns = _stream(duration=130.0, qps=15.0)
        single_dir = tmp_path / "single"
        sharded_dir = tmp_path / "sharded"
        _run_single(txns, output_dir=str(single_dir))
        _run_sharded(txns, 2, output_dir=str(sharded_dir),
                     transport=transport)
        names = sorted(os.listdir(single_dir))
        assert sorted(os.listdir(sharded_dir)) == names
        for name in names:
            a = (single_dir / name).read_text()
            b = (sharded_dir / name).read_text()
            # The #stats "kept" line may differ (per-shard caches
            # saturate later than one global cache); rows must not.
            rows_a = [l for l in a.splitlines() if not l.startswith("#stats")]
            rows_b = [l for l in b.splitlines() if not l.startswith("#stats")]
            assert rows_b == rows_a, name

    def test_ingest_single_transactions(self):
        obs = ShardedObservatory(shards=2, datasets=[("srvip", 16)])
        for i in range(5):
            assert obs.consume_batch((make_txn(ts=float(i)),)) == []
        dumps = obs.consume_batch((make_txn(ts=61.0),))
        assert [d.start_ts for d in dumps] == [0]
        obs.finish()
        assert obs.total_seen == 6

    def test_cut_on_empty_window_gap(self):
        """A stream gap spanning whole windows fast-forwards like the
        single-process catch-up: one dump for the window that had
        data, nothing for the idle ones, but windows_completed still
        counts them (parity with WindowManager)."""
        obs = ShardedObservatory(shards=2, datasets=[("srvip", 16)])
        obs.consume_batch((make_txn(ts=10.0),))
        dumps = obs.consume_batch((make_txn(ts=200.0),))
        obs.finish()
        assert [d.start_ts for d in dumps] == [0]
        # window 0's only key was inserted mid-window, so the
        # survived-one-window rule leaves the dump empty
        assert [len(d) for d in dumps] == [0]
        starts = [d.start_ts for d in obs.dumps["srvip"]]
        assert starts == [0, 180]
        assert obs.windows_completed == 4  # 0, two skipped, 180

    def test_finish_is_idempotent_and_closes(self):
        obs = ShardedObservatory(shards=2, datasets=[("srvip", 16)])
        obs.consume_batch((make_txn(ts=1.0),))
        obs.finish()
        assert obs.finish() == []
        with pytest.raises(RuntimeError):
            obs.consume_batch((make_txn(ts=2.0),))

    def test_worker_error_propagates(self):
        obs = ShardedObservatory(shards=2, datasets=[("srvip", 16)])
        obs._in_qs[0].put(("bogus-tag",))
        obs.timeout = 10.0
        with pytest.raises(RuntimeError, match="shard 0 failed"):
            obs._next_reply(expect="states")
        assert obs._closed

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            ShardedObservatory(shards=0)
        with pytest.raises(ValueError):
            ShardedObservatory(shards=2, window_seconds=0)
        with pytest.raises(ValueError):
            ShardedObservatory(shards=2, datasets=["srvip", "srvip"])
        with pytest.raises(ValueError):
            ShardedObservatory(shards=2, transport="carrier-pigeon")

    def test_capture_ratios_require_finish(self):
        obs = ShardedObservatory(shards=2, datasets=[("srvip", 16)])
        try:
            with pytest.raises(RuntimeError):
                obs.capture_ratios()
        finally:
            obs.close()

    def test_partition_functions(self):
        txn = make_txn(resolver_ip="10.0.0.9", server_ip="192.0.2.7",
                       qname="a.example.com")
        assert partition_srcsrv(txn) == "10.0.0.9|192.0.2.7"


class TestWorkerFailure:
    """Coordinator fault handling: a dead or hung worker must surface
    as a descriptive error within ``timeout`` and leave no live child
    processes behind (regression: ``_next_reply`` used to let a bare
    ``queue.Empty`` escape without ever calling ``close()``)."""

    @pytest.mark.parametrize("transport", ["pickle", "binary"])
    def test_sigkill_mid_run_raises_and_reaps_workers(self, transport):
        obs = ShardedObservatory(shards=2, datasets=[("srvip", 16)],
                                 timeout=2.0, transport=transport)
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
        obs = ShardedObservatory(shards=2, datasets=[("srvip", 16)],
                                 timeout=2.0)
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
        obs = ShardedObservatory(shards=2, datasets=[("srvip", 16)])
        obs.consume_batch((make_txn(ts=1.0),))
        obs.close()
        with pytest.raises(RuntimeError, match="closed"):
            obs.consume_batch([make_txn(ts=2.0)])
        obs.close()  # idempotent

    def test_close_with_backlogged_queues(self):
        """close() must not deadlock on queue feeder threads even with
        undelivered batches sitting in every queue."""
        obs = ShardedObservatory(shards=2, datasets=[("srvip", 16)],
                                 batch_size=4)
        obs.consume_batch([make_txn(ts=float(i), server_ip="192.0.2.%d" % i)
                           for i in range(64)])
        started = time.monotonic()
        obs.close()
        assert time.monotonic() - started < 10.0
        for worker in obs._workers:
            worker.join(timeout=5.0)
            assert not worker.is_alive()


class TestOneMergePoint:
    """One flush path: a single process is one shard merged
    in-process, and shard states merge in shard-index order."""

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

    @staticmethod
    def _shard_reply(shard_id, ttl_base):
        """What worker *shard_id* ships at the cut of window 0: one
        srvip key whose answers carried 16 distinct TTLs -- a full
        ``TopValues``, so merging two of them recycles counters and
        the outcome depends on which one is folded into which."""
        states = []
        manager = WindowManager(
            [TopKTracker(make_dataset("srvip", 8), use_bloom_gate=False)],
            window_seconds=60, state_sink=states.append)
        manager.consume_batch([
            make_txn(ts=float(i), answer_ttls=(ttl_base + i,))
            for i in range(16)])
        manager.flush()
        return ("states", shard_id, states, [])

    def test_merge_order_is_shard_index_not_arrival(self, monkeypatch):
        expected = None
        for order in ((0, 1), (1, 0)):  # reply arrival order
            replies = {0: self._shard_reply(0, 100),
                       1: self._shard_reply(1, 500)}
            pending = [replies[shard_id] for shard_id in order]
            obs = ShardedObservatory(shards=2, datasets=[("srvip", 8)],
                                     skip_recent_inserts=False)
            try:
                monkeypatch.setattr(
                    obs, "_next_reply", lambda expect: pending.pop(0))
                obs._window_start = 0
                dumps = obs._cut(60)
            finally:
                obs.close()
            rows = [(d.dataset, d.rows, d.stats) for d in dumps]
            assert rows[0][1], "merged window has no rows"
            if expected is None:
                expected = rows
            assert rows == expected
        # the tie is real: folding shard 1 into shard 0 and shard 0
        # into shard 1 disagree, so only a fixed order is repeatable
        def features(shard_id, ttl_base):
            window = self._shard_reply(shard_id, ttl_base)[2][0]
            return window.states[0].entries[0][5]

        forward = features(0, 100).merge(features(1, 500)).as_row()
        backward = features(1, 500).merge(features(0, 100)).as_row()
        assert forward["ttl_top1"] != backward["ttl_top1"]
        assert expected[0][1][0][1] == forward


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
        obs.consume([make_txn(ts=0.1 * i) for i in range(10)])
        obs.finish()
        starts = [d.start_ts for d in obs.dumps["srvip"]]
        assert starts == [0, 0.25, 0.5, 0.75]
