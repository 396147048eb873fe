"""Tests for the platform self-telemetry subsystem."""

import pytest

from repro.observatory.aggregate import TimeAggregator
from repro.observatory.pipeline import Observatory
from repro.observatory.telemetry import (
    NULL,
    NULL_INSTRUMENT,
    PLATFORM_DATASET,
    Counter,
    NullTelemetry,
    Ratio,
    Telemetry,
    Timing,
    resolve_telemetry,
    union_columns,
)
from repro.observatory.tsv import list_series, read_tsv
from tests.util import cut_windows, make_txn


class TestInstruments:
    def test_counter_snapshots_deltas(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert c.delta() == 5
        c.inc(2)
        assert c.delta() == 2  # only the increment since last snapshot
        assert c.delta() == 0

    def test_timing_drains_and_resets(self):
        t = Timing()
        t.observe(0.010)
        t.observe(0.030)
        row = t.drain("flush")
        assert row["flush_n"] == 2
        assert row["flush_ms_mean"] == pytest.approx(20.0, rel=0.25)
        assert row["flush_ms_max"] == pytest.approx(30.0, rel=0.25)
        assert t.drain("flush")["flush_n"] == 0  # drained

    def test_ratio_drains_per_window(self):
        r = Ratio()
        r.mark(True)
        r.mark(True)
        r.mark(False)
        row = r.drain("hit")
        assert row["hit_n"] == 3
        assert row["hit"] == pytest.approx(2 / 3, abs=1e-3)
        # drained: next window starts from zero observations
        assert r.drain("hit") == {"hit": 0.0, "hit_n": 0}

    def test_null_instrument_absorbs_everything(self):
        NULL_INSTRUMENT.inc()
        NULL_INSTRUMENT.observe(0.1)
        NULL_INSTRUMENT.mark(True)


class TestRegistry:
    def test_instrument_factories_idempotent(self):
        t = Telemetry()
        assert t.counter("a", "x") is t.counter("a", "x")
        with pytest.raises(TypeError):
            t.timing("a", "x")  # same name, different kind

    def test_snapshot_rows_per_component(self):
        t = Telemetry()
        t.counter("window", "rows").inc(5)
        t.counter("coordinator", "cuts").inc(3)
        rows = dict(t.snapshot())
        assert rows["window"]["rows"] == 5
        assert rows["coordinator"]["cuts"] == 3

    def test_sampler_with_delta_columns(self):
        t = Telemetry()
        state = {"total": 10}
        t.register("comp", lambda now: dict(state), deltas=("total",))
        assert dict(t.snapshot())["comp"]["total"] == 10
        state["total"] = 25
        assert dict(t.snapshot())["comp"]["total"] == 15  # differenced

    def test_sampler_receives_now(self):
        t = Telemetry()
        seen = []
        t.register("comp", lambda now: seen.append(now) or {"x": 1})
        t.snapshot(60.0)
        assert seen == [60.0]

    def test_ratio_in_snapshot(self):
        t = Telemetry()
        t.ratio("server.topk", "etag_hit").mark(True)
        rows = dict(t.snapshot())
        assert rows["server.topk"]["etag_hit"] == 1.0
        assert rows["server.topk"]["etag_hit_n"] == 1

    def test_null_telemetry_is_inert(self):
        assert NULL.enabled is False
        assert NULL.counter("a", "b") is NULL_INSTRUMENT
        assert NULL.timing("a", "b") is NULL_INSTRUMENT
        assert NULL.ratio("a", "b") is NULL_INSTRUMENT
        NULL.register("a", lambda now: {})
        assert NULL.snapshot() == []

    def test_resolve_telemetry(self):
        assert resolve_telemetry(False) is NULL
        assert resolve_telemetry(None) is NULL
        assert isinstance(resolve_telemetry(True), Telemetry)
        registry = Telemetry()
        assert resolve_telemetry(registry) is registry
        assert isinstance(resolve_telemetry(NullTelemetry()), NullTelemetry)

    def test_union_columns_first_seen_order(self):
        rows = [("a", {"x": 1, "y": 2}), ("b", {"y": 3, "z": 4})]
        assert union_columns(rows) == ["x", "y", "z"]


class TestPlatformDump:
    def run(self, **kw):
        obs = Observatory(datasets=[("srvip", 8)], window_seconds=60,
                          telemetry=True, **kw)
        return cut_windows(obs, [make_txn(ts=float(i),
                                          server_ip="192.0.2.%d" % (i % 4))
                                 for i in range(120)])

    def test_platform_dump_per_window(self):
        plats = self.run()[PLATFORM_DATASET]
        assert [d.start_ts for d in plats] == [0, 60]
        components = [c for c, _ in plats[0].rows]
        assert components == ["window", "tracker.srvip"]

    def test_counters_are_per_window_deltas(self):
        first, second = self.run()[PLATFORM_DATASET]
        # 60 txns fell in each window; the cumulative totals (120)
        # must have been differenced per snapshot.
        assert dict(first.rows)["window"]["txns"] == 60
        assert dict(second.rows)["window"]["txns"] == 60
        assert dict(second.rows)["tracker.srvip"]["processed"] == 60

    def test_tracker_row_health_signals(self):
        row = dict(self.run()[PLATFORM_DATASET][1].rows)["tracker.srvip"]
        assert row["tracked"] == 4
        assert row["capacity"] == 8
        assert 0.0 < row["capture_ratio"] <= 1.0
        assert row["min_rate"] > 0.0
        assert "gate_fill" in row  # Bloom gate on by default

    def test_platform_tsv_roundtrips_through_aggregator(self, tmp_path):
        d = str(tmp_path)
        obs = Observatory(datasets=[("srvip", 8)], window_seconds=60,
                          output_dir=d, telemetry=True)
        for w in range(11):  # one complete decaminute + tail
            obs.ingest(make_txn(ts=w * 60.0))
        obs.finish()
        minutely = list_series(d, PLATFORM_DATASET, "minutely")
        assert len(minutely) == 11
        data = read_tsv(minutely[0][0])
        assert "txns" in data.columns
        TimeAggregator(d).aggregate_directory(PLATFORM_DATASET)
        deca = list_series(d, PLATFORM_DATASET, "decaminutely")
        assert [s[3] for s in deca] == [0]
        agg = read_tsv(deca[0][0])
        row = agg.row_map()["window"]
        # 10 windows of 1 txn each, averaged over present points.
        assert row["txns"] == pytest.approx(1.0)

    def test_disabled_is_default_and_inert(self):
        obs = Observatory(datasets=[("srvip", 8)], window_seconds=60)
        assert obs.telemetry is NULL
        assert obs.windows._flush_timer is NULL_INSTRUMENT
        windows = cut_windows(obs, [make_txn(ts=0.0), make_txn(ts=61.0)])
        assert PLATFORM_DATASET not in windows


class TestShardedTelemetry:
    def test_merged_platform_rows(self):
        from repro.observatory.sharded import ShardedObservatory

        obs = ShardedObservatory(shards=2,
                                 datasets=[("srvip", 16), ("qtype", 16)],
                                 window_seconds=60, telemetry=True)
        plats = cut_windows(obs, [
            make_txn(ts=float(i), server_ip="192.0.2.%d" % (i % 4),
                     resolver_ip="198.51.100.%d" % (i % 5))
            for i in range(120)])[PLATFORM_DATASET]
        assert len(plats) >= 2
        rows = dict(plats[0].rows)
        assert "coordinator" in rows
        for shard_id, dataset in enumerate(("srvip", "qtype")):
            assert "shard%d.link" % shard_id in rows
            # every worker sees every transaction
            assert rows["shard%d.window" % shard_id]["txns"] == 60
            # ... and reports the trackers it owns
            assert "shard%d.tracker.%s" % (shard_id, dataset) in rows
        assert "shard1.tracker.srvip" not in rows
        assert rows["coordinator"]["workers_alive"] == 2
        assert rows["coordinator"]["txns"] == 60

    def test_sharded_disabled_by_default(self):
        from repro.observatory.sharded import ShardedObservatory

        obs = ShardedObservatory(shards=2, datasets=[("srvip", 16)])
        assert obs.telemetry is NULL
        assert PLATFORM_DATASET not in cut_windows(obs, [make_txn(ts=0.0)])
