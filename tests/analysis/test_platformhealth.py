"""Tests for the platform-health renderer (report --platform)."""

from repro.analysis.platformhealth import (
    component_series,
    latest_rows,
    platform_health,
    render_platform_health,
)
from repro.observatory.alerts import parse_rules
from repro.observatory.pipeline import Observatory
from repro.observatory.store import SeriesStore
from repro.observatory.channels import meta_dump
from tests.util import make_txn


def platform_window(ts, rows):
    return meta_dump("_platform", ts, list(rows.items()), 0)


def sample_series():
    return [
        platform_window(0, {
            "tracker.srvip": {"capture_ratio": 0.95, "tracked": 40},
            "window": {"flush_ms_p95": 1.5, "txns": 100},
        }),
        platform_window(60, {
            "tracker.srvip": {"capture_ratio": 0.85, "tracked": 42},
            "window": {"flush_ms_p95": 2.5, "txns": 120},
        }),
    ]


def test_latest_rows_takes_newest_window():
    latest = latest_rows(sample_series())
    assert latest["tracker.srvip"][0] == 60
    assert latest["tracker.srvip"][1]["capture_ratio"] == 0.85


def test_component_series_wildcard_average():
    series = [platform_window(0, {
        "tracker.a": {"capture_ratio": 1.0},
        "tracker.b": {"capture_ratio": 0.5},
    })]
    assert component_series(series, "tracker.*", "capture_ratio") == \
        [(0, 0.75)]


def test_component_series_exact():
    assert component_series(sample_series(), "window", "flush_ms_p95") \
        == [(0, 1.5), (60, 2.5)]


def test_platform_health_from_dump_list():
    series, verdicts, summary = platform_health(sample_series())
    assert len(series) == 2
    assert summary["status"] in ("ok", "fail")
    text = render_platform_health(series, verdicts, summary)
    assert "Platform health:" in text
    assert "tracker.srvip" in text
    assert "Alert verdicts" in text
    assert "Trend: tracker.*.capture_ratio" in text


def test_platform_health_from_store(tmp_path):
    obs = Observatory(datasets=[("srvip", 64)], output_dir=str(tmp_path),
                      use_bloom_gate=False, skip_recent_inserts=False,
                      telemetry=True)
    for i in range(400):
        obs.ingest(make_txn(ts=i * 0.5,
                            server_ip="192.0.2.%d" % (1 + i % 3)))
    obs.finish()
    store = SeriesStore(str(tmp_path))
    series, verdicts, summary = platform_health(store.read("_platform"))
    assert series, "telemetry replay should emit _platform windows"
    assert any(v.component.startswith("tracker.") for v in verdicts)


def test_failing_rule_renders_fail():
    rules = parse_rules("floor: tracker.*.capture_ratio >= 0.99")
    series, verdicts, summary = platform_health(sample_series(),
                                                rules=rules)
    assert summary["status"] == "fail"
    text = render_platform_health(series, verdicts, summary)
    assert text.startswith("Platform health: FAIL")
    assert "FAIL" in text


def test_empty_series_renders_hint():
    series, verdicts, summary = platform_health([])
    text = render_platform_health(series, verdicts, summary)
    assert "No _platform series" in text
    assert summary["status"] == "no_data"


def test_windows_limit():
    series = [platform_window(ts, {"window": {"txns": ts}})
              for ts in range(0, 600, 60)]
    kept, _, _ = platform_health(series, windows=3)
    assert [d.start_ts for d in kept] == [420, 480, 540]
