"""Tests for the platform-health alert rule engine."""

import pytest

from repro.observatory.alerts import (
    DEFAULT_RULES,
    FAIL,
    Rule,
    evaluate,
    parse_rule,
    parse_rules,
    summarize,
)
from repro.observatory.channels import meta_dump


def platform_window(start_ts, rows):
    return meta_dump("_platform", start_ts, list(rows.items()), 0)


class TestParse:
    def test_basic(self):
        rule = parse_rule("capture: tracker.*.capture_ratio >= 0.5")
        assert rule.name == "capture"
        assert rule.component == "tracker.*"
        assert rule.column == "capture_ratio"
        assert rule.op == ">="
        assert rule.threshold == 0.5
        assert rule.windows == 1

    def test_for_n_windows(self):
        rule = parse_rule("lag: window.flush_ms_p95 < 100 for 3 windows")
        assert rule.windows == 3

    def test_spec_roundtrip(self):
        for text in ("a: window.flush_ms_p95 < 250",
                     "b: tracker.*.gate_fpr <= 0.05",
                     "c: shard*.alive >= 1 for 2 windows"):
            assert parse_rule(parse_rule(text).spec()).spec() == \
                parse_rule(text).spec()

    def test_rules_file_with_comments(self):
        rules = parse_rules("""
        # capture floor
        cap: tracker.*.capture_ratio >= 0.5

        fpr: tracker.*.gate_fpr <= 0.05
        """)
        assert [r.name for r in rules] == ["cap", "fpr"]

    @pytest.mark.parametrize("bad", [
        "no-colon tracker.x >= 1",
        "name: nodot >= 1",
        "name: a.b ~= 1",
        "name: a.b >= notanumber",
        "name: a.b >= 1 for x windows",
        ": a.b >= 1",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_rule(bad)

    def test_rejects_bad_windows(self):
        with pytest.raises(ValueError):
            Rule("x", "a", "b", ">=", 1, windows=0)


class TestEvaluate:
    def test_healthy(self):
        series = [platform_window(0, {
            "tracker.srvip": {"capture_ratio": 0.9},
        })]
        rule = parse_rule("cap: tracker.*.capture_ratio >= 0.5")
        (verdict,) = evaluate(series, [rule])
        assert verdict.status == "ok"
        assert verdict.value == 0.9
        assert verdict.component == "tracker.srvip"

    def test_failing(self):
        series = [platform_window(0, {
            "tracker.srvip": {"capture_ratio": 0.2},
        })]
        rule = parse_rule("cap: tracker.*.capture_ratio >= 0.5")
        (verdict,) = evaluate(series, [rule])
        assert verdict.status == FAIL
        assert verdict.window_ts == 0

    def test_wildcard_matches_every_component(self):
        series = [platform_window(0, {
            "tracker.srvip": {"capture_ratio": 0.9},
            "tracker.qname": {"capture_ratio": 0.3},
        })]
        rule = parse_rule("cap: tracker.*.capture_ratio >= 0.5")
        verdicts = evaluate(series, [rule])
        status = {v.component: v.status for v in verdicts}
        assert status == {"tracker.srvip": "ok", "tracker.qname": "fail"}

    def test_debounce_for_n_windows(self):
        rule = parse_rule("cap: tracker.*.capture_ratio >= 0.5 "
                          "for 2 windows")
        one_bad = [
            platform_window(0, {"tracker.srvip": {"capture_ratio": 0.9}}),
            platform_window(60, {"tracker.srvip": {"capture_ratio": 0.2}}),
        ]
        (verdict,) = evaluate(one_bad, [rule])
        assert verdict.status == "ok"
        assert verdict.failing_windows == 1
        two_bad = one_bad + [
            platform_window(120, {"tracker.srvip": {"capture_ratio": 0.1}}),
        ]
        (verdict,) = evaluate(two_bad, [rule])
        assert verdict.status == FAIL
        assert verdict.failing_windows == 2

    def test_recovery_resets_failure_streak(self):
        rule = parse_rule("cap: tracker.*.capture_ratio >= 0.5 "
                          "for 2 windows")
        series = [
            platform_window(0, {"tracker.srvip": {"capture_ratio": 0.1}}),
            platform_window(60, {"tracker.srvip": {"capture_ratio": 0.2}}),
            platform_window(120, {"tracker.srvip": {"capture_ratio": 0.8}}),
        ]
        (verdict,) = evaluate(series, [rule])
        assert verdict.status == "ok"

    def test_missing_column_is_not_failure(self):
        # gate columns only exist once the Bloom gate engages
        series = [platform_window(0, {
            "tracker.srvip": {"capture_ratio": 0.9},
        })]
        rule = parse_rule("fpr: tracker.*.gate_fpr <= 0.05")
        (verdict,) = evaluate(series, [rule])
        assert verdict.status == "no_data"

    def test_unmatched_component_yields_no_data(self):
        series = [platform_window(0, {"window": {"flush_ms_p95": 2.0}})]
        rule = parse_rule("live: shard*.alive >= 1")
        (verdict,) = evaluate(series, [rule])
        assert verdict.status == "no_data"
        assert verdict.component == "shard*"

    def test_uses_most_recent_window(self):
        rule = parse_rule("cap: tracker.*.capture_ratio >= 0.5")
        series = [
            platform_window(60, {"tracker.srvip": {"capture_ratio": 0.1}}),
            platform_window(0, {"tracker.srvip": {"capture_ratio": 0.9}}),
        ]
        (verdict,) = evaluate(series, [rule])
        assert verdict.status == FAIL  # ts=60 is the latest despite list order
        assert verdict.window_ts == 60

    def test_worker_liveness_failure(self):
        series = [platform_window(0, {
            "shard0.link": {"alive": 1, "queue_depth": 0},
            "shard1.link": {"alive": 0, "queue_depth": 9},
        })]
        rule = parse_rule("live: shard*.alive >= 1")
        verdicts = {v.component: v for v in evaluate(series, [rule])}
        assert verdicts["shard0.link"].status == "ok"
        assert verdicts["shard1.link"].status == FAIL


class TestSummarize:
    def test_overall_fail(self):
        # capture-floor debounces over 2 windows, so fail both
        series = [
            platform_window(ts, {
                "tracker.srvip": {"capture_ratio": 0.2},
                "window": {"flush_ms_p95": 1.0},
            })
            for ts in (0, 60)
        ]
        verdicts = evaluate(series, DEFAULT_RULES)
        summary = summarize(verdicts)
        assert summary["status"] == "fail"
        assert summary["rules_failed"] >= 1

    def test_overall_ok(self):
        series = [platform_window(0, {
            "tracker.srvip": {"capture_ratio": 0.9, "gate_fpr": 0.001},
            "window": {"flush_ms_p95": 1.0},
            "shard0.link": {"alive": 1},
        })]
        assert summarize(evaluate(series, DEFAULT_RULES))["status"] == "ok"

    def test_overall_no_data(self):
        assert summarize(evaluate([], DEFAULT_RULES))["status"] == "no_data"


def test_verdict_as_dict_is_json_ready():
    import json

    series = [platform_window(0, {"tracker.srvip": {"capture_ratio": 0.2}})]
    verdicts = evaluate(series, DEFAULT_RULES)
    blob = json.dumps([v.as_dict() for v in verdicts])
    assert "capture-floor" in blob


def test_default_rules_cover_roadmap_signals():
    columns = {(r.component, r.column) for r in DEFAULT_RULES}
    assert ("tracker.*", "capture_ratio") in columns
    assert ("tracker.*", "gate_fpr") in columns
    assert ("shard*", "alive") in columns
    assert ("window", "flush_ms_p95") in columns
