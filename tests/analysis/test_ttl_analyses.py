"""Tests for the Section 4 analyses: Figures 7-8 and Table 4.

Uses a dedicated scenario with scripted infrastructure events.
"""

import pytest

from repro.analysis.dnsdb import DnsdbStore
from repro.analysis.ttlchanges import (
    TtlChangeDetector,
    classify_events,
    render_table4,
    table4,
)
from repro.analysis.ttltraffic import (
    figure7,
    figure8,
    figure8_summary,
    render_figure7,
    render_figure8,
)
from repro.observatory.pipeline import Observatory
from repro.observatory.tsv import TimeSeriesData
from repro.simulation.buildout import XMSECU_FQDN
from repro.simulation.scenario import (
    EnableIpv6,
    NsChange,
    Renumber,
    Scenario,
    TtlChange,
)
from repro.simulation.sie import SieChannel


DURATION = 2400.0
CHANGE_AT = 900.0


@pytest.fixture(scope="module")
def scripted_run():
    """A run with the Figure 7 TTL slash plus Table 4 events."""
    scenario = Scenario.tiny(
        seed=31, duration=DURATION, client_qps=40.0,
        scripted_events=[
            TtlChange(at=CHANGE_AT, name="xmsecu.com", new_ttl=10),
        ],
    )
    channel = SieChannel(scenario)
    obs = Observatory(datasets=[("esld", 800), ("aafqdn", 800)],
                      use_bloom_gate=False)
    dnsdb = DnsdbStore()
    for txn in channel.run():
        obs.ingest(txn)
        dnsdb.observe_transaction(txn)
    obs.finish()
    return channel, obs, dnsdb


class TestFigure7:
    def test_ttl_slash_amplifies_queries(self, scripted_run):
        _, obs, _ = scripted_run
        result = figure7(obs, "xmsecu.com", change_at=CHANGE_AT)
        assert result["rate_before"] > 0
        assert result["amplification"] > 2.0

    def test_series_covers_run(self, scripted_run):
        _, obs, _ = scripted_run
        result = figure7(obs, "xmsecu.com", change_at=CHANGE_AT)
        assert len(result["series"]) >= DURATION / 60 - 2

    def test_render(self, scripted_run):
        _, obs, _ = scripted_run
        out = render_figure7(figure7(obs, "xmsecu.com",
                                     change_at=CHANGE_AT), "xmsecu.com")
        assert "amplification" in out


class TestFigure8:
    def test_changes_found_and_sorted(self, scripted_run):
        _, obs, _ = scripted_run
        changes = figure8(obs, split_ts=CHANGE_AT, top_n=50)
        assert changes
        diffs = [abs(c.traffic_change) for c in changes]
        assert diffs == sorted(diffs, reverse=True)

    def test_xmsecu_is_ttl_down_traffic_up(self, scripted_run):
        _, obs, _ = scripted_run
        changes = figure8(obs, split_ts=CHANGE_AT, top_n=100)
        xm = next((c for c in changes if c.key == "xmsecu.com"), None)
        assert xm is not None
        assert xm.ttl_change < 0
        assert xm.traffic_change > 0

    def test_summary_counts_consistent(self, scripted_run):
        _, obs, _ = scripted_run
        changes = figure8(obs, split_ts=CHANGE_AT, top_n=100)
        summary = figure8_summary(changes)
        assert summary["ttl_down_traffic_up"] >= 1
        assert summary["ttl_down"] + summary["ttl_up"] <= len(changes)

    def test_render(self, scripted_run):
        _, obs, _ = scripted_run
        changes = figure8(obs, split_ts=CHANGE_AT, top_n=50)
        out = render_figure8(changes, figure8_summary(changes))
        assert "Figure 8" in out


class TestTtlChangeDetector:
    def make_dump(self, ts, fqdn, ttl, share=1.0):
        row = {"hits": 50, "ttl_top1": ttl, "ttl_top1_share": share,
               "nsttl_top1": 0, "nsttl_top1_share": 0.0}
        return TimeSeriesData("aafqdn", "minutely", ts,
                              rows=[(fqdn, row)])

    def test_detects_change(self):
        det = TtlChangeDetector()
        det.observe_dump(self.make_dump(0, "a.example.com", 600))
        det.observe_dump(self.make_dump(3600, "a.example.com", 10))
        assert len(det.events) == 1
        event = det.events[0]
        assert (event.old_ttl, event.new_ttl) == (600, 10)

    def test_ignores_stable_ttl(self):
        det = TtlChangeDetector()
        for ts in (0, 3600, 7200):
            det.observe_dump(self.make_dump(ts, "a.example.com", 300))
        assert det.events == []

    def test_low_share_ignored(self):
        det = TtlChangeDetector(min_share=0.10)
        det.observe_dump(self.make_dump(0, "a.example.com", 600))
        det.observe_dump(self.make_dump(3600, "a.example.com", 10,
                                        share=0.05))
        assert det.events == []

    def test_classification_renumbering(self):
        from repro.dnswire.constants import QTYPE

        det = TtlChangeDetector()
        det.observe_dump(self.make_dump(0, "ns2.oh-isp.com", 600))
        det.observe_dump(self.make_dump(3600, "ns2.oh-isp.com", 38400))
        db = DnsdbStore()
        db.record("ns2.oh-isp.com", QTYPE.A, ("31.222.208.197",), 600, 0.0)
        db.record("ns2.oh-isp.com", QTYPE.A, ("52.166.106.97",), 38400,
                  3600.0)
        classify_events(det.events, db)
        assert det.events[0].category == "Renumbering"

    def test_classification_non_conforming(self):
        from repro.dnswire.constants import QTYPE

        det = TtlChangeDetector()
        det.observe_dump(self.make_dump(0, "dns2.vicovoip.it", 990))
        det.observe_dump(self.make_dump(3600, "dns2.vicovoip.it", 700))
        db = DnsdbStore()
        for i, ttl in enumerate((990, 700, 500, 300, 100)):
            db.record("dns2.vicovoip.it", QTYPE.A, ("9.9.9.9",), ttl,
                      float(i))
        classify_events(det.events, db)
        assert det.events[0].category == "Non-conforming"

    def test_classification_ttl_only(self):
        from repro.dnswire.constants import QTYPE

        det = TtlChangeDetector()
        det.observe_dump(self.make_dump(0, "x.example.com", 86400))
        det.observe_dump(self.make_dump(3600, "x.example.com", 3600))
        db = DnsdbStore()
        db.record("x.example.com", QTYPE.A, ("1.1.1.1",), 86400, 0.0)
        db.record("x.example.com", QTYPE.A, ("1.1.1.1",), 3600, 3600.0)
        classify_events(det.events, db)
        assert det.events[0].category == "TTL Decrease"

    def test_classification_unknown(self):
        det = TtlChangeDetector()
        det.observe_dump(self.make_dump(0, "y.example.com", 600))
        det.observe_dump(self.make_dump(3600, "y.example.com", 300))
        classify_events(det.events, DnsdbStore())
        assert det.events[0].category == "Unknown"


class TestTable4EndToEnd:
    def test_scripted_events_classified(self):
        """Renumber + NS change + TTL-only events end-to-end."""
        scenario = Scenario.tiny(
            seed=37, duration=1800.0, client_qps=40.0,
            scripted_events=[
                Renumber(at=600.0, fqdn="www.xmsecu.com",
                         new_ips=("52.166.106.97",), new_ttl=38400),
                TtlChange(at=600.0, name="time-a.ntpsync.com",
                          new_ttl=60),
            ],
        )
        channel = SieChannel(scenario)
        obs = Observatory(datasets=[("aafqdn", 800)], use_bloom_gate=False)
        dnsdb = DnsdbStore()
        for txn in channel.run():
            obs.ingest(txn)
            dnsdb.observe_transaction(txn)
        obs.finish()
        detector = TtlChangeDetector()
        for dump in obs.dumps["aafqdn"]:
            detector.observe_dump(dump)
        events = classify_events(detector.events, dnsdb)
        counts, per_fqdn = table4(events)
        assert sum(counts.values()) >= 1
        if "www.xmsecu.com" in per_fqdn:
            assert per_fqdn["www.xmsecu.com"].category == "Renumbering"
        if "time-a.ntpsync.com" in per_fqdn:
            assert per_fqdn["time-a.ntpsync.com"].category in (
                "TTL Decrease", "Unknown")
        out = render_table4(counts, per_fqdn)
        assert "Table 4" in out
