"""Unit tests for analysis modules on hand-built rows (no simulation)."""

import pytest

from repro.analysis.asattribution import OrgRow, table1, top_share
from repro.analysis.delays import (
    DELAY_SECTIONS,
    LetterStats,
    delay_cdf,
    hierarchy_shares,
    letter_stats,
    popularity_speed_correlation,
    rank_vs_delay,
)
from repro.analysis.distributions import TrafficDistribution
from repro.analysis.qtypes import QtypeRow
from repro.netsim.asdb import AsDatabase
from repro.netsim.asnames import AsNameRegistry
from repro.observatory.tsv import TimeSeriesData


def dump(rows, dataset="srvip", start=0, seen=0):
    return TimeSeriesData(
        dataset, "minutely", start, rows=rows,
        stats={"seen": seen or sum(r.get("hits", 0) for _, r in rows),
               "kept": 0})


class FakeObs:
    def __init__(self, dumps_map):
        self.dumps = dumps_map


class TestTrafficDistribution:
    def make(self):
        rows = {
            "big": {"hits": 70, "nxd": 30, "ok": 35, "ok_nil": 5},
            "mid": {"hits": 25, "nxd": 0, "ok": 25, "ok_nil": 0},
            "tail": {"hits": 5, "nxd": 5, "ok": 0, "ok_nil": 0},
        }
        return TrafficDistribution(rows, {"seen": 200, "kept": 100})

    def test_ranking(self):
        dist = self.make()
        assert dist.keys == ["big", "mid", "tail"]

    def test_share_of_top(self):
        dist = self.make()
        assert dist.share_of_top(1) == pytest.approx(0.70)
        assert dist.share_of_top(3) == pytest.approx(1.0)
        assert dist.share_of_top(99) == pytest.approx(1.0)

    def test_category_cdf_independent(self):
        dist = self.make()
        nxd = dist.cdf("nxdomain")
        assert nxd[0] == pytest.approx(30 / 35)
        assert nxd[-1] == pytest.approx(1.0)
        nodata = dist.cdf("nodata")
        assert nodata[0] == pytest.approx(1.0)  # only "big" has NoData

    def test_objects_for_share(self):
        dist = self.make()
        assert dist.objects_for_share(0.5) == 1
        assert dist.objects_for_share(0.95) == 2  # 70+25 hits exactly
        assert dist.objects_for_share(0.96) == 3

    def test_capture_ratio(self):
        dist = self.make()
        assert dist.capture_ratio() == pytest.approx(100 / 200)
        no_stats = TrafficDistribution({"a": {"hits": 1}})
        assert no_stats.capture_ratio() is None

    def test_category_share(self):
        dist = self.make()
        assert dist.category_share("nxdomain") == pytest.approx(0.35)

    def test_empty_distribution(self):
        dist = TrafficDistribution({})
        assert dist.keys == []
        assert dist.share_of_top(5) == 0.0
        assert dist.cdf("all") == []


class TestTable1Units:
    def make_world(self):
        asdb = AsDatabase()
        names = AsNameRegistry()
        asdb.add_prefix("10.0.0.0/8", 100)
        asdb.add_prefix("20.0.0.0/8", 200)
        names.add(100, "BIGCDN-1 - Big CDN")
        names.add(200, "SMALLHOST-1 - Small Host")
        rows = [
            ("10.0.0.1", {"hits": 80, "delay_q50": 10.0, "hops_q50": 5.0}),
            ("10.0.0.2", {"hits": 20, "delay_q50": 20.0, "hops_q50": 6.0}),
            ("20.0.0.1", {"hits": 50, "delay_q50": 100.0, "hops_q50": 14.0}),
            ("172.16.0.1", {"hits": 10, "delay_q50": 1.0, "hops_q50": 1.0}),
        ]
        obs = FakeObs({"srvip": [dump(rows)]})
        return obs, asdb, names

    def test_grouping_and_ranking(self):
        obs, asdb, names = self.make_world()
        ranked, total, attributed = table1(obs, asdb, names)
        assert total == 160
        assert attributed == 160  # unrouted IP still counted (UNKNOWN)
        assert ranked[0].org == "BIGCDN"
        assert ranked[0].hits == 100
        assert ranked[0].servers == 2

    def test_weighted_delay(self):
        obs, asdb, names = self.make_world()
        ranked, _, _ = table1(obs, asdb, names)
        bigcdn = ranked[0]
        # (10*80 + 20*20) / 100 = 12.
        assert bigcdn.mean_delay == pytest.approx(12.0)

    def test_unknown_org_for_unrouted(self):
        obs, asdb, names = self.make_world()
        ranked, _, _ = table1(obs, asdb, names, top_orgs=10)
        assert any(r.org == "UNKNOWN" for r in ranked)

    def test_top_share(self):
        obs, asdb, names = self.make_world()
        ranked, total, _ = table1(obs, asdb, names, top_orgs=1)
        assert top_share(ranked, total) == pytest.approx(100 / 160)
        assert top_share(ranked, 0) == 0.0

    def test_org_row_empty(self):
        row = OrgRow("X")
        assert row.mean_delay == 0.0
        assert row.mean_hops == 0.0


class TestQtypeRowUnits:
    def test_outcome_shares(self):
        row = {"hits": 100, "unans": 5, "ok": 60, "ok_nil": 10,
               "nxd": 25, "qnames": 40.0, "qnamesa": 50.0,
               "ttl_top1": 300}
        q = QtypeRow("A", row, total=1000)
        assert q.global_share == pytest.approx(0.1)
        assert q.data == pytest.approx(0.50)
        assert q.nodata == pytest.approx(0.10)
        assert q.nxd == pytest.approx(0.25)
        # err = everything else incl. unanswered: 100-60-25 = 15%.
        assert q.err == pytest.approx(0.15)
        assert q.valid == pytest.approx(0.8)
        assert q.ttl == 300

    def test_valid_clamped(self):
        row = {"hits": 10, "ok": 10, "qnames": 12.0, "qnamesa": 10.0}
        assert QtypeRow("A", row, 10).valid == 1.0

    def test_empty_row(self):
        q = QtypeRow("A", {}, total=0)
        assert q.global_share == 0.0
        assert q.valid == 0.0


class TestDelayUnits:
    def make_obs(self):
        rows = [
            ("ns1", {"hits": 100, "unans": 0, "delay_q25": 1.0,
                     "delay_q50": 2.0, "delay_q75": 3.0,
                     "hops_q50": 2.0, "nxd": 90}),
            ("ns2", {"hits": 50, "unans": 0, "delay_q25": 10.0,
                     "delay_q50": 20.0, "delay_q75": 30.0,
                     "hops_q50": 7.0, "nxd": 5}),
            ("ns3", {"hits": 10, "unans": 0, "delay_q25": 100.0,
                     "delay_q50": 200.0, "delay_q75": 300.0,
                     "hops_q50": 15.0, "nxd": 0}),
            ("ns4", {"hits": 5, "unans": 0, "delay_q25": 300.0,
                     "delay_q50": 400.0, "delay_q75": 500.0,
                     "hops_q50": 20.0, "nxd": 0}),
        ]
        return FakeObs({"srvip": [dump(rows)]})

    def test_delay_cdf_sections(self):
        delays, shares = delay_cdf(self.make_obs())
        assert delays == [2.0, 20.0, 200.0, 400.0]
        assert shares == [0.25, 0.25, 0.25, 0.25]
        assert len(DELAY_SECTIONS) == 4

    def test_rank_vs_delay_groups(self):
        groups = rank_vs_delay(self.make_obs(), group_size=2)
        assert len(groups) == 2
        assert groups[0][0] == 1 and groups[1][0] == 3
        assert groups[0][1] == pytest.approx(11.0)   # (2+20)/2
        assert groups[1][1] == pytest.approx(300.0)  # (200+400)/2

    def test_popularity_correlation(self):
        groups = [(1, 10.0, 2.0), (101, 20.0, 3.0), (201, 30.0, 4.0)]
        assert popularity_speed_correlation(groups) == 1.0
        assert popularity_speed_correlation([(1, 1.0, 1.0)]) == 0.5

    def test_letter_stats_and_shares(self):
        obs = self.make_obs()
        stats = letter_stats(obs, {"a": "ns1", "b": "ns2", "z": "gone"})
        assert [s.letter for s in stats] == ["a", "b"]
        assert stats[0].nxd_share == pytest.approx(0.9)
        shares = hierarchy_shares(obs, {"a": "ns1"})
        assert shares["share"] == pytest.approx(100 / 165)
        assert shares["nxd_share"] == pytest.approx(0.9)

    def test_letterstats_requires_no_letters(self):
        assert letter_stats(self.make_obs(), {}) == []
