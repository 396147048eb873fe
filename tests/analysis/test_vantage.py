"""Property fuzz of the vantage indices and the blindness gate.

Hostile-topology coverage: empty ASN lists, single-resolver
countries, zero-answer windows, duplicate country codes, and
registry-grade free text in country/org fields.  The contract under
fuzz: no crashes, every index stays in ``[0, 1]``, and every
round-trip (db TSV, series TSV) is lossless.
"""

import math
import os
import tempfile
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.blindness import (
    DatasetSummary, capture_ratios, evaluate_blindness, row_weight)
from repro.analysis.vantage import (
    UNROUTED_ASN_KEY, UNROUTED_CC_KEY, VANTAGE_ASN_DATASET,
    VANTAGE_CC_DATASET, VantageDb, VantageEmitter, reachability_score,
    time_to_answer_index)
from repro.observatory.tsv import TimeSeriesData, read_tsv, write_tsv

#: registry-grade hostile text: TSV separators, escapes, comments,
#: control chars, non-ASCII
_HOSTILE_ALPHABET = list("ab\\\t\n\r# .") + ["é", "☃", "名", "\x1f"]

hostile_text = st.lists(
    st.sampled_from(_HOSTILE_ALPHABET), min_size=0, max_size=8,
).map("".join)

finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e9, max_value=1e9)


class TestIndices:
    @given(hits=finite, unans=finite)
    @settings(max_examples=200, deadline=None)
    def test_reachability_bounded(self, hits, unans):
        score = reachability_score(hits, unans)
        assert 0.0 <= score <= 1.0

    @given(delay=st.one_of(
        st.floats(min_value=-1e12, max_value=1e12),
        st.just(float("nan"))))
    @settings(max_examples=200, deadline=None)
    def test_tta_bounded(self, delay):
        index = time_to_answer_index(delay)
        assert 0.0 <= index <= 1.0

    def test_index_anchors(self):
        assert reachability_score(0, 0) == 0.0
        assert reachability_score(10, 0) == 1.0
        assert reachability_score(10, 10) == 0.0
        assert time_to_answer_index(0.0) == 1.0
        assert time_to_answer_index(100.0) == 0.5
        assert time_to_answer_index(float("inf")) == 0.0
        assert time_to_answer_index(float("nan")) == 1.0


# one org entry: (asn, country, org); prefixes assigned positionally
org_entries = st.lists(
    st.tuples(st.integers(min_value=1, max_value=70000),
              hostile_text, hostile_text),
    min_size=0, max_size=5)


class TestVantageDb:
    @given(orgs=st.lists(org_entries, min_size=0, max_size=4),
           dup_cc=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_from_hostile_topology(self, orgs, dup_cc):
        """Topologies with empty orgs (no ASNs) and duplicated
        country codes build without crashing and stay consistent."""
        topo_orgs = {}
        countries = {}
        for i, entries in enumerate(orgs):
            name = "org%d" % i
            asns = [asn for asn, _, _ in entries]
            topo_orgs[name] = SimpleNamespace(
                name=name, asns=asns,
                prefixes=["10.%d.%d.0/24" % (i, j)
                          for j in range(len(asns))],
                v6_prefixes=["2001:db8:%x:%x::/64" % (i, j)
                             for j in range(len(asns))])
            for asn, country, _org in entries:
                countries[asn] = "ZZ" if dup_cc else country
        topology = SimpleNamespace(orgs=topo_orgs, countries=countries)
        db = VantageDb.from_topology(topology)
        for i, entries in enumerate(orgs):
            for j, (asn, _, _) in enumerate(entries):
                got_asn, got_cc, got_org = db.lookup(
                    "10.%d.%d.1" % (i, j))
                assert got_asn == asn
                assert got_cc == countries[asn]
        assert db.lookup("203.0.113.1") == (None, None, None)

    @given(entries=st.lists(
        st.tuples(st.integers(min_value=0, max_value=255),
                  st.integers(min_value=1, max_value=2 ** 31),
                  hostile_text, hostile_text),
        min_size=0, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_tsv_roundtrip(self, entries):
        """Hostile country/org text survives the db snapshot."""
        db = VantageDb()
        for octet, asn, country, org in entries:
            db.add("10.0.%d.0/24" % octet, asn, country, org)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "vantage.tsv")
            db.to_tsv(path)
            back = VantageDb.from_tsv(path)
        assert back._prefixes == db._prefixes
        assert back._info == db._info

    def test_from_tsv_rejects_malformed(self, tmp_path):
        import pytest

        path = tmp_path / "bad.tsv"
        path.write_text("10.0.0.0/24\t64500\tUS\n", encoding="utf-8")
        with pytest.raises(ValueError):
            VantageDb.from_tsv(str(path))


def _one_server_db():
    """One ASN per country -- the single-resolver-country edge."""
    db = VantageDb()
    db.add("10.0.0.0/24", 64500, "AA", "solo-a")
    db.add("10.0.1.0/24", 64501, "BB", "solo-b")
    return db


server_rows = st.lists(
    st.tuples(
        st.sampled_from(["10.0.0.1", "10.0.0.2", "10.0.1.9",
                         "198.51.100.7"]),  # last one is unrouted
        st.floats(min_value=0, max_value=1e6, allow_nan=False,
                  allow_infinity=False),
        st.floats(min_value=-10, max_value=1e6, allow_nan=False,
                  allow_infinity=False),
        st.floats(min_value=-50, max_value=1e5, allow_nan=False,
                  allow_infinity=False)),
    min_size=0, max_size=12, unique_by=lambda r: r[0])


class TestDerive:
    @given(rows=server_rows)
    @settings(max_examples=80, deadline=None)
    def test_derive_no_crash_and_bounded(self, rows):
        emitter = VantageEmitter(_one_server_db())
        dump = TimeSeriesData(
            "srvip", "minutely", 60.0,
            rows=[(ip, {"hits": h, "unans": u, "delay_q50": d})
                           for ip, h, u, d in rows],
            stats={"seen": len(rows), "kept": len(rows)})
        derived = emitter.derive(dump)
        if not rows:
            assert derived == []
            return
        assert [d.dataset for d in derived] == [VANTAGE_ASN_DATASET,
                                                VANTAGE_CC_DATASET]
        for d in derived:
            keys = [key for key, _ in d.rows]
            assert keys == sorted(keys)
            assert d.stats == {"seen": len(rows), "kept": len(d.rows)}
            for _key, row in d.rows:
                assert 0.0 <= row["reach"] <= 1.0
                assert 0.0 <= row["tta"] <= 1.0
                assert row["servers"] >= 1
                assert not math.isnan(row["delay_ms"])
        # every group's server count sums back to the input rows
        asn_dump, cc_dump = derived
        assert sum(r["servers"] for _, r in asn_dump.rows) == len(rows)
        assert sum(r["servers"] for _, r in cc_dump.rows) == len(rows)

    @given(rows=server_rows)
    @settings(max_examples=40, deadline=None)
    def test_derived_dump_tsv_roundtrip(self, rows):
        """Derived windows survive the series TSV writer byte-wise:
        keys, columns, stats, and quantized values all round-trip."""
        emitter = VantageEmitter(_one_server_db())
        dump = TimeSeriesData(
            "srvip", "minutely", 120.0,
            rows=[(ip, {"hits": h, "unans": u, "delay_q50": d})
                           for ip, h, u, d in rows],
            stats={"seen": len(rows), "kept": len(rows)})
        for derived in emitter.derive(dump):
            with tempfile.TemporaryDirectory() as tmp:
                path = write_tsv(tmp, derived.to_timeseries())
                back = read_tsv(path)
            assert back.dataset == derived.dataset
            assert [k for k, _ in back.rows] == \
                [k for k, _ in derived.rows]
            # a window's cells are its file's values, so the TSV
            # round-trip is exact, not approximate
            assert back.rows == derived.rows
            assert back.stats == derived.stats

    def test_zero_answer_window(self):
        """All-unanswered windows: reach 0, no division blowups."""
        emitter = VantageEmitter(_one_server_db())
        dump = TimeSeriesData(
            "srvip", "minutely", 0.0,
            rows=[("10.0.0.1", {"hits": 5.0, "unans": 5.0,
                                         "delay_q50": 0.0})],
            stats={"seen": 5, "kept": 1})
        asn_dump, cc_dump = emitter.derive(dump)
        assert asn_dump.rows[0][0] == "AS64500"
        assert asn_dump.rows[0][1]["reach"] == 0.0
        assert cc_dump.rows[0][1]["reach"] == 0.0

    def test_unrouted_falls_back_to_sentinel_groups(self):
        emitter = VantageEmitter(_one_server_db())
        dump = TimeSeriesData(
            "srvip", "minutely", 0.0,
            rows=[("198.51.100.7", {"hits": 1.0, "unans": 0.0,
                                             "delay_q50": 10.0})],
            stats={"seen": 1, "kept": 1})
        asn_dump, cc_dump = emitter.derive(dump)
        assert asn_dump.rows[0][0] == UNROUTED_ASN_KEY
        assert cc_dump.rows[0][0] == UNROUTED_CC_KEY


def _summary(dataset, weight, seen=0):
    s = DatasetSummary(dataset)
    s.windows = 1
    s.rows = 1
    s.weight = float(weight)
    s.seen = seen
    return s


weights = st.floats(min_value=0, max_value=1e9, allow_nan=False,
                    allow_infinity=False)


class TestBlindnessFuzz:
    @given(row=st.dictionaries(
        st.sampled_from(["hits", "queries", "count", "other"]),
        st.floats(allow_nan=False, allow_infinity=False,
                  min_value=-1e6, max_value=1e6),
        max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_row_weight_total(self, row):
        w = row_weight(row)
        assert not math.isnan(w)
        for column in ("hits", "queries", "count"):
            if column in row:
                assert w == float(row[column])
                break
        else:
            assert w == 1.0

    @given(base=weights, others=st.lists(weights, min_size=1,
                                         max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_capture_ratios_defined_everywhere(self, base, others):
        baseline = {"qname": _summary("qname", base)}
        for i, w in enumerate(others):
            ratios = capture_ratios(
                baseline, {"qname": _summary("qname", w)})
            assert not math.isnan(ratios["qname"])
            if base == 0:
                assert ratios["qname"] == 1.0

    @given(series=st.lists(weights, min_size=2, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_monotone_gate_matches_ordering(self, series):
        """The gate flags exactly the non-monotone content sweeps."""
        summaries = [
            ("dir%d" % i, {"qname": _summary("qname", w)})
            for i, w in enumerate(series)
        ]
        violations = evaluate_blindness(summaries)
        sorted_down = all(b <= a * (1 + 1e-9) + 1e-9
                          for a, b in zip(series, series[1:]))
        if sorted_down:
            assert violations == []
        else:
            assert violations
