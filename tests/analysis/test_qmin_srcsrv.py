"""Tests for aggregate-based qmin detection via the srcsrv dataset."""

from repro.analysis.qmin import detect_qmin, detect_qmin_from_srcsrv
from repro.observatory.pipeline import Observatory
from repro.observatory.store import SeriesStore, write_window
from repro.observatory.tsv import TimeSeriesData


def store_of(directory, rows):
    """A store over a tree holding one srcsrv window of *rows*."""
    write_window(str(directory),
                 TimeSeriesData("srcsrv", "minutely", 0, rows=rows))
    return SeriesStore(str(directory))


ROOT = {"192.0.2.1"}
TLD = {"192.0.2.2"}


def test_detection_from_rows(tmp_path):
    rows = [
        ("10.0.0.1|192.0.2.1", {"hits": 50, "qdots_max": 1}),   # qmin
        ("10.0.0.2|192.0.2.1", {"hits": 100, "qdots_max": 3}),  # leaks
        ("10.0.0.2|192.0.2.2", {"hits": 40, "qdots_max": 3}),
    ]
    det = detect_qmin_from_srcsrv(store_of(tmp_path, rows), ROOT, TLD)
    assert det.possible_qmin_resolvers_root() == ["10.0.0.1"]
    assert det.non_qmin_resolvers_root() == ["10.0.0.2"]
    assert det.non_qmin_resolvers_tld() == ["10.0.0.2"]
    assert det.qmin_traffic_shares()["root"] == 50 / 150


def test_whitelist_applies(tmp_path):
    rows = [("10.0.0.1|192.0.2.2", {"hits": 10, "qdots_max": 3})]
    store = store_of(tmp_path, rows)
    strict = detect_qmin_from_srcsrv(store, ROOT, TLD)
    assert strict.non_qmin_resolvers_tld() == ["10.0.0.1"]
    lenient = detect_qmin_from_srcsrv(store, ROOT, TLD,
                                      whitelisted_tld_ips=TLD)
    assert lenient.non_qmin_resolvers_tld() == []


def test_agrees_with_transaction_level_detection(tmp_path):
    """End-to-end: the srcsrv aggregate path reaches the same verdicts
    as raw-transaction inspection, for pairs the top list retained."""
    from repro.simulation import Scenario, SieChannel

    channel = SieChannel(Scenario.tiny(
        seed=61, duration=180.0, client_qps=40.0,
        qmin_resolver_fraction=0.3))
    obs = Observatory(datasets=[("srcsrv", 3000)], use_bloom_gate=False,
                      skip_recent_inserts=False, output_dir=str(tmp_path))
    transactions = []
    for txn in channel.run():
        transactions.append(txn)
        obs.ingest(txn)
    obs.finish()

    root_ips = {ns.ip for ns in channel.dns.root.nameservers}
    tld_ips = {ns.ip for tld in channel.dns.root.tlds.values()
               for ns in tld.nameservers}
    raw = detect_qmin(transactions, root_ips, tld_ips)
    agg = detect_qmin_from_srcsrv(SeriesStore(str(tmp_path)), root_ips,
                                  tld_ips)

    raw_non = set(raw.non_qmin_resolvers_root())
    agg_non = set(agg.non_qmin_resolvers_root())
    # Every resolver convicted from aggregates is convicted from raw
    # data (aggregates can only miss pairs the top-k dropped).
    assert agg_non <= raw_non
    # And the bulk of convictions survive aggregation.
    if raw_non:
        assert len(agg_non) >= 0.7 * len(raw_non)
    # Ground truth: no qmin resolver is ever convicted.
    truth_qmin = {r.ip for r in channel.resolvers if r.qmin}
    assert not (agg_non & truth_qmin)
