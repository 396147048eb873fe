"""Table 4: detecting and classifying TTL changes (Section 4.2).

Paper result: 65 FQDNs with significant TTL changes over one week,
classified against DNSDB history: Non-conforming 17 (dynamic TTLs),
Renumbering 13, TTL Decrease 3, TTL Increase 1, Change NS 1,
Unknown 21.
"""

import pytest

from benchmarks.conftest import BenchRun, base_scenario, save_result
from repro.analysis.dnsdb import DnsdbStore
from repro.analysis.ttlchanges import (
    TtlChangeDetector,
    classify_events,
    render_table4,
    table4,
)
from repro.simulation.scenario import NsChange, Renumber, TtlChange

DURATION = 2400.0
EVENT_AT = 900.0


@pytest.fixture(scope="module")
def table4_run():
    from repro.simulation.buildout import build_global_dns

    params = dict(duration=DURATION, client_qps=100.0, n_slds=600,
                  popular_fqdns=800)
    # The NS-change target must receive NS queries in both epochs:
    # pick a top-ranked SLD from a deterministic probe buildout.
    probe = build_global_dns(base_scenario(**params))
    ns_target = probe.slds[1].name
    scenario = base_scenario(
        scripted_events=[
            # Renumbering with a TTL raise (the ns2.oh-isp.com case).
            Renumber(at=EVENT_AT, fqdn="www.xmsecu.com",
                     new_ips=("52.166.106.97",), new_ttl=38400),
            # Pure TTL decrease (the ns2.mtnbusiness.co.ke case).
            TtlChange(at=EVENT_AT, name="time-b.ntpsync.com", new_ttl=60),
            # Pure TTL increase (the ns2.whiteniledns.net case).
            TtlChange(at=EVENT_AT, name="ads.clickgrid.net", new_ttl=900),
            # NS + TTL change (the jia003.top case).
            NsChange(at=EVENT_AT, sld=ns_target,
                     new_ns_org="MICROSOFT", new_ttl=10),
        ],
        **params,
    )
    run = BenchRun(scenario, datasets=[("aafqdn", 2000)],
                   keep_transactions=True)
    dnsdb = DnsdbStore()
    for txn in run.transactions:
        dnsdb.observe_transaction(txn)
    return run, dnsdb


def _table4(store, dnsdb):
    detector = TtlChangeDetector()
    for window in store.iter_range("aafqdn"):
        detector.observe_dump(window)
    events = classify_events(detector.events, dnsdb)
    return table4(events)


def test_table4_ttl_change_classification(benchmark, table4_run):
    run, dnsdb = table4_run
    counts, per_fqdn = benchmark.pedantic(
        _table4, args=(run.store, dnsdb),
        rounds=2, iterations=1)
    save_result("table4_ttl_changes", render_table4(counts, per_fqdn))

    assert sum(counts.values()) >= 3
    # The dynamic-TTL domain must be flagged Non-conforming.
    non_conforming = [f for f, e in per_fqdn.items()
                      if e.category == "Non-conforming"]
    assert any("vicovoip" in f for f in non_conforming)
    # The scripted renumbering is classified as such.
    if "www.xmsecu.com" in per_fqdn:
        assert per_fqdn["www.xmsecu.com"].category == "Renumbering"
    # The pure TTL moves land in the TTL Decrease/Increase buckets.
    if "time-b.ntpsync.com" in per_fqdn:
        assert per_fqdn["time-b.ntpsync.com"].category == "TTL Decrease"
    if "ads.clickgrid.net" in per_fqdn:
        assert per_fqdn["ads.clickgrid.net"].category == "TTL Increase"
