#!/usr/bin/env python3
"""Monitor DNS infrastructure changes through TTL dynamics (Section 4).

Operators lower TTLs before migrations and raise them afterwards.
This example scripts three real-world-style events into the simulated
DNS -- a TTL slash, a renumbering into a cloud provider, and an NS
provider switch -- and shows the Observatory detecting and classifying
each one from the aggregated aafqdn dataset plus the DNSDB-like
history store.

Run:  python examples/ttl_change_monitoring.py
"""

import tempfile

from repro.analysis.dnsdb import DnsdbStore
from repro.analysis.ttlchanges import (
    TtlChangeDetector,
    classify_events,
    render_table4,
    table4,
)
from repro.analysis.ttltraffic import figure7, render_figure7
from repro.observatory import Observatory
from repro.observatory.store import SeriesStore
from repro.simulation import Scenario, SieChannel
from repro.simulation.scenario import NsChange, Renumber, TtlChange


def main():
    change_at = 900.0
    scenario = Scenario.tiny(
        seed=23, duration=2400.0, client_qps=50.0,
        scripted_events=[
            # An IoT vendor slashes its TTL (the xmsecu.com case).
            TtlChange(at=change_at, name="xmsecu.com", new_ttl=10),
            # A popular host moves into a cloud, TTL raised afterwards.
            Renumber(at=change_at, fqdn="blogs.webjournal.net",
                     new_ips=("52.166.106.97",), new_ttl=38400),
            # A domain switches DNS providers.
            NsChange(at=change_at, sld="clickgrid.net",
                     new_ns_org="MICROSOFT", new_ttl=10),
        ],
    )
    channel = SieChannel(scenario)
    tree = tempfile.TemporaryDirectory()
    obs = Observatory(datasets=[("esld", 800), ("aafqdn", 1200)],
                      output_dir=tree.name)
    dnsdb = DnsdbStore()
    for txn in channel.run():
        obs.ingest(txn)
        dnsdb.observe_transaction(txn)
    obs.finish()
    store = SeriesStore(tree.name)

    # --- the Figure 7 view: TTL slash drives query volume ----------
    result = figure7(store, "xmsecu.com", change_at=change_at)
    print(render_figure7(result, "xmsecu.com"))
    print()

    # --- the Table 4 view: detect + classify all changes ------------
    detector = TtlChangeDetector()
    for window in store.iter_range("aafqdn"):
        detector.observe_dump(window)
    tree.cleanup()
    events = classify_events(detector.events, dnsdb)
    counts, per_fqdn = table4(events)
    print(render_table4(counts, per_fqdn))

    print("\nDetected events:")
    for fqdn, event in sorted(per_fqdn.items()):
        print("  %-28s %-14s TTL %s -> %s  %s" % (
            fqdn, event.category, event.old_ttl, event.new_ttl,
            event.comment))


if __name__ == "__main__":
    main()
