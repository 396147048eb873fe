#!/usr/bin/env python3
"""Quickstart: simulate DNS traffic, track Top-k objects, read results.

This is the 60-second tour of the library:

1. describe a world with a :class:`~repro.simulation.Scenario`;
2. run the SIE-style channel to get a stream of resolver-to-
   authoritative transactions;
3. feed the stream into a :class:`~repro.observatory.Observatory`
   tracking several Top-k datasets, which writes every finished
   window to a TSV tree;
4. inspect the live top lists, and the per-window feature rows
   through a :class:`~repro.observatory.store.SeriesStore`.

Run:  python examples/quickstart.py
"""

import tempfile

from repro.analysis.tables import format_percent, format_table
from repro.observatory import Observatory
from repro.observatory.store import SeriesStore
from repro.simulation import Scenario, SieChannel


def main():
    # 1. A small deterministic world: ~40 qps of client traffic over
    #    3 simulated minutes, 12 resolvers, a few hundred domains.
    scenario = Scenario.tiny(seed=7)
    channel = SieChannel(scenario)

    # 2+3. Stream the cache-miss transactions into the Observatory.
    tree = tempfile.TemporaryDirectory()
    obs = Observatory(datasets=[("srvip", 500), ("qname", 1000), "qtype"],
                      output_dir=tree.name)
    for txn in channel.run():
        obs.ingest(txn)
    obs.finish()

    print("processed %d client queries -> %d upstream transactions "
          "(cache hit ratio %s)\n" % (
              channel.client_queries, obs.total_seen,
              format_percent(channel.cache_hit_ratio())))

    # 4a. The live Top-10 nameservers, straight from the SS cache.
    now = scenario.duration
    tracker = obs.tracker("srvip")
    rows = []
    for entry in tracker.top(10):
        ns = channel.dns.topology.nameservers_by_ip.get(entry.key)
        rows.append([
            entry.key,
            ns.org if ns else "?",
            entry.hits,
            "%.2f" % tracker.cache.rate(entry, now),
        ])
    print(format_table(["nameserver IP", "org", "hits", "est. rate/s"],
                       rows, title="Top-10 nameservers"))
    print()

    # 4b. Per-window feature rows, read back from the TSV tree.
    last_dump = SeriesStore(tree.name).read("qtype")[-1]
    rows = []
    for key, row in last_dump.rows[:6]:
        rows.append([key, int(row["hits"]), int(row["nxd"]),
                     "%.0f" % row["delay_q50"], row["ttl_top1"]])
    print(format_table(
        ["QTYPE", "hits", "nxd", "delay[ms]", "top TTL"], rows,
        title="QTYPE features, window @%ds" % last_dump.start_ts))
    print("\ncapture ratios:", {
        k: round(v, 3) for k, v in obs.capture_ratios().items()})
    tree.cleanup()


if __name__ == "__main__":
    main()
