#!/usr/bin/env python3
"""Detect DGA botnet activity from the Observatory's aggregates.

The paper's Section 3.2 traces an NXDOMAIN surge at the gTLD servers
to the Mylobot botnet: millions of FQDNs under thousands of fake .com
SLDs.  This example shows how a platform operator would spot the same
signature from the aggregated data alone:

* the rcode dataset shows an elevated global NXDOMAIN share;
* the srvip rows of the gTLD servers show the NXD concentration at
  the top of the hierarchy ("the DNS's first line of defence");
* the per-eTLD NXD traffic has huge *distinct-qname* cardinality but
  tiny *valid-name* counts -- machine-generated names, not typos.

Run:  python examples/botnet_detection.py
"""

import tempfile

from repro.analysis.seriesops import total_hits
from repro.analysis.tables import format_percent, format_table
from repro.observatory import Observatory
from repro.observatory.store import SeriesStore
from repro.simulation import Scenario, SieChannel


def main():
    # A world with a strong DGA botnet (20% of client events).
    scenario = Scenario.tiny(seed=13, duration=300.0, client_qps=80.0,
                             botnet_share=0.20)
    channel = SieChannel(scenario)
    tree = tempfile.TemporaryDirectory()
    obs = Observatory(datasets=[("srvip", 800), ("etld", 300), "rcode"],
                      output_dir=tree.name)
    obs.consume(channel.run())
    obs.finish()
    store = SeriesStore(tree.name)

    # --- signal 1: global RCODE mix -------------------------------
    rcode_rows = store.accumulate("rcode")
    total = total_hits(rcode_rows)
    print(format_table(
        ["RCODE", "share"],
        [(key, format_percent(row["hits"] / total))
         for key, row in sorted(rcode_rows.items(),
                                key=lambda kv: -kv[1]["hits"])],
        title="Global RCODE mix"))
    print()

    # --- signal 2: NXD concentration at the gTLD servers ----------
    gtld_ips = {ns.ip for ns in channel.dns.root.tlds["com"].nameservers}
    srvip_rows = store.accumulate("srvip")
    gtld_hits = sum(r["hits"] for ip, r in srvip_rows.items()
                    if ip in gtld_ips)
    gtld_nxd = sum(r["nxd"] for ip, r in srvip_rows.items()
                   if ip in gtld_ips)
    print("gTLD servers: %s of tracked traffic, %s NXDOMAIN"
          % (format_percent(gtld_hits / total_hits(srvip_rows)),
             format_percent(gtld_nxd / max(gtld_hits, 1))))
    print()

    # --- signal 3: DGA cardinality signature per eTLD --------------
    etld_rows = store.accumulate("etld")
    rows = []
    for etld, row in sorted(etld_rows.items(),
                            key=lambda kv: -kv[1]["nxd"])[:5]:
        hits = row["hits"]
        # qnamesa counts all names seen, qnames only resolving ones:
        # a DGA leaves a gulf between the two.
        rows.append([
            etld, int(hits),
            format_percent(row["nxd"] / max(hits, 1)),
            int(row["qnamesa"]), int(row["qnames"]),
        ])
    print(format_table(
        ["eTLD", "hits", "NXD", "names seen", "names valid"], rows,
        title="eTLDs ranked by NXDOMAIN volume (DGA signature)"))

    worst = rows[0]
    if worst[4] < worst[3] * 0.5:
        print("\n=> %s shows a DGA signature: %s of its names never "
              "resolve." % (worst[0],
                            format_percent(1 - worst[4] / worst[3])))


if __name__ == "__main__":
    main()
