#!/usr/bin/env python3
"""Diurnal traffic patterns and infrastructure mapping.

Two operator tasks on top of the Observatory:

1. **Capacity planning** -- user interest follows day/night cycles
   (the diurnal patterns behind the paper's hourly top lists, §4.2).
   This example compresses one "day" into the simulated run, writes
   minutely TSV files, aggregates them, and shows the peak-to-trough
   query-rate swing an authoritative operator must provision for.

2. **Address-space mapping** -- the Figure 6 view: every observed
   nameserver plotted on a Hilbert curve, exported both as ASCII and
   as a PGM image (open with any image viewer).

Run:  python examples/diurnal_capacity.py
"""

import os
import tempfile

from repro.analysis.heatmap import build_heatmap
from repro.analysis.tables import format_series
from repro.observatory import Observatory
from repro.observatory.store import SeriesStore
from repro.simulation import Scenario, SieChannel


def main():
    day = 1200.0  # one compressed "day"
    scenario = Scenario.tiny(
        seed=47, duration=day, client_qps=50.0,
        diurnal_amplitude=0.7, diurnal_period=day,
    )
    channel = SieChannel(scenario)
    tree = tempfile.TemporaryDirectory()
    obs = Observatory(datasets=[("srvip", 800)], output_dir=tree.name)
    transactions = []
    for txn in channel.run():
        transactions.append(txn)
        obs.ingest(txn)
    obs.finish()

    # --- 1. the diurnal load curve --------------------------------
    per_window = [(d.start_ts, d.stats["seen"])
                  for d in SeriesStore(tree.name).iter_range("srvip")]
    tree.cleanup()
    print(format_series(
        [("%dm" % (ts // 60), seen) for ts, seen in per_window],
        x_label="minute", y_label="transactions/min", max_points=20))
    rates = [seen for _, seen in per_window if seen]
    if rates:
        print("\npeak %d/min vs trough %d/min -> provision %.1fx the "
              "mean" % (max(rates), min(rates),
                        max(rates) / (sum(rates) / len(rates))))

    # --- 2. the Figure 6 map ---------------------------------------
    heatmap = build_heatmap(transactions, order=5)
    print("\n%d /24 prefixes in use; density histogram: %s"
          % (heatmap.populated_prefixes,
             dict(sorted(heatmap.prefix_density_histogram().items())[:4])))
    out = os.path.join(tempfile.gettempdir(), "dns_observatory_fig6.pgm")
    heatmap.to_pgm(out)
    print("Hilbert heatmap image written to %s" % out)


if __name__ == "__main__":
    main()
