"""The measurement study: reproductions of every table and figure.

Each module computes one of the paper's results from Observatory
output -- the TSV tree a pipeline writes, read through a
:class:`~repro.observatory.store.SeriesStore` -- and renders it as a
text table or data series:

* :mod:`~repro.analysis.distributions`   -- Figure 2 (traffic CDFs);
* :mod:`~repro.analysis.asattribution`   -- Table 1 (top AS orgs);
* :mod:`~repro.analysis.qtypes`          -- Table 2 (QTYPE profiles);
* :mod:`~repro.analysis.delays`          -- Figure 3 (response delays);
* :mod:`~repro.analysis.qmin`            -- Table 3 / §3.6 (QNAME min.);
* :mod:`~repro.analysis.representativeness` -- Figures 4 and 5;
* :mod:`~repro.analysis.heatmap`         -- Figure 6 (Hilbert map);
* :mod:`~repro.analysis.ttltraffic`      -- Figures 7 and 8;
* :mod:`~repro.analysis.ttlchanges`      -- Table 4 (+ the DNSDB-like
  history store in :mod:`~repro.analysis.dnsdb`);
* :mod:`~repro.analysis.happyeyeballs`   -- Figure 9 and §5.3.

Beyond the paper's own results:

* :mod:`~repro.analysis.detectquality`   -- detector precision/recall
  vs simulator ground truth;
* :mod:`~repro.analysis.vantage`         -- per-ASN / per-country
  reachability + time-to-answer indices (the vantage-point study);
* :mod:`~repro.analysis.blindness`       -- what the pipeline stops
  seeing as encrypted DNS deploys (``report --blindness``).

Shared plumbing lives in :mod:`~repro.analysis.seriesops` (window
accumulation) and :mod:`~repro.analysis.tables` (text rendering).
"""
