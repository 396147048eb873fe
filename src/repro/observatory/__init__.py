"""DNS Observatory core: the paper's primary contribution (Section 2).

The processing pipeline mirrors Figure 1 of the paper:

A) recursive resolvers submit cache-miss traffic -- in this repo,
   produced by :mod:`repro.simulation` (the SIE substitute);
B) each query-response pair is summarized into a compact
   :class:`~repro.observatory.transaction.Transaction`
   (:mod:`~repro.observatory.preprocess` parses raw IP/UDP/DNS bytes);
C) Top-k objects are tracked per dataset with Space-Saving
   (:mod:`~repro.observatory.tracker`, key definitions in
   :mod:`~repro.observatory.keys`);
D) per-object traffic features are collected in 60-second windows
   (:mod:`~repro.observatory.features`,
   :mod:`~repro.observatory.window`);
E) time series are written to TSV files
   (:mod:`~repro.observatory.tsv`);
F) files are aggregated in time -- minutely to 10-minutely to hourly
   to daily -- with retention (:mod:`~repro.observatory.aggregate`);
G) the read path serves them back: an indexed, cached
   :class:`~repro.observatory.store.SeriesStore` with time-range /
   key / top-k query primitives, and threshold alerting over the
   ``_platform`` telemetry series (:mod:`~repro.observatory.alerts`)
   -- the foundation of the :mod:`repro.server` HTTP API.

The :class:`~repro.observatory.pipeline.Observatory` facade wires all
of this together; :class:`~repro.observatory.sharded.ShardedObservatory`
scales the same pipeline across worker processes, each owning whole
channels (a dataset, the detectors, ``_encrypted``).
"""

from repro.observatory.features import FeatureSet
from repro.observatory.keys import DATASETS, DatasetSpec
from repro.observatory.pipeline import Observatory
from repro.observatory.sharded import ShardedObservatory
from repro.observatory.store import SeriesStore
from repro.observatory.tracker import TopKTracker
from repro.observatory.transaction import Transaction
from repro.observatory.window import WindowManager

__all__ = [
    "FeatureSet",
    "DATASETS",
    "DatasetSpec",
    "Observatory",
    "SeriesStore",
    "ShardedObservatory",
    "TopKTracker",
    "Transaction",
    "WindowManager",
]
