"""The Observatory facade: end-to-end Figure 1 pipeline.

Wires preprocessing, Top-k tracking, windowing, TSV output and time
aggregation into a single object:

>>> from repro.observatory import Observatory
>>> obs = Observatory(datasets=["srvip", "qname"])
>>> for txn in transactions:          # doctest: +SKIP
...     obs.ingest(txn)
>>> obs.finish()                      # doctest: +SKIP
>>> top = obs.tracker("srvip").top(10)

Transactions are supplied as :class:`Transaction` objects; raw packets
become one through
:func:`~repro.observatory.preprocess.summarize_transaction` first.
"""

import logging

from repro.detect import DetectorSet, build_detectors
from repro.observatory.encrypted import EncryptedChannelAggregator
from repro.observatory.keys import DATASETS, DatasetSpec, make_dataset
from repro.observatory.store import write_window
from repro.observatory.telemetry import resolve_telemetry
from repro.observatory.tracker import TopKTracker
from repro.observatory.window import WindowManager

logger = logging.getLogger(__name__)


def resolve_datasets(datasets):
    """Dataset names, ``(name, k)`` tuples or ``DatasetSpec`` instances
    -> a list of specs with distinct names."""
    specs = []
    for item in datasets:
        if isinstance(item, DatasetSpec):
            spec = item
        elif isinstance(item, (str, tuple)):
            name, *k = (item,) if isinstance(item, str) else item
            if name not in DATASETS:
                raise ValueError("unknown dataset %r" % (name,))
            spec = make_dataset(name, *k)
        else:
            raise TypeError("cannot resolve dataset from %r" % (item,))
        if any(spec.name == other.name for other in specs):
            raise ValueError("duplicate dataset %r" % spec.name)
        specs.append(spec)
    return specs


def resolve_detectors(detectors):
    """A ``detectors=`` argument -> a :class:`DetectorSet` or None."""
    if detectors is None or isinstance(detectors, DetectorSet):
        return detectors
    return build_detectors(detectors)


def feed_batches(consume_batch, transactions, batch_size):
    """Hand an iterable of transactions to *consume_batch* in lists of
    at most *batch_size* (a list goes through whole)."""
    if isinstance(transactions, list):
        consume_batch(transactions)
        return
    buffer = []
    append = buffer.append
    for txn in transactions:
        append(txn)
        if len(buffer) >= batch_size:
            consume_batch(buffer)
            buffer.clear()
    if buffer:
        consume_batch(buffer)


class WindowEmitter:
    """Where every finished window goes, single-process and sharded
    alike: with an output directory it is written there as a minutely
    TSV (with :attr:`segments`, plus its columnar sidecar) and
    announced to the flush hook, and for the vantage emitter's source
    dataset its derived ``_vantage_*`` windows follow.  Without one it
    goes nowhere: the pipeline keeps no window, and the caller has
    only what ``consume_batch`` / ``finish`` return."""

    #: write a ``.tsv.seg`` sidecar for every TSV written
    #: (:func:`build_pipeline` sets it)
    segments = False

    def __init__(self, output_dir, flush_hook, vantage):
        self.output_dir = output_dir
        self.flush_hook = flush_hook
        self.vantage = vantage
        #: sidecars asked for (a failed write is logged, not deducted)
        self.segments_built = 0

    def __call__(self, dump):
        if self.output_dir is None:
            return
        if dump.keys:
            # Zero-row dumps (a window every tracker sat out) are not
            # written: a gap must not litter the directory with
            # header-only files, and aggregation treats a missing
            # minutely file exactly like an all-zero one.
            path = write_window(self.output_dir, dump, self.segments)
            self.segments_built += self.segments
            if self.flush_hook is not None:
                self.flush_hook(path)
        if self.vantage is not None and \
                dump.dataset == self.vantage.source:
            # Derived dumps carry their own dataset names, so the
            # recursion terminates after one level.
            for derived in self.vantage.derive(dump):
                self(derived)


class Observatory:
    """Stream analytics over passive DNS transactions.

    Parameters
    ----------
    datasets:
        Dataset names from :data:`~repro.observatory.keys.DATASETS`,
        ``DatasetSpec`` instances, or ``(name, k)`` tuples to resize.
    window_seconds:
        Statistics window length (the paper dumps every 60 s).
    output_dir:
        When given, every completed window is written as a minutely
        TSV file there (step E of Figure 1): the tree the analysis
        modules and the server read through a ``SeriesStore``.
        Without one nothing is written or kept; completed windows are
        only what :meth:`consume_batch` / :meth:`finish` return.
    use_bloom_gate:
        The Section 2.2 eviction gate, see :class:`TopKTracker`.
    skip_recent_inserts:
        Enforce the survived-one-window rule (§2.4), see
        :class:`~repro.observatory.window.WindowManager`.
    telemetry:
        ``True`` (or a :class:`~repro.observatory.telemetry.Telemetry`
        registry) enables platform self-telemetry: every window also
        emits a ``_platform`` meta-dataset dump (sketch saturation,
        gate churn, flush latency) through the same sink/TSV path.
        Disabled by default at zero hot-path cost.
    flush_hook:
        Optional callable invoked with the full file path of every TSV
        window the moment it lands on disk (after the atomic
        ``os.replace``).  The live daemon uses it to reconcile the
        serving store and wake push subscribers without a directory
        re-scan; it runs on the ingest thread, so it must be cheap and
        must not raise.
    detectors:
        ``True`` (all registered detectors), a list of detector names
        or :class:`~repro.detect.Detector` instances, or a ready
        :class:`~repro.detect.DetectorSet`.  Every window boundary
        then also emits a ``_detector`` meta-dataset dump through the
        same sink/TSV path (see :mod:`repro.detect`).  Off by default.
    encrypted:
        ``True`` enables the ``_encrypted`` channel-feature dataset:
        blinded DoH/DoT observations (``source`` starting ``"!"``)
        are diverted from the trackers into an
        :class:`~repro.observatory.encrypted.
        EncryptedChannelAggregator`, and every window with encrypted
        traffic also emits an ``_encrypted`` dump through the same
        sink/TSV path.  All-plaintext streams emit nothing (zero-row
        dumps are never written), so enabling it is free until the
        first blinded record arrives.  Off by default.
    vantage:
        A :class:`~repro.analysis.vantage.VantageEmitter` (or None).
        Each flushed window of the emitter's source dataset
        (``srvip`` by default) additionally derives per-ASN and
        per-country ``_vantage_*`` index dumps through the same
        sink/TSV path.  Off by default.
    """

    def __init__(self, datasets=("srvip",), window_seconds=60.0,
                 output_dir=None, use_bloom_gate=True,
                 skip_recent_inserts=True, telemetry=False, flush_hook=None,
                 detectors=None, encrypted=None, vantage=None):
        self._trackers = {
            spec.name: TopKTracker(spec, use_bloom_gate=use_bloom_gate)
            for spec in resolve_datasets(datasets)}
        self.emitter = WindowEmitter(output_dir, flush_hook, vantage)
        self.telemetry = resolve_telemetry(telemetry)
        self.windows = WindowManager(
            self._trackers.values(), window_seconds=window_seconds,
            sink=self.emitter, skip_recent_inserts=skip_recent_inserts,
            telemetry=self.telemetry,
            detectors=resolve_detectors(detectors),
            encrypted=EncryptedChannelAggregator() if encrypted else None,
        )

    # ------------------------------------------------------------------

    def ingest(self, txn):
        """Process one summarized transaction."""
        return self.windows.observe(txn)

    def consume(self, transactions):
        """Process an iterable of transactions; returns self.

        Internally chunks the iterable (1,024 at a time) and runs the
        :meth:`WindowManager.consume_batch` fast path, which hoists
        window-boundary checks out of the per-transaction loop.
        """
        feed_batches(self.windows.consume_batch, transactions, 1024)
        return self

    def consume_batch(self, txns):
        """Process a time-ordered list of transactions (fast path)."""
        return self.windows.consume_batch(txns)

    def finish(self):
        """Flush the trailing partial window."""
        dumps = self.windows.flush()
        logger.info(
            "Observatory finished: %d transactions over %d windows; "
            "capture ratios %s",
            self.total_seen, self.windows.windows_completed,
            {name: round(ratio, 3)
             for name, ratio in self.capture_ratios().items()})
        return dumps

    # ------------------------------------------------------------------

    #: the in-process pipeline is the one-shard case
    shards = 1

    @property
    def window_seconds(self):
        return self.windows.window_seconds

    def tracker(self, name):
        """The :class:`TopKTracker` for dataset *name*."""
        return self._trackers[name]

    @property
    def total_seen(self):
        """Transactions ingested so far."""
        return self.windows.total_seen

    def capture_ratios(self):
        """Per-dataset capture ratios (the §3.1 coverage numbers)."""
        return {
            name: tracker.capture_ratio()
            for name, tracker in self._trackers.items()
        }


def build_pipeline(shards=1, segments=False, **options):
    """The ingest pipeline ``replay`` and the live daemon drive: an
    in-process :class:`Observatory` for one shard,
    :class:`~repro.observatory.sharded.ShardedObservatory` worker
    processes for more.  *options* are the constructor arguments both
    take; *segments* has the emitter write a columnar sidecar
    (:mod:`~repro.observatory.segments`) next to every TSV window it
    writes, so a cold read is a binary column scan, never a text
    re-parse."""
    if shards > 1:
        from repro.observatory.sharded import ShardedObservatory

        pipeline = ShardedObservatory(shards=shards, **options)
    else:
        pipeline = Observatory(**options)
    pipeline.emitter.segments = bool(segments)
    return pipeline
