"""Sharded batch ingest engine: scale-out of the Figure 1 pipeline.

The paper's deployment sustains a peak of 200 k transactions/second by
running compiled code across machines (§2.1).  A single pure-Python
:class:`~repro.observatory.pipeline.Observatory` floors well below
that, so this module partitions the transaction stream by key-hash
across N worker processes, each running a full Observatory over its
shard, and merges the per-shard window state back into the exact same
:class:`~repro.observatory.tsv.TimeSeriesData` / TSV output the
single-process path produces.

Architecture::

    stream ──► ShardedObservatory (coordinator)
                 │  crc32(resolver|server) % N, batches of ~512 txns
                 ├────────► worker 0: Observatory over shard 0
                 ├────────► worker 1: Observatory over shard 1
                 │              ...
                 │  at every 60 s boundary: broadcast ("cut", ts),
                 │  collect one WindowState per shard
                 └──◄─────  absorb, cut ──► window ──► TSV

    Workers never see a transaction from the next window before the
    cut for the previous one: the coordinator detects boundaries in
    the time-ordered stream, flushes all pending batches, and only
    then dispatches newer transactions.  Every worker window is
    therefore aligned to the same global grid.

What crosses the queues is the objects themselves: a batch is a list
of :class:`~repro.observatory.transaction.Transaction`, a reply a list
of :class:`~repro.observatory.channels.WindowState`, and the queue's
feeder thread pickles each after ``put`` has returned -- so nothing is
mutated once put (the coordinator starts a new list per shard buffer,
a worker puts a copy of its state list).

A worker is an :class:`Observatory` whose window manager ships every
window's state instead of merging it; the coordinator holds the same
channel list (:mod:`repro.observatory.channels`) and the same
:class:`~repro.observatory.pipeline.WindowEmitter` a single process
does, absorbs the shards' states in shard-index order, and cuts.

Merge semantics (why the output matches the single-process path):

* **Space-Saving rank.**  Each shard ships its entries' decayed rate
  estimates evaluated at the window end, so values from caches with
  different forward-decay landmarks are directly comparable.  Rates
  of the same key add across shards (the mergeable-summaries union of
  Agarwal et al., PODS 2012); the error bounds add the same way, so
  the merged overestimate is at most the sum of the per-shard errors.
  A key hot enough for the global Top-k is hot enough for at least
  one shard's cache, so true heavy hitters are never lost.
* **Features.**  Counters, running means and histograms add exactly;
  HyperLogLog registers merge by maximum, yielding byte-identical
  registers to a single-pass sketch (cardinalities agree within the
  estimator's standard error); top-TTL counters merge with the usual
  Space-Saving overestimate.
* **Survived-one-window rule (§2.4).**  Insertion times take the
  minimum across shards before the rule is applied, matching the
  single cache's notion of "first seen".

With the partition key ``resolver|server`` every dataset's
keys are spread over all shards and recombined by the merge; datasets
keyed by the partition key itself (``srcsrv``) are trivially exact.

What *can* differ from the single-process path:

* **Capture ratios and the ``kept`` stat.**  Every shard pays its own
  first-sighting miss per key, and each shard's cache holds ``k``
  entries (``N * k`` total), so per-shard caches saturate later and
  the Bloom eviction gates fire less often than one global cache's.
  Both effects only make the sharded path track *more*, never less.
* **Deep tail under heavy saturation.**  Once per-shard caches evict,
  per-shard gate/eviction decisions are taken on disjoint stream
  subsets, so ranks far below the Top-k head may reorder.  The head
  itself is stable: a globally heavy key is heavy in some shard.
"""

import logging
import multiprocessing
import time
import zlib
from queue import Empty

from repro.detect import DetectorSet
from repro.observatory.channels import build_channels, merge_window, meta_dump
from repro.observatory.encrypted import EncryptedChannelAggregator
from repro.observatory.pipeline import (
    Observatory,
    WindowEmitter,
    feed_batches,
    resolve_datasets,
    resolve_detectors,
)
from repro.observatory.telemetry import PLATFORM_DATASET, resolve_telemetry
from repro.observatory.tracker import TopKTracker
from repro.observatory.window import align_window

logger = logging.getLogger(__name__)


def partition_srcsrv(txn):
    """The partition key: the (resolver, nameserver) pair.

    Finer than either IP alone, so hot servers do not pin a whole
    shard; the mergeable sketches recombine the split datasets.
    """
    return txn.resolver_ip + "|" + txn.server_ip


def _shard_worker(shard_id, in_q, out_q, specs, window_seconds, obs_kw):
    """Worker main loop: a full Observatory over one stream shard.

    Speaks a tiny message protocol on *in_q*:

    * ``("batch", txns)`` -- ingest a window-aligned transaction list;
    * ``("cut", ts)`` -- the global stream crossed *ts*; flush every
      window ending at or before it and ship the collected
      :class:`~repro.observatory.channels.WindowState` list back on
      *out_q*, along with this shard's telemetry snapshot rows (empty
      when telemetry is off);
    * ``("finish",)`` -- flush the partial tail window, ship the
      remaining states plus final per-dataset statistics and telemetry
      rows, and exit.
    """
    try:
        states = []
        obs = Observatory(datasets=specs, window_seconds=window_seconds,
                          **obs_kw)
        obs.windows.state_sink = states.append
        consume_batch = obs.windows.consume_batch
        telemetry = obs.telemetry
        while True:
            message = in_q.get()
            tag = message[0]
            if tag == "batch":
                consume_batch(message[1])
            elif tag == "cut":
                obs.windows.advance_to(message[1])
                out_q.put(("states", shard_id, list(states),
                           telemetry.snapshot(message[1])))
                del states[:]  # state_sink stays bound to this list
            elif tag == "finish":
                obs.windows.flush()
                stats = {
                    "total_seen": obs.total_seen,
                    "datasets": {name: obs.tracker(name).telemetry_row(None)
                                 for name in obs.datasets},
                }
                out_q.put(("final", shard_id, states,
                           telemetry.snapshot(obs.windows.window_start),
                           stats))
                return
            else:  # pragma: no cover - protocol misuse
                raise ValueError("unknown message tag %r" % (tag,))
    except Exception:  # pragma: no cover - exercised via parent raise
        import traceback
        out_q.put(("error", shard_id, traceback.format_exc()))


class ShardedObservatory:
    """Scale-out Observatory: N worker processes + sketch merging.

    Drop-in for :class:`Observatory` on the ingest side: ``ingest``,
    ``consume`` / ``consume_batch``, ``finish``, ``capture_ratios``
    (after ``finish``) all behave the same; the merged window dumps
    and TSV files match the single-process output (exactly for
    counters, within standard error for cardinalities).

    Parameters
    ----------
    shards:
        Number of worker processes.
    datasets / window_seconds / output_dir / flush_hook:
        As for :class:`Observatory`; every worker runs its trackers
        with the defaults (Bloom gate on, survived-one-window rule).
    transport:
        Only ``"pickle"``, the queue's own pickling, is accepted
        (``benchmarks/ledger/child_pass.py`` still passes it).
    telemetry:
        ``True`` (or a registry) enables platform self-telemetry on
        the coordinator *and* every worker: each cut also emits one
        merged ``_platform`` dump combining coordinator rows (queue
        depth, batches shipped, merge latency, worker liveness)
        with every shard's own rows under a ``shardN.`` key prefix.
    detectors:
        ``True`` / detector names / instances (see
        :class:`~repro.observatory.pipeline.Observatory`).  Workers
        run the detectors' mergeable window accumulators and ship
        them at every cut; the coordinator absorbs the shard states
        and runs the scorer (EWMA baselines, Bloom generations), so
        the emitted ``_detector`` series is bit-identical to a
        single-process run over the same stream.
    encrypted:
        ``True`` enables the ``_encrypted`` channel-feature dataset
        (see :class:`~repro.observatory.pipeline.Observatory`).
        Workers divert blinded DoH/DoT observations into per-shard
        integer accumulators and ship them at every cut; the
        coordinator absorbs and emits, so the ``_encrypted`` series is
        bit-identical to a single-process run.
    vantage:
        A :class:`~repro.analysis.vantage.VantageEmitter` (or None):
        every emitted window of the emitter's source dataset also
        derives ``_vantage_*`` index dumps (coordinator-side only --
        derivation is a pure function of the merged dump).
    """

    #: transactions per queue message; amortizes pickling + queue overhead
    batch_size = 512
    #: seconds to wait for any single worker reply before declaring the
    #: run dead
    timeout = 300.0

    def __init__(self, shards, datasets=("srvip",), window_seconds=60.0,
                 output_dir=None, transport="pickle", telemetry=False,
                 flush_hook=None, detectors=None, encrypted=None,
                 vantage=None):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if transport != "pickle":
            raise ValueError("unknown transport %r: the shard link is the "
                             "queue's pickling, other transports were "
                             "removed" % (transport,))
        self.shards = int(shards)
        self.window_seconds = float(window_seconds)
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        specs = resolve_datasets(datasets)
        self._dataset_order = [spec.name for spec in specs]
        self._window_start = None
        self._buffers = [[] for _ in range(self.shards)]
        #: transactions ingested so far
        self.total_seen = 0
        #: completed (merged and emitted) windows
        self.windows_completed = 0
        self._final_stats = None
        self._closed = False
        self.telemetry = resolve_telemetry(telemetry)
        self._batch_counter = self.telemetry.counter("coordinator", "batches")
        self._batch_txns = self.telemetry.counter("coordinator", "batch_txns")
        self._merge_timer = self.telemetry.timing("coordinator", "merge")
        self._gap_counter = self.telemetry.counter(
            "coordinator", "windows_skipped")
        # The coordinator's half of every channel: its trackers never
        # observe (they name the dataset and k to merge and cut by),
        # its detectors are the scorers (EWMA baselines, Bloom
        # generations) and its aggregator the merge target; workers
        # build their own observing halves from obs_kw.  No registry:
        # the "window" component of _platform belongs to processes
        # that ingest (here: the shardN.window rows).
        scorers = resolve_detectors(detectors)
        self._channels = build_channels(
            [TopKTracker(spec, use_bloom_gate=False) for spec in specs],
            scorers, EncryptedChannelAggregator() if encrypted else None,
            skip_recent_inserts=True, telemetry=resolve_telemetry(None))
        self.emitter = WindowEmitter(output_dir, flush_hook, vantage)
        obs_kw = dict(
            telemetry=self.telemetry.enabled,
            # a ready DetectorSet is the coordinator's scorer; workers
            # rebuild its members by name
            detectors=[det.name for det in detectors.detectors]
            if isinstance(detectors, DetectorSet) else detectors,
            encrypted=encrypted)
        # fork where available: cheap worker startup
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context()
        self._out_q = context.Queue()
        self._in_qs = []
        self._workers = []
        try:
            for shard_id in range(self.shards):
                in_q = context.Queue()
                worker = context.Process(
                    target=_shard_worker,
                    args=(shard_id, in_q, self._out_q, specs,
                          self.window_seconds, obs_kw),
                    daemon=True,
                    name="observatory-shard-%d" % shard_id,
                )
                worker.start()
                self._in_qs.append(in_q)
                self._workers.append(worker)
        except Exception:
            self.close()
            raise
        if self.telemetry.enabled:
            self.telemetry.register(
                "coordinator", self._telemetry_row, deltas=("txns",))
            for shard_id in range(self.shards):
                self.telemetry.register(
                    "shard%d.link" % shard_id,
                    self._make_link_sampler(shard_id))

    def _telemetry_row(self, now):
        return {
            "txns": self.total_seen,
            "windows": self.windows_completed,
            "workers_alive": sum(
                1 for worker in self._workers if worker.is_alive()),
        }

    def _make_link_sampler(self, shard_id):
        in_q = self._in_qs[shard_id]
        worker = self._workers[shard_id]

        def sample(now):
            try:
                depth = in_q.qsize()
            except NotImplementedError:  # pragma: no cover - macOS
                depth = 0
            return {"queue_depth": depth,
                    "alive": 1 if worker.is_alive() else 0}

        return sample

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def consume_batch(self, txns):
        """Route a time-ordered batch of transactions to the shards.

        Window boundaries inside the batch trigger a cut-and-merge
        barrier, exactly like the single-process path flushing
        mid-batch.  Returns the merged dumps produced.
        """
        dumps = []
        if self._closed:
            raise RuntimeError("ShardedObservatory is closed")
        window_seconds = self.window_seconds
        shards = self.shards
        partition = partition_srcsrv
        buffers = self._buffers
        batch_size = self.batch_size
        crc32 = zlib.crc32
        start = self._window_start
        end = None if start is None else start + window_seconds
        for txn in txns:
            ts = txn.ts
            if end is None:
                start = align_window(ts, window_seconds)
                end = start + window_seconds
                self._window_start = start
            elif ts >= end:
                dumps.extend(self._cut(align_window(ts, window_seconds)))
                start = self._window_start
                end = start + window_seconds
            buffer = buffers[crc32(partition(txn).encode()) % shards]
            buffer.append(txn)
            if len(buffer) >= batch_size:
                self._dispatch_all()
            self.total_seen += 1
        return dumps

    def consume(self, transactions):
        """Process an iterable of transactions; returns self."""
        feed_batches(self.consume_batch, transactions, 4096)
        return self

    def finish(self):
        """Flush the tail window, collect and merge final worker
        state, and shut the workers down.  Returns the merged dumps of
        the remaining windows (like :meth:`Observatory.finish`)."""
        if self._closed:
            return []
        replies = self._barrier(("finish",), expect="final")
        self._final_stats = {shard_id: reply[4]
                             for shard_id, reply in enumerate(replies)}
        start = self._window_start
        dumps = [] if start is None else self._merge_and_emit(
            replies, start, start + self.window_seconds)
        self.close()
        logger.info(
            "ShardedObservatory finished: %d transactions over %d windows "
            "across %d shards; capture ratios %s",
            self.total_seen, self.windows_completed, self.shards,
            {name: round(ratio, 3)
             for name, ratio in self.capture_ratios().items()})
        return dumps

    def close(self):
        """Terminate workers and release queues (idempotent).

        Order matters: first detach our queue feeder threads
        (``cancel_join_thread``) and drain pending replies so neither
        side is blocked on a full pipe, *then* terminate -- otherwise
        a feeder thread flushing into a dead worker's pipe can
        deadlock interpreter shutdown.
        """
        if self._closed:
            return
        self._closed = True
        for queue in self._in_qs + [self._out_q]:
            queue.cancel_join_thread()
        while True:
            try:
                self._out_q.get_nowait()
            except Empty:
                break
            except (OSError, ValueError):  # pragma: no cover - racing close
                break
        for worker in self._workers:
            if worker.is_alive():
                worker.terminate()
        for worker in self._workers:
            worker.join(timeout=5.0)
        for queue in self._in_qs + [self._out_q]:
            queue.close()

    # ------------------------------------------------------------------
    # Coordinator internals
    # ------------------------------------------------------------------

    def _dispatch_all(self, force=False):
        """Ship every non-empty shard buffer (all of them when a cut
        or finish needs the workers fully caught up).  A shipped buffer
        is never touched again: the queue pickles it later, in its
        feeder thread, and the shard gets a new list."""
        telemetry_on = self.telemetry.enabled
        for shard_id, buffer in enumerate(self._buffers):
            if buffer and (force or len(buffer) >= self.batch_size):
                self._in_qs[shard_id].put(("batch", buffer))
                if telemetry_on:
                    self._batch_counter.inc()
                    self._batch_txns.inc(len(buffer))
                self._buffers[shard_id] = []

    def _barrier(self, message, expect):
        """Have every worker catch up and answer *message*; returns the
        replies by shard index, whatever order they arrived in."""
        self._dispatch_all(force=True)
        for in_q in self._in_qs:
            in_q.put(message)
        replies = [None] * self.shards
        for _ in range(self.shards):
            reply = self._next_reply(expect)
            replies[reply[1]] = reply
        return replies

    def _cut(self, new_start):
        """Barrier at a window boundary: flush batches, have every
        worker advance to *new_start*, merge the returned states."""
        start = self._window_start
        replies = self._barrier(("cut", new_start), expect="states")
        self._window_start = new_start
        return self._merge_and_emit(replies, start, new_start)

    def _next_reply(self, expect):
        try:
            reply = self._out_q.get(timeout=self.timeout)
        except Empty:
            # A worker died (OOM-killed, SIGKILL) or wedged without
            # managing an "error" reply.  Tear the run down first so
            # no worker processes leak, then surface the context a
            # bare queue.Empty would have hidden.
            self.close()
            raise RuntimeError(
                "shard reply timed out after %ss waiting for %r "
                "(worker died or hung; %d shards)"
                % (self.timeout, expect, self.shards)) from None
        if reply[0] == "error":
            tb = reply[2]
            self.close()
            raise RuntimeError("shard %d failed:\n%s" % (reply[1], tb))
        if reply[0] != expect:  # pragma: no cover - protocol bug guard
            raise RuntimeError("expected %r reply, got %r" % (expect, reply[0]))
        return reply

    def _merge_and_emit(self, replies, start, now):
        """The one merge point, for the cut covering ``[start, now)``:
        every shard's windows, taken in shard-index order, are
        absorbed and cut window by window and emitted in stream order;
        then (telemetry on) one ``_platform`` dump combines the
        coordinator's snapshot with every shard's rows (re-keyed
        ``shardN.component``)."""
        telemetry = self.telemetry
        started = time.perf_counter() if telemetry.enabled else 0.0
        by_start = {}
        for reply in replies:
            for window in reply[2]:
                by_start.setdefault(window.start_ts, []).append(window)
        dumps = []
        for window_start in sorted(by_start):
            dumps += merge_window(self._channels, window_start,
                                  window_start + self.window_seconds,
                                  by_start[window_start])
        # Every window in [start, now) is part of this cut, emitted or
        # not: with the gap fast-forward (see WindowManager._catch_up)
        # workers ship at most one non-empty window per cut, so credit
        # the skipped empties here to keep windows_completed in
        # lockstep with the single-process path.
        elapsed = int(round((now - start) / self.window_seconds))
        self.windows_completed += max(elapsed, len(by_start))
        self._gap_counter.inc(max(elapsed - len(by_start), 0))
        if telemetry.enabled:
            self._merge_timer.observe(time.perf_counter() - started)
            rows = telemetry.snapshot(now)
            for shard_id, reply in enumerate(replies):
                rows.extend(("shard%d.%s" % (shard_id, component), row)
                            for component, row in reply[3])
            dumps.append(meta_dump(PLATFORM_DATASET, start, rows, 0))
        for dump in dumps:
            self.emitter(dump)
        return dumps

    # ------------------------------------------------------------------
    # Introspection (mirrors Observatory)
    # ------------------------------------------------------------------

    def capture_ratios(self):
        """Per-dataset capture ratios summed over all shards.

        Available once :meth:`finish` has collected worker statistics.
        """
        shards = self.shard_stats().values()
        ratios = {}
        for name in self._dataset_order:
            offered = sum(s["datasets"][name]["offered"] for s in shards)
            tracked = sum(s["datasets"][name]["tracked_hits"] for s in shards)
            ratios[name] = tracked / offered if offered else 0.0
        return ratios

    def shard_stats(self):
        """Raw per-shard tracker statistics (after :meth:`finish`)."""
        if self._final_stats is None:
            raise RuntimeError("shard_stats() requires finish() first")
        return dict(self._final_stats)

    def __repr__(self):
        return "ShardedObservatory(shards=%d, datasets=%r)" % (
            self.shards, self._dataset_order)
