"""Sharded ingest: the Figure 1 pipeline's channels spread over processes.

The paper's deployment sustains a peak of 200 k transactions/second by
running compiled code across machines (§2.1).  Its Figure 1 gives
every dataset its own Space-Saving cache and its own 60 s dump, and
datasets share no state.  So the unit of sharding here is the
*channel* (:mod:`repro.observatory.channels`): one dataset's tracker,
the ``_detector`` set or the ``_encrypted`` aggregator.

Architecture::

    stream ──► ShardedObservatory (coordinator)
                 │  batches of 512 txns, pickled once; the same bytes
                 │  go to every worker
                 ├────────► worker 0: WindowManager over channels 0, W, 2W, ...
                 ├────────► worker 1: WindowManager over channels 1, W+1, ...
                 │              ...
                 │  at every window boundary: ("cut", ts) to every
                 │  worker, which replies with the windows it cut
                 └──◄─────  emit in (window start, channel index) order
                            ──► WindowEmitter ──► TSV

There are ``W = min(shards, channels)`` workers, and channel *i* in
emit order belongs to worker ``i % W``.  Every worker sees every
transaction and runs the ordinary
:class:`~repro.observatory.window.WindowManager` over its own
channels, so each window is cut by the one process that holds its
channel's whole state.  Nothing merges, and a sharded tree is the
single-process tree byte for byte, ``#stats`` trailers and capture
ratios included.  A worker that does not own ``_encrypted`` still
counts blinded records in ``seen`` and keeps them from its trackers
and detectors, as the single process does.

Workers never see a transaction from the next window before the cut
for the previous one: the coordinator detects boundaries in the
time-ordered stream, ships all pending batches, and only then
dispatches newer transactions.  The flush hook, the vantage indices
and ``_platform`` stay in the coordinator.

The speed-up is bounded by the most expensive worker: each one pays
for decoding every batch plus its own channels (``srvip`` is the
heaviest).
"""

import logging
import multiprocessing
import pickle
import time
from queue import Empty

from repro.observatory.channels import meta_dump
from repro.observatory.encrypted import EncryptedChannelAggregator
from repro.observatory.pipeline import (
    WindowEmitter,
    feed_batches,
    resolve_datasets,
    resolve_detectors,
)
from repro.observatory.telemetry import PLATFORM_DATASET, resolve_telemetry
from repro.observatory.tracker import TopKTracker
from repro.observatory.window import WindowManager, align_window

logger = logging.getLogger(__name__)


def _shard_worker(shard_id, in_q, out_q, specs, manager_kw,
                  divert_blinded):
    """Worker main loop: a window manager over this worker's channels
    (trackers for *specs*, plus what *manager_kw* hands it).

    Speaks a tiny message protocol on *in_q*:

    * ``("batch", blob)`` -- ingest a pickled, window-aligned
      transaction list (every worker gets the same bytes);
    * ``("cut", ts)`` -- the stream crossed *ts*; cut every window
      ending at or before it and ship the cut windows (one list per
      window, in this worker's channel order) back on *out_q*, along
      with this worker's telemetry snapshot rows (empty when telemetry
      is off);
    * ``("finish",)`` -- cut the partial tail window, ship it plus each
      tracker's final statistics and telemetry rows, and exit.
    """
    try:
        cut = []
        manager = WindowManager([TopKTracker(spec) for spec in specs],
                                state_sink=cut.append, **manager_kw)
        manager.divert_blinded = divert_blinded
        consume_batch = manager.consume_batch
        telemetry = manager.telemetry
        loads = pickle.loads
        while True:
            message = in_q.get()
            tag = message[0]
            if tag == "batch":
                consume_batch(loads(message[1]))
            elif tag == "cut":
                manager.advance_to(message[1])
                out_q.put(("windows", shard_id, list(cut),
                           telemetry.snapshot(message[1])))
                del cut[:]  # state_sink stays bound to this list
            elif tag == "finish":
                manager.flush()
                stats = {tracker.spec.name: tracker.telemetry_row(None)
                         for tracker in manager.trackers}
                out_q.put(("final", shard_id, cut,
                           telemetry.snapshot(manager.window_start),
                           stats))
                return
            else:  # pragma: no cover - protocol misuse
                raise ValueError("unknown message tag %r" % (tag,))
    except Exception:  # pragma: no cover - exercised via parent raise
        import traceback
        out_q.put(("error", shard_id, traceback.format_exc()))


class ShardedObservatory:
    """Scale-out Observatory: whole channels on worker processes.

    Drop-in for :class:`~repro.observatory.pipeline.Observatory` on the
    ingest side: ``consume`` / ``consume_batch``, ``finish`` and
    ``capture_ratios`` (after ``finish``) behave the same, and the
    windows and TSV files are the single-process ones byte for byte.

    Parameters
    ----------
    shards:
        Most worker processes to run; :attr:`shards` is the number
        actually run, one per channel at most.
    datasets / window_seconds / output_dir / flush_hook:
        As for :class:`Observatory`; every worker runs its trackers
        with the defaults (Bloom gate on, survived-one-window rule).
    transport:
        Only ``"pickle"``, the queue's own pickling, is accepted
        (``benchmarks/ledger/child_pass.py`` still passes it).
    telemetry:
        ``True`` (or a registry) enables platform self-telemetry on
        the coordinator *and* every worker: each cut also emits one
        ``_platform`` dump combining coordinator rows (queue depth,
        batches shipped, emit latency, worker liveness) with every
        worker's own rows under a ``shardN.`` key prefix.
    detectors:
        ``True`` / detector names / instances / a ready
        :class:`~repro.detect.DetectorSet` (see :class:`Observatory`).
        The worker that owns the ``_detector`` channel runs this very
        set (a forked copy of it), so thresholds set on the instance
        apply.
    encrypted:
        ``True`` enables the ``_encrypted`` channel-feature dataset
        (see :class:`Observatory`).
    vantage:
        A :class:`~repro.analysis.vantage.VantageEmitter` (or None):
        every emitted window of the emitter's source dataset also
        derives ``_vantage_*`` index dumps, in the coordinator.
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
        self.window_seconds = float(window_seconds)
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        specs = resolve_datasets(datasets)
        detectors = resolve_detectors(detectors)
        self._dataset_order = [spec.name for spec in specs]
        # channels in emit order (build_channels): the trackers, then
        # _detector, then _encrypted; channel i belongs to worker i % W
        n_specs = len(specs)
        channels = n_specs + (detectors is not None) + bool(encrypted)
        #: worker processes run
        self.shards = min(int(shards), channels)
        self._owned = [list(range(shard_id, channels, self.shards))
                       for shard_id in range(self.shards)]
        self._window_start = None
        self._buffer = []
        #: transactions ingested so far
        self.total_seen = 0
        #: completed (emitted) windows
        self.windows_completed = 0
        self._final_stats = None
        self._closed = False
        #: shard ids that answered the latest barrier
        self._answered = frozenset()
        self.telemetry = resolve_telemetry(telemetry)
        self._batch_counter = self.telemetry.counter("coordinator", "batches")
        self._batch_txns = self.telemetry.counter("coordinator", "batch_txns")
        self._merge_timer = self.telemetry.timing("coordinator", "merge")
        self._gap_counter = self.telemetry.counter(
            "coordinator", "windows_skipped")
        self.emitter = WindowEmitter(output_dir, flush_hook, vantage)
        # fork where available: cheap worker startup
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context()
        self._out_q = context.Queue()
        self._in_qs = []
        self._workers = []
        try:
            for shard_id, owned in enumerate(self._owned):
                manager_kw = dict(
                    window_seconds=self.window_seconds,
                    telemetry=self.telemetry.enabled,
                    detectors=detectors if n_specs in owned else None,
                    encrypted=EncryptedChannelAggregator()
                    if encrypted and channels - 1 in owned else None)
                in_q = context.Queue()
                worker = context.Process(
                    target=_shard_worker,
                    args=(shard_id, in_q, self._out_q,
                          [specs[i] for i in owned if i < n_specs],
                          manager_kw, bool(encrypted)),
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
            "workers_alive": sum(map(self._alive, range(self.shards))),
        }

    def _alive(self, shard_id):
        """A worker is alive in a window when it answered that window's
        barrier.  :meth:`finish` emits the last window after the
        workers have returned, where ``is_alive()`` alone would race
        their exit."""
        return shard_id in self._answered or \
            self._workers[shard_id].is_alive()

    def _make_link_sampler(self, shard_id):
        in_q = self._in_qs[shard_id]

        def sample(now):
            try:
                depth = in_q.qsize()
            except NotImplementedError:  # pragma: no cover - macOS
                depth = 0
            return {"queue_depth": depth,
                    "alive": 1 if self._alive(shard_id) else 0}

        return sample

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def consume_batch(self, txns):
        """Ship a time-ordered batch of transactions to every worker.

        Window boundaries inside the batch trigger a cut barrier,
        exactly like the single-process path flushing mid-batch.
        Returns the windows emitted.
        """
        dumps = []
        if self._closed:
            raise RuntimeError("ShardedObservatory is closed")
        window_seconds = self.window_seconds
        n = len(txns)
        i = 0
        while i < n:
            if self._window_start is None:
                self._window_start = align_window(txns[i].ts,
                                                  window_seconds)
            end = self._window_start + window_seconds
            # Longest run [i, j) entirely inside the current window.
            j = i
            while j < n and txns[j].ts < end:
                j += 1
            self._buffer.extend(txns[i:j])
            self._dispatch()
            self.total_seen += j - i
            i = j
            if i < n:
                dumps.extend(self._cut(align_window(txns[i].ts,
                                                    window_seconds)))
        return dumps

    def consume(self, transactions):
        """Process an iterable of transactions; returns self."""
        feed_batches(self.consume_batch, transactions, 4096)
        return self

    def finish(self):
        """Cut the tail window, collect the workers' last windows and
        statistics, and shut the workers down.  Returns the windows
        emitted (like :meth:`Observatory.finish`)."""
        if self._closed:
            return []
        replies = self._barrier(("finish",), expect="final")
        self._final_stats = {}
        for reply in replies:
            self._final_stats.update(reply[4])
        start = self._window_start
        dumps = [] if start is None else self._emit(
            replies, start, start + self.window_seconds)
        self.close()
        logger.info(
            "ShardedObservatory finished: %d transactions over %d windows "
            "across %d workers; capture ratios %s",
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

    def _dispatch(self, force=False):
        """Ship the buffered transactions in batches of
        :attr:`batch_size` (the tail too when a cut or finish needs the
        workers fully caught up).  A batch is pickled once and the same
        bytes go on every worker's queue."""
        buffer = self._buffer
        size = self.batch_size
        ready = len(buffer) if force else len(buffer) - len(buffer) % size
        telemetry_on = self.telemetry.enabled
        for low in range(0, ready, size):
            batch = buffer[low:low + size]
            message = ("batch", pickle.dumps(batch, pickle.HIGHEST_PROTOCOL))
            for in_q in self._in_qs:
                in_q.put(message)
            if telemetry_on:
                self._batch_counter.inc()
                self._batch_txns.inc(len(batch))
        del buffer[:ready]

    def _barrier(self, message, expect):
        """Have every worker catch up and answer *message*; returns the
        replies by worker index, whatever order they arrived in."""
        self._dispatch(force=True)
        for in_q in self._in_qs:
            in_q.put(message)
        replies = [None] * self.shards
        for _ in range(self.shards):
            reply = self._next_reply(expect)
            replies[reply[1]] = reply
        self._answered = frozenset(reply[1] for reply in replies)
        return replies

    def _cut(self, new_start):
        """Barrier at a window boundary: ship the buffered batches,
        have every worker advance to *new_start*, emit what they cut."""
        start = self._window_start
        replies = self._barrier(("cut", new_start), expect="windows")
        self._window_start = new_start
        return self._emit(replies, start, new_start)

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

    def _emit(self, replies, start, now):
        """Emit the cut covering ``[start, now)``: every worker's
        windows in (window start, channel index) order, then (telemetry
        on) one ``_platform`` dump combining the coordinator's snapshot
        with every worker's rows (re-keyed ``shardN.component``)."""
        telemetry = self.telemetry
        started = time.perf_counter() if telemetry.enabled else 0.0
        windows = {}
        for reply in replies:
            for cut in reply[2]:
                for index, window in zip(self._owned[reply[1]], cut):
                    windows[window.start_ts, index] = window
        dumps = [windows[key] for key in sorted(windows)]
        # Every window in [start, now) is part of this cut, emitted or
        # not: with the gap fast-forward (see WindowManager._catch_up)
        # workers cut at most one non-empty window per cut, so credit
        # the skipped empties here to keep windows_completed in
        # lockstep with the single-process path.
        cuts = len({window_start for window_start, _ in windows})
        elapsed = int(round((now - start) / self.window_seconds))
        self.windows_completed += max(elapsed, cuts)
        self._gap_counter.inc(max(elapsed - cuts, 0))
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
        """Per-dataset capture ratios, each from the worker that owns
        the dataset.  Available once :meth:`finish` has collected the
        workers' statistics."""
        if self._final_stats is None:
            raise RuntimeError("capture_ratios() requires finish() first")
        ratios = {}
        for name in self._dataset_order:
            row = self._final_stats[name]
            ratios[name] = row["tracked_hits"] / row["offered"] \
                if row["offered"] else 0.0
        return ratios

    def __repr__(self):
        return "ShardedObservatory(shards=%d, datasets=%r)" % (
            self.shards, self._dataset_order)
