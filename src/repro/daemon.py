"""Live daemon: ingest → store → push-to-client in one process.

The paper's DNS Observatory is an always-on platform -- streams flow
in, aggregates become visible to operators continuously (§2).  The
batch tooling reproduces the *math* of that loop (``replay`` writes
windows, ``serve --follow`` re-scans, clients poll); this module
closes it into a single continuously running process::

    source ──► ingest thread ──► Observatory / ShardedObservatory
                  │                   │ window flush (atomic TSV)
                  │                   ▼
                  │             flush_hook(path)
                  │        ┌──────────┴──────────────┐
                  │        ▼                         ▼
                  │  SeriesStore.notify_flush   FlushBroker.publish
                  │  (O(1) reconcile, no scan)  (threadsafe → loop)
                  │                                  │
    asyncio loop ─┴─► ObservatoryServer ◄────────────┘
                        /series?follow=   long-poll wakes
                        /stream           SSE event goes out

A window is queryable -- and pushed to every open subscriber -- the
moment its ``os.replace`` lands, without a directory re-scan: the
flush hook hands the exact path to the store's single-file reconcile
and rings the broker.

The transaction *source* is pluggable: the simulator's
:class:`~repro.simulation.sie.SieChannel`, a transaction-line file, or
stdin (an SIE-style pipe).  ``pace`` maps the stream's virtual time
onto wall time (1.0 = real time, 10 = 10x compressed, 0 = as fast as
possible), so a simulated day can drive a live dashboard in minutes.

Lifecycle: the server's ``serve_forever`` installs the signal
handlers and hands SIGTERM/SIGINT to the daemon's drain, which stops
the pacer, drains the pending batch, cuts the final partial window
(whose flush still reaches subscribers), closes the broker so every
long-poll returns and every SSE stream ends with ``event: eof``, then
gracefully drains HTTP connections and exits 0.  An ingest failure
tears the daemon down the same way but exits 1 -- a supervisor
restarts it, and ``/platform/health`` shows ``daemon-ingest`` failing
in the meantime.
"""

import asyncio
import logging
import select
import sys
import threading
import time
import traceback

from repro.observatory.alerts import (
    DAEMON_RULES, DEFAULT_RULES, DETECTOR_RULES)
from repro.observatory.pipeline import build_pipeline
from repro.observatory.telemetry import Telemetry
from repro.server import build_server, open_store
from repro.server.push import FlushBroker

logger = logging.getLogger(__name__)

#: ingest dispatches a partial batch after this many wall seconds, so
#: a slow paced stream still advances windows promptly
DISPATCH_INTERVAL = 0.25

#: transactions per ingest dispatch (amortizes the batch fast path)
BATCH_SIZE = 1024

#: pacer sleep quantum -- bounds shutdown latency while paced
PACE_SLICE = 0.1

#: seconds to wait for the ingest thread's final cut before giving up
#: (the thread is a daemon thread, so a wedged source cannot block
#: process exit forever)
JOIN_TIMEOUT = 30.0


def stdin_lines(stop, fh=None, poll_seconds=0.25):
    """Yield *fh*'s (default stdin) lines as they arrive.

    Polls with :func:`select.select` so a shutdown request interrupts
    an idle pipe instead of leaving the ingest thread wedged in a
    blocking read past the join timeout.
    """
    fh = sys.stdin if fh is None else fh
    while not stop.is_set():
        try:
            ready, _, _ = select.select([fh], [], [], poll_seconds)
        except (OSError, ValueError):  # fd closed under us
            return
        if not ready:
            continue
        line = fh.readline()
        if not line:
            return
        yield line


class LiveDaemon:
    """One process running ingest and the HTTP query API together.

    Parameters
    ----------
    source:
        Iterable of :class:`~repro.observatory.transaction.Transaction`
        in time order, or a callable ``source(stop_event) ->
        iterable`` (the stdin reader needs the stop event to stay
        interruptible).
    output_dir:
        Directory TSV windows are written to and served from.
    pipeline_options:
        The ingest configuration (datasets, window, shards, transport,
        detectors, vantage, segments, ...): keyword options handed to
        :func:`~repro.observatory.pipeline.build_pipeline`, where
        their meanings and defaults live.  With ``detectors`` set,
        :data:`~repro.observatory.alerts.DETECTOR_RULES` join the rule
        set, so a flagged eSLD trips ``/platform/health``.
    server_options:
        The serving configuration (bind address, LRU size, connection
        cap, stream threshold, admission control, ...): keyword
        options handed to :func:`~repro.server.build_server`.  Its
        ``rules`` (default
        :data:`~repro.observatory.alerts.DEFAULT_RULES`) get
        :data:`~repro.observatory.alerts.DAEMON_RULES` appended so
        ``/platform/health`` covers the daemon itself.
    pace:
        Virtual-to-wall time speed-up factor; ``0`` disables pacing.
    exit_when_done:
        Shut down (exit 0) when the source is exhausted instead of
        continuing to serve the accumulated windows.
    ready_callback:
        Called with the bound server once HTTP is accepting (before
        the first transaction is ingested).
    """

    def __init__(self, source, output_dir, pipeline_options,
                 server_options, pace=1.0, exit_when_done=False,
                 ready_callback=None):
        self._source = source
        self.output_dir = output_dir
        self.pipeline_options = dict(pipeline_options)
        self.server_options = dict(server_options)
        rules = list(self.server_options.get("rules", DEFAULT_RULES))
        rules += DAEMON_RULES
        if self.pipeline_options.get("detectors"):
            rules += DETECTOR_RULES
        self.server_options["rules"] = rules
        self.pace = float(pace)
        self.exit_when_done = exit_when_done
        self.ready_callback = ready_callback

        self._stop = threading.Event()
        self._loop = None
        self._ingest_thread = None
        self._shutdown_task = None
        self._finished = False
        self._finish_lock = threading.Lock()

        # observable state (read cross-thread: plain attributes only)
        self.telemetry = Telemetry()
        self.store = None
        self.broker = None
        self.server = None
        self.observatory = None
        self.windows_flushed = 0
        self.txns_ingested = 0
        self.ingest_active = False
        self.ingest_error = None
        self.last_flush_unix = None
        self._lag = 0.0
        self._started_unix = time.time()

    # -- wiring ---------------------------------------------------------

    def run(self):
        """Blocking entry point; returns the process exit code."""
        return asyncio.run(self._main())

    async def _main(self):
        loop = asyncio.get_running_loop()
        self._loop = loop
        self.broker = FlushBroker(loop)
        options = dict(self.server_options)
        self.store = open_store(self.output_dir, options, self.telemetry)
        self.telemetry.register("daemon", self._heartbeat_row,
                                deltas=("txns",))
        # The _encrypted channel is always armed: it costs nothing
        # until the first blinded record arrives.
        self.observatory = build_pipeline(
            output_dir=self.output_dir,
            telemetry=self.telemetry, flush_hook=self._on_flush,
            encrypted=True, **self.pipeline_options)
        self.server, _ = await build_server(
            self.output_dir, store=self.store, telemetry=self.telemetry,
            broker=self.broker, daemon_status=self.status, **options)
        self._ingest_thread = threading.Thread(
            target=self._ingest, name="daemon-ingest", daemon=True)
        # On the loop's next turn, when serve_forever has installed the
        # signal handlers: a SIGTERM right after the ready line drains.
        loop.call_soon(self._start_ingest)
        try:
            await self.server.serve_forever(
                on_signal=self._request_shutdown)
        finally:
            self._stop.set()
            await loop.run_in_executor(None, self._join_ingest)
            self.broker.close()
        return 1 if self.ingest_error else 0

    # -- lifecycle ------------------------------------------------------

    def _start_ingest(self):
        self._ingest_thread.start()
        if self.ready_callback is not None:
            self.ready_callback(self.server)

    def _request_shutdown(self):
        """Begin the drain sequence (idempotent; loop thread only)."""
        if self._shutdown_task is None:
            self._shutdown_task = asyncio.ensure_future(self._shutdown())

    async def _shutdown(self):
        # Stop the pacer first: the ingest thread drains its pending
        # batch and cuts the final partial window, whose flush is
        # published to the *still-open* broker -- subscribers receive
        # the cut window before the eof.
        self._stop.set()
        await asyncio.get_running_loop().run_in_executor(
            None, self._join_ingest)
        self.broker.close()
        self.server.begin_shutdown()

    def _join_ingest(self):
        thread = self._ingest_thread
        if thread is not None and thread.is_alive():
            thread.join(JOIN_TIMEOUT)
            if thread.is_alive():  # pragma: no cover - wedged source
                logger.error("ingest thread did not stop within %ss",
                             JOIN_TIMEOUT)

    # -- ingest thread --------------------------------------------------

    def _paced(self, source):
        """Map the stream's virtual time onto wall time.

        Sleeps in :data:`PACE_SLICE` slices so a shutdown request
        interrupts the pacer within one slice; records how far wall
        clock has slipped behind the schedule as ``ingest_lag_s``.
        """
        speed = self.pace
        if speed <= 0:
            for txn in source:
                if self._stop.is_set():
                    return
                yield txn
            return
        wall0 = time.monotonic()
        virtual0 = None
        for txn in source:
            if virtual0 is None:
                virtual0 = txn.ts
            target = (txn.ts - virtual0) / speed
            while not self._stop.is_set():
                ahead = target - (time.monotonic() - wall0)
                if ahead <= 0:
                    break
                time.sleep(min(ahead, PACE_SLICE))
            if self._stop.is_set():
                return
            self._lag = max(0.0, (time.monotonic() - wall0) - target)
            yield txn

    def _ingest(self):
        self.ingest_active = True
        requested_stop = False
        try:
            source = self._source
            if callable(source):
                source = source(self._stop)
            consume_batch = self.observatory.consume_batch
            buffer = []
            last_dispatch = time.monotonic()
            for txn in self._paced(source):
                buffer.append(txn)
                now = time.monotonic()
                if len(buffer) >= BATCH_SIZE or \
                        now - last_dispatch >= DISPATCH_INTERVAL:
                    consume_batch(buffer)
                    self.txns_ingested += len(buffer)
                    buffer = []
                    last_dispatch = now
            if buffer:
                consume_batch(buffer)
                self.txns_ingested += len(buffer)
        except Exception:
            self.ingest_error = traceback.format_exc()
            logger.exception("daemon ingest failed")
        finally:
            try:
                self._finish_observatory()
            except Exception:  # pragma: no cover - double fault
                if self.ingest_error is None:
                    self.ingest_error = traceback.format_exc()
                logger.exception("final window cut failed")
            self.ingest_active = False
            if not self._stop.is_set():
                # natural end or crash: the loop must drive the drain
                if self.ingest_error is not None or self.exit_when_done:
                    requested_stop = True
            if requested_stop and self._loop is not None:
                try:
                    self._loop.call_soon_threadsafe(
                        self._request_shutdown)
                except RuntimeError:  # pragma: no cover - loop gone
                    pass

    def _finish_observatory(self):
        """Cut and flush the trailing partial window exactly once."""
        with self._finish_lock:
            if self._finished or self.observatory is None:
                return
            self._finished = True
            self.observatory.finish()

    def _on_flush(self, path):
        """Ingest-thread flush hook: reconcile one file, wake pushers."""
        try:
            self.store.notify_flush(path)
        except Exception:  # pragma: no cover - defensive: keep ingest up
            logger.exception("notify_flush(%r) failed", path)
        self.windows_flushed += 1
        self.last_flush_unix = time.time()
        self.broker.publish_threadsafe(path)

    # -- observability --------------------------------------------------

    def _heartbeat_row(self, now):
        """One ``daemon`` row per window flush in ``_platform`` --
        the heartbeat :data:`DAEMON_RULES` evaluates."""
        return {
            "ingest_ok": 0 if self.ingest_error else 1,
            "ingest_active": 1 if self.ingest_active else 0,
            "ingest_lag_s": round(self._lag, 3),
            "windows_flushed": self.windows_flushed,
            "subscribers": self.broker.subscribers
            if self.broker is not None else 0,
            "txns": self.txns_ingested,
        }

    def status(self):
        """Live daemon section of ``/platform/health`` (not limited
        to flush boundaries, unlike the ``_platform`` heartbeat)."""
        return {
            "running": not self._stop.is_set(),
            "ingest_active": self.ingest_active,
            "ingest_ok": self.ingest_error is None,
            "windows_flushed": self.windows_flushed,
            "txns_ingested": self.txns_ingested,
            "ingest_lag_s": round(self._lag, 3),
            "subscribers": self.broker.subscribers
            if self.broker is not None else 0,
            "flushes_published": self.broker.flushes
            if self.broker is not None else 0,
            "last_flush_unix": self.last_flush_unix,
            "started_at_unix": round(self._started_unix, 1),
            "pace": self.pace,
            "window_seconds": self.observatory.window_seconds,
            "shards": self.observatory.shards,
        }
