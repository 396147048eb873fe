"""Flush broker: the ingest-to-subscriber push channel.

The live daemon (:mod:`repro.daemon`) runs ingest in a worker thread
while the asyncio server loop serves queries; when a window flushes,
subscribers waiting on ``/series?follow=`` long-polls or ``/stream``
SSE connections must wake *now*, not on their next poll.  The broker
is that wake-up line:

* the ingest side calls :meth:`publish_threadsafe` after every TSV
  flush (from any thread -- it trampolines onto the loop);
* the serving side awaits :meth:`wait`, which resolves on the next
  publish, on :meth:`close`, or on its timeout.

The broker deliberately carries **no payload routing**: a publish is
just "something flushed".  Woken subscribers re-query the
:class:`~repro.observatory.store.SeriesStore` for windows beyond
their cursor, so the store stays the single source of truth and a
subscriber can never see an event for a window the index does not
serve yet.

:meth:`close` is the drain signal: every waiter wakes immediately,
sees :attr:`closed`, and terminates its response cleanly (the SSE
generators emit a final ``eof`` event) -- how SIGTERM empties the
subscriber population before the server stops.
"""

import asyncio


class FlushBroker:
    """One-to-many edge-triggered flush notifications."""

    def __init__(self, loop=None):
        self._loop = loop if loop is not None \
            else asyncio.get_event_loop()
        self._future = self._loop.create_future()
        self.closed = False
        #: total publishes (a cheap generation counter for health rows)
        self.flushes = 0
        #: currently waiting/streaming subscribers
        self.subscribers = 0

    # -- ingest side ----------------------------------------------------

    def publish(self, token=None):
        """Wake every waiter (call from the loop thread)."""
        if self.closed:
            return
        self.flushes += 1
        future, self._future = self._future, self._loop.create_future()
        if not future.done():
            future.set_result(token)

    def publish_threadsafe(self, token=None):
        """Wake every waiter from any thread (the ingest worker)."""
        try:
            self._loop.call_soon_threadsafe(self.publish, token)
        except RuntimeError:
            pass  # loop already closed during shutdown

    def close(self):
        """Drain: wake every waiter with ``closed`` set (idempotent)."""
        if self.closed:
            return
        self.closed = True
        if not self._future.done():
            self._future.set_result(None)

    # -- subscriber side ------------------------------------------------

    async def wait(self, timeout):
        """Await the next publish (or close).

        Returns ``True`` when woken by a publish/close, ``False`` on
        timeout.  Callers must re-check :attr:`closed` and re-query
        their store cursor either way -- the broker is edge-triggered
        and says nothing about *what* flushed.
        """
        if self.closed:
            return True
        future = self._future
        if timeout is not None and timeout <= 0:
            return future.done()
        try:
            await asyncio.wait_for(asyncio.shield(future), timeout)
        except asyncio.TimeoutError:
            return False
        return True

    def subscribe(self):
        """Context manager tracking the live subscriber count."""
        return _Subscription(self)

    def telemetry_row(self):
        return {"flushes": self.flushes,
                "subscribers": self.subscribers,
                "closed": 1 if self.closed else 0}


class _Subscription:
    __slots__ = ("_broker",)

    def __init__(self, broker):
        self._broker = broker

    def __enter__(self):
        self._broker.subscribers += 1
        return self._broker

    def __exit__(self, exc_type, exc, tb):
        self._broker.subscribers -= 1
