"""Query & serving layer: asyncio HTTP API over a TSV series store.

The write side (``replay`` / ``aggregate``) turns a transaction stream
into TSV time series; this package is the read side the paper's
operators actually use -- an HTTP JSON API over an indexed
:class:`~repro.observatory.store.SeriesStore` with platform-health
alerting (:mod:`repro.observatory.alerts`).

>>> from repro.server import build_server          # doctest: +SKIP
>>> server, app = await build_server("out/")       # doctest: +SKIP
>>> await server.serve_forever()                   # doctest: +SKIP

or from the command line::

    dns-observatory serve out/ --follow
"""

import asyncio

from repro.observatory.store import SeriesStore
from repro.observatory.telemetry import Telemetry
from repro.server.app import ObservatoryApp
from repro.server.http import HttpError, ObservatoryServer, Request, Response

__all__ = [
    "HttpError",
    "ObservatoryApp",
    "ObservatoryServer",
    "Request",
    "Response",
    "build_server",
    "open_store",
    "run",
]

#: the serving options the store and the listening server consume (the
#: rest configure the app); each option's default is its consumer's
STORE_OPTIONS = ("cache_windows", "follow")
SERVER_OPTIONS = ("host", "port", "max_connections")


def _take(options, names):
    return {name: options.pop(name) for name in names if name in options}


def open_store(directory, options, telemetry=None):
    """Open the serving store, taking its share out of *options* (the
    live daemon opens it ahead of :func:`build_server`, so the store's
    telemetry row keeps its place before the pipeline's)."""
    return SeriesStore(directory, telemetry=telemetry,
                       **_take(options, STORE_OPTIONS))


async def build_server(directory, store=None, telemetry=None, **options):
    """Wire store + app + server and start listening.

    *options* are the serving options under their consumer's names:
    :class:`~repro.observatory.store.SeriesStore` (``cache_windows``,
    ``follow``; not with a ready *store*), :class:`ObservatoryServer`
    (``host``, ``port``, ``max_connections``) and, for everything
    else, :class:`ObservatoryApp` -- where their defaults and meanings
    are written down.  The default bind is loopback with no
    authentication: pair exposing the API beyond the host with
    ``auth_tokens`` and ``rate_limit``.

    Returns ``(server, app)``; the caller drives
    ``server.serve_forever()`` (or ``wait_closed`` after
    ``begin_shutdown`` in tests).
    """
    registry = telemetry if telemetry is not None else Telemetry()
    if store is None:
        store = open_store(directory, options, registry)
    server_options = _take(options, SERVER_OPTIONS)
    app = ObservatoryApp(store, telemetry=registry, **options)
    server = ObservatoryServer(app, **server_options)
    app.server = server
    await server.start()
    return server, app


def run(directory, ready_callback=None, **options):
    """Blocking entry point for ``dns-observatory serve``; *options*
    as for :func:`build_server`."""

    async def _main():
        server, _ = await build_server(directory, **options)
        if ready_callback is not None:
            ready_callback(server)
        await server.serve_forever()
        return 0

    return asyncio.run(_main())
